"""Scalar inputs: one number rule for the whole package.

Every scalar number that enters the library goes through
``serialize.int_field`` or ``serialize.real_field``.  The property replaces
one scalar argument or field of a valid call to an exported callable or a
config dataclass with a value of the wrong kind or range, and checks that
the call returns or raises a RouterError; an ``observe_feedback`` or
``posterior_update`` that raises leaves its input state as it was.

Integers that size an allocation or a loop (``init_router``'s ``n_arms`` and
``d``, an encoder's ``dim``, ``n_boot``, ...) get only zero and negative
values here: a huge one is valid, and would exhaust memory or run for hours
instead of failing.  A config dataclass only stores its sizes, so its
fields get every value.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrouter import (
    ArmPosterior,
    Cluster,
    ConfigError,
    FormatError,
    HashingEncoder,
    InputError,
    OfflineRouterModel,
    ReplayConfig,
    RouterError,
    SimScenario,
    TrainConfig,
    compare_runs,
    dpo_loss,
    encode_text,
    generate_scenario,
    init_router,
    make_prior,
    observe_feedback,
    posterior_update,
    route_linucb,
    route_weighted_score,
    sample_comparators,
)
from rmrouter.cli import main
from rmrouter.gaussian import Beliefs, sample_weights
from rmrouter.offline import model_from_dict, model_to_dict
from rmrouter.online import OnlineRouterState, state_from_dict, state_to_dict
from rmrouter.sim import RunMetrics, parse_router, scenario_from_dict, scenario_to_dict

from scenarios import D, drift_scenario

NON_FINITE = [float("nan"), float("inf"), float("-inf")]
REAL = [True, "1", "0.5", None, *NON_FINITE, -1.0, -1, 1e308]
INT = [2.5, True, "1", None, *NON_FINITE, -1, -7.5, 1e308]
SIZE = [0, -1, -7.5, float("-inf")]  # zero and negative values only
BOOL = ["no", 0, 1, None, float("nan")]
TEXT = [True, 1.5, None, float("nan"), b"bytes", "", "x\ud800"]  # a lone surrogate


def scenario_fields():
    scenario = drift_scenario(seeds=[1])
    return {name: getattr(scenario, name) for name in scenario.__dataclass_fields__}


def warm_state():
    rng = np.random.default_rng(0)
    state = init_router(2, 3, sigma_sq=0.5, prior_variance=0.25)
    return observe_feedback(state, rng.standard_normal((4, 3)), [0, 1, 1, 0], np.ones(4))


def beliefs_fields():
    return {"means": np.zeros((2, 3)), "covariances": np.repeat(np.eye(3)[None], 2, axis=0),
            "noise_variance": 0.5, "update_counts": np.zeros(2, dtype=np.int64)}


def runs():
    return [RunMetrics("random", 1, [0.5], [0.0], np.array([1, 1]), 0.5, [2]),
            RunMetrics("thompson", 1, [0.75], [0.0], np.array([1, 1]), 0.75, [2])]


# name: (callable, keyword arguments of a valid call, {scalar: replacement values})
CALLS = {
    "SimScenario": (SimScenario, scenario_fields, {
        "n_arms": INT, "pairs_per_step": INT, "n_steps": INT, "offline_pairs": INT,
        "drift_step": INT,
    }),
    "Cluster": (Cluster, lambda: {"cluster_id": 0, "center": np.ones(D), "spread": 0.25},
                {"cluster_id": INT, "spread": REAL}),
    "ReplayConfig": (ReplayConfig, dict, {
        "seed": INT, "sigma_sq": REAL, "prior_variance": REAL, "linucb_alpha": REAL,
        "linucb_per_pair": BOOL, "light_c": INT, "prior_mode": TEXT,
    }),
    "TrainConfig": (TrainConfig, dict, {
        "lam": REAL, "lr": REAL, "weight_decay": REAL, "momentum": REAL, "seed": INT,
        "epochs": INT, "batch_size": INT, "embed_dim": INT, "encoder_dim": INT,
    }),
    "OfflineRouterModel": (
        OfflineRouterModel,
        lambda: {"fusion": None, "bt_embeddings": np.ones((2, 3)),
                 "cls_embeddings": np.ones((2, 3)), "lam": 0.2, "n_arms": 2},
        {"lam": REAL},
    ),
    "init_router": (init_router, lambda: {"n_arms": 2, "d": 3, "sigma_sq": 0.5,
                                          "prior_variance": 0.25},
                    {"n_arms": SIZE, "d": SIZE, "sigma_sq": REAL, "prior_variance": REAL}),
    "make_prior": (make_prior, lambda: {"d": 3, "prior_variance": 0.5, "noise_variance": 2.0},
                   {"d": SIZE, "prior_variance": REAL, "noise_variance": REAL}),
    "ArmPosterior": (ArmPosterior, lambda: {"mean": np.zeros(2), "covariance": np.eye(2),
                                            "noise_variance": 1.0, "update_count": 3},
                     {"noise_variance": REAL, "update_count": INT}),
    "Beliefs": (Beliefs, beliefs_fields, {"noise_variance": REAL}),
    "OnlineRouterState": (
        OnlineRouterState,
        lambda: {"beliefs": Beliefs(**beliefs_fields()), "prior_variance": 0.25, "step": 4},
        {"prior_variance": REAL, "step": INT},
    ),
    "sample_weights": (
        sample_weights,
        lambda: {"posterior": make_prior(3), "rng": np.random.default_rng(0), "n": 2},
        {"n": SIZE},
    ),
    "route_linucb": (route_linucb, lambda: {"state": warm_state(), "contexts": np.ones((2, 3)),
                                            "alpha": 1.0},
                     {"alpha": REAL}),
    "route_weighted_score": (
        route_weighted_score,
        lambda: {"prior": np.ones((2, 3)), "zero_prior_state": warm_state(),
                 "contexts": np.ones((2, 3)), "alpha": 0.5, "rng": np.random.default_rng(0)},
        {"alpha": REAL},
    ),
    "weighted:<alpha>": (lambda alpha: parse_router(f"weighted:{alpha}"), lambda: {"alpha": 0.5},
                         {"alpha": REAL}),
    "sample_comparators": (
        sample_comparators,
        lambda: {"n_arms": 4, "chosen": np.array([0, 3]), "c": 2,
                 "rng": np.random.default_rng(0)},
        {"n_arms": SIZE, "c": INT},
    ),
    "dpo_loss": (dpo_loss, lambda: {"logp_policy_w": -1.0, "logp_ref_w": -2.0,
                                    "logp_policy_l": -2.0, "logp_ref_l": -2.0, "beta": 1.0},
                 {"beta": REAL, "logp_policy_w": REAL, "logp_ref_w": REAL, "logp_policy_l": REAL,
                  "logp_ref_l": REAL}),
    "HashingEncoder": (HashingEncoder, lambda: {"dim": 16}, {"dim": SIZE}),
    "HashingEncoder.encode": (lambda text: HashingEncoder(16).encode(text),
                              lambda: {"text": "a prompt"}, {"text": TEXT}),
    "encode_text": (encode_text, lambda: {"text": "a prompt", "dim": 16},
                    {"text": TEXT, "dim": SIZE}),
    "generate_scenario": (
        generate_scenario,
        lambda: {"scenario": drift_scenario(seeds=[1]), "rng": 3},
        {"rng": INT},
    ),
    "compare_runs": (compare_runs, lambda: {"metrics": runs(), "baseline": 0, "n_boot": 20,
                                            "seed": 0},
                     {"baseline": INT, "n_boot": SIZE, "seed": INT}),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # 1e308 inputs
@settings(deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(CALLS)), data=st.data())
def test_mutated_scalar_returns_or_raises_a_router_error(name, data):
    call, valid, scalars = CALLS[name]
    field = data.draw(st.sampled_from(sorted(scalars)), label="field")
    value = data.draw(st.sampled_from(scalars[field]), label="value")
    try:
        call(**{**valid(), field: value})
    except RouterError:
        pass


# replacement values for one arm and one reward of a valid step; an array of
# numbers that holds a string is out of scope, since numpy reads "1" as 1.0
STEP_ROWS = {"chosen": INT + [2, "x"], "rewards": [v for v in REAL if not isinstance(v, str)]}


@settings(deadline=None, max_examples=100)
@given(update=st.sampled_from(["observe_feedback", "posterior_update"]), data=st.data())
def test_mutated_row_leaves_the_state_unchanged(update, data):
    field = data.draw(st.sampled_from(sorted(STEP_ROWS)), label="field")
    value = data.draw(st.sampled_from(STEP_ROWS[field]), label="value")
    state = warm_state()
    step = {"contexts": np.ones((3, 3)), "chosen": [0, 1, 1], "rewards": [0.5, 1.0, 0.0]}
    step[field] = list(step[field])
    step[field][1] = value
    before = [a.copy() for a in (state.beliefs.means, state.beliefs.covariances,
                                 state.beliefs.update_counts)]
    try:
        if update == "observe_feedback":
            observe_feedback(state, step["contexts"], step["chosen"], step["rewards"])
        else:
            posterior_update(state.beliefs, step["contexts"], step["rewards"], step["chosen"])
    except RouterError:
        after = (state.beliefs.means, state.beliefs.covariances, state.beliefs.update_counts)
        assert all(np.array_equal(b, a) for b, a in zip(before, after))
        assert state.step == 1


# ---------------------------------------------------------------------------
# the values each of these accepted silently before the rule


@pytest.mark.parametrize(
    "make",
    [
        lambda: ReplayConfig(linucb_per_pair="no"),
        lambda: ReplayConfig(prior_variance=True),
        lambda: ReplayConfig(light_c=2.5),
        lambda: SimScenario(**{**scenario_fields(), "n_steps": True, "drift_step": None,
                               "mixture_after": None}),
        lambda: SimScenario(**{**scenario_fields(), "drift_step": True}),
        lambda: Cluster(cluster_id=True, center=np.ones(D), spread=0.25),
    ],
    ids=["linucb-per-pair-string", "prior-variance-bool", "fractional-light-c",
         "bool-n-steps", "bool-drift-step", "bool-cluster-id"],
)
def test_config_value_of_the_wrong_kind_rejected(make):
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: init_router(2.5, 4), ConfigError),
        (lambda: init_router(2, "4"), ConfigError),
        (lambda: make_prior(2.5), ConfigError),
        (lambda: HashingEncoder(2.5), ConfigError),
        (lambda: compare_runs(runs(), "random", n_boot=2.5), ConfigError),
        (lambda: ReplayConfig(linucb_alpha="x"), ConfigError),
        (lambda: ReplayConfig(sigma_sq="1"), ConfigError),
        (lambda: Cluster(0, np.ones(D), "x"), ConfigError),
        (lambda: encode_text(5), InputError),
        (lambda: ReplayConfig(prior_mode="Injected"), ConfigError),
        (lambda: OnlineRouterState(Beliefs(**beliefs_fields()), 1.0, step=-1), ConfigError),
        (lambda: OnlineRouterState(Beliefs(**beliefs_fields()), 1.0, step=2.5), ConfigError),
        (lambda: ArmPosterior(np.zeros(2), np.eye(2), 1.0, update_count=-1), InputError),
        (lambda: ArmPosterior(np.zeros(2), np.eye(2), 1.0, update_count=True), InputError),
        (lambda: Beliefs(**{**beliefs_fields(), "noise_variance": 0.0}), InputError),
        (lambda: Beliefs(**{**beliefs_fields(), "noise_variance": "1"}), InputError),
        (lambda: sample_weights(make_prior(2), np.random.default_rng(0), 2.5), ConfigError),
        (lambda: sample_weights(make_prior(2), np.random.default_rng(0), -1), ConfigError),
        (lambda: encode_text("x\ud800"), InputError),
        (lambda: dpo_loss("a", 0.0, 0.0, 0.0), InputError),
        (lambda: dpo_loss(0.0, True, 0.0, 0.0), InputError),
        (lambda: dpo_loss(0.0, 0.0, float("nan"), 0.0), InputError),
        (lambda: dpo_loss(0.0, 0.0, 0.0, float("-inf")), InputError),
    ],
    ids=["fractional-n-arms", "string-d", "fractional-prior-dimension", "fractional-encoder-dim",
         "fractional-n-boot", "string-linucb-alpha", "string-sigma-sq", "string-spread",
         "non-string-text", "unknown-replay-prior-mode", "negative-step", "fractional-step",
         "negative-update-count", "bool-update-count", "zero-beliefs-noise",
         "string-beliefs-noise", "fractional-sample-count", "negative-sample-count",
         "lone-surrogate-text", "string-logp", "bool-logp", "nan-logp", "infinite-logp"],
)
def test_argument_of_the_wrong_kind_is_a_router_error(call, error):
    with pytest.raises(error):
        call()


def test_string_noise_variance_rejected():
    # ArmPosterior reports a bad noise variance as it reports a non-finite mean
    with pytest.raises(InputError, match="noise_variance must be a real number"):
        ArmPosterior(mean=np.zeros(2), covariance=np.eye(2), noise_variance="1")


def state_doc():
    return state_to_dict(init_router(2, 3))  # sigma_sq and prior_variance 1.0


def model_doc():
    rng = np.random.default_rng(0)
    return model_to_dict(OfflineRouterModel(None, rng.standard_normal((2, 3)),
                                            rng.standard_normal((2, 3)), 0.2, 2))


# (document, reader, the CLI command that reads it, edit): each edit writes the
# string or the bool form of a value the reader used to read with float()
DOCUMENT_PROBES = {
    "arm-noise-variance-string": ("state", lambda d: d["arms"][0].update(noise_variance="1.0")),
    "arm-noise-variance-bool": ("state", lambda d: d["arms"][0].update(noise_variance=True)),
    "sigma-sq-string": ("state", lambda d: d["config"].update(sigma_sq="1.0")),
    "sigma-sq-bool": ("state", lambda d: d["config"].update(sigma_sq=True)),
    "prior-variance-string": ("state", lambda d: d["config"].update(prior_variance="1.0")),
    "prior-variance-bool": ("state", lambda d: d["config"].update(prior_variance=True)),
    "lambda-string": ("model", lambda d: d.update({"lambda": "0.2"})),
    "lambda-bool": ("model", lambda d: d.update({"lambda": True})),
    "spread-string": ("scenario", lambda d: d["clusters"][0].update(spread="0.25")),
    "spread-bool": ("scenario", lambda d: d["clusters"][0].update(spread=True)),
    "accuracy-string": ("scenario", lambda d: d["arm_profiles"][0].update({"0": "0.9"})),
    "accuracy-bool": ("scenario", lambda d: d["arm_profiles"][0].update({"0": True})),
}
READERS = {
    "state": (state_doc, state_from_dict, FormatError),
    "model": (model_doc, model_from_dict, FormatError),
    # a scenario is a configuration: its reader raises ConfigError for every field
    "scenario": (lambda: scenario_to_dict(drift_scenario(seeds=[1])), scenario_from_dict,
                 ConfigError),
}


@pytest.mark.parametrize("probe", DOCUMENT_PROBES)
def test_document_real_of_the_wrong_kind_rejected(probe, tmp_path, capsys):
    kind, edit = DOCUMENT_PROBES[probe]
    make, read, error = READERS[kind]
    doc = make()
    edit(doc)
    with pytest.raises(error, match="must be a real number"):
        read(json.loads(json.dumps(doc)))
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if kind == "scenario":
        args = ["collect-behavior", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]
    else:
        args = ["inspect", str(path)]
    assert main(args) == 2
    assert "must be a real number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

