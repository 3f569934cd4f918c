"""Desk-scale routing experiments on synthetic reward-model pools.

A scenario places preference-pair contexts in clusters on the unit sphere and
gives every synthetic reward model a per-cluster probability of labelling a
pair correctly.  Each model's answer to each pair is drawn once from that
profile and frozen, so a whole experiment is replayable bit for bit.  The
replay loop feeds the labelled stream through a routing strategy step by
step: route a batch, query the chosen model(s), convert surrogate losses into
rewards, feed the bandit, and record annotation accuracy, regret against the
per-cluster oracle arm, arm usage, and reward-model call counts.

Strategies: per-pair Thompson sampling (zero or injected prior), the frozen
offline router, batch-level LinUCB, uniform random, any fixed single model,
majority voting, consensus-weighted majority (all-model ensembles), a
fixed-weight offline/online score mix, and a profile-oracle upper bound.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError, InvariantError, RouterError
from .features import PairEmbedding, PreferencePair, row_norms
from .offline import TrainConfig, TrainResult, train_offline
from .online import (
    DEFAULT_NOISE_VARIANCE,
    OnlineRouterState,
    check_prior_mode,
    init_router,
    observe_feedback,
    route_batch,
    route_linucb,
    route_weighted_score,
    update_linucb,
)
from .rewards import (
    DEFAULT_LIGHT_COMPARATORS,
    RewardHistory,
    advantage_rewards,
    batch_baseline_array,
    normalize_step_rewards,
    sample_comparators,
    surrogate_pair_loss,
)
from .serialize import check_document, int_field, real_field

SCENARIO_FORMAT_VERSION = 1

REWARD_VARIANTS = ("batch_quantile", "neg_loss", "full_advantage", "light_advantage")

# replay-time offline training defaults: same lam / weight decay as the
# reference recipe, with step size and epoch count sized for the synthetic
# sets and the identity (no fusion) context path
SIM_TRAIN_LR = 0.5
SIM_TRAIN_EPOCHS = 40
SIM_TRAIN_BATCH = 64


# ---------------------------------------------------------------------------
# scenario definition


@dataclass
class Cluster:
    cluster_id: int
    center: np.ndarray
    spread: float

    def __post_init__(self) -> None:
        self.cluster_id = int_field(self.cluster_id, "cluster_id", ConfigError, minimum=0)
        self.spread = real_field(self.spread, f"cluster {self.cluster_id} spread", ConfigError)
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.center.ndim != 1 or not self.center.size:
            raise ConfigError("cluster center must be a vector of length >= 1")
        if not np.isfinite(self.center).all():
            raise ConfigError(f"cluster {self.cluster_id} center must be finite")


@dataclass
class SimScenario:
    """A synthetic experiment: context clusters in d >= 1 dimensions, each
    model's per-cluster accuracy, the stream's size and drift, and the run
    seeds, distinct and >= 0.  Construction (``dataclasses.replace`` too)
    checks every field and raises ConfigError on the first bad one."""

    n_arms: int
    clusters: list[Cluster]
    arm_profiles: list[dict[int, float]]
    pairs_per_step: int
    n_steps: int
    seeds: list[int]
    offline_pairs: int = 0
    mixture_before: list[float] | None = None
    mixture_after: list[float] | None = None
    drift_step: int | None = None

    def __post_init__(self) -> None:
        self.n_arms = int_field(self.n_arms, "n_arms", ConfigError, minimum=2)
        self.pairs_per_step = int_field(self.pairs_per_step, "pairs_per_step", ConfigError, 1)
        self.n_steps = int_field(self.n_steps, "n_steps", ConfigError, minimum=1)
        self.offline_pairs = int_field(self.offline_pairs, "offline_pairs", ConfigError, 0)
        if not self.seeds:
            raise ConfigError("scenario needs at least one seed")
        self.seeds = [int_field(seed, "seed", ConfigError, minimum=0) for seed in self.seeds]
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {self.seeds}")
        if len(self.arm_profiles) != self.n_arms:
            raise ConfigError("arm_profiles must have one entry per arm")
        if not self.clusters:
            raise ConfigError("scenario needs at least one cluster")
        d = self.clusters[0].center.shape[0]
        for pos, cluster in enumerate(self.clusters):
            if cluster.cluster_id != pos:
                raise ConfigError("cluster_id values must be 0..C-1 in order")
            if cluster.center.shape[0] != d:
                raise ConfigError("all cluster centers must share one dimension")
        # a split's largest arrays hold n x max(d, n_arms) 8-byte values, and no
        # numpy array holds more bytes than the largest intp
        n_pairs = max(self.offline_pairs, self.pairs_per_step * self.n_steps)
        if n_pairs * 8 * max(d, self.n_arms) > np.iinfo(np.intp).max:
            raise ConfigError(f"{n_pairs} pairs in one split do not fit in a numpy array")
        for a, ca in enumerate(self.clusters):
            for cb in self.clusters[a + 1 :]:
                if np.array_equal(ca.center, cb.center):
                    raise ConfigError("cluster centers must be pairwise distinct")
        for n, profile in enumerate(self.arm_profiles):
            for cluster in self.clusters:
                if cluster.cluster_id not in profile:
                    raise ConfigError(f"arm {n} has no accuracy for cluster {cluster.cluster_id}")
            for cluster_id, prob in profile.items():
                real_field(prob, f"arm {n}, cluster {cluster_id}: accuracy", ConfigError, at_most=1)
        for name in ("mixture_before", "mixture_after"):
            mix = getattr(self, name)
            if mix is None:
                continue
            if len(mix) != len(self.clusters):
                raise ConfigError(f"{name} must have one weight per cluster")
            if not (all(w >= 0 for w in mix) and abs(sum(mix) - 1.0) <= 1e-9):  # NaN fails too
                raise ConfigError(f"{name} must be a probability vector")
        if self.mixture_after is not None and self.drift_step is None:
            raise ConfigError("mixture_after requires drift_step")
        if self.drift_step is not None:
            self.drift_step = int_field(self.drift_step, "drift_step", ConfigError, minimum=1)
            if self.drift_step >= self.n_steps:
                raise ConfigError("drift_step must be an integer strictly inside the run")

    @property
    def d(self) -> int:
        return self.clusters[0].center.shape[0]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def profile_matrix(self) -> np.ndarray:
        """(n_arms, n_clusters) accuracy table."""
        clusters = range(self.n_clusters)
        return np.array([[p[c] for c in clusters] for p in self.arm_profiles], dtype=np.float64)

    def mixture_at(self, step: int) -> np.ndarray:
        uniform = np.full(self.n_clusters, 1.0 / self.n_clusters)
        before = np.asarray(self.mixture_before) if self.mixture_before else uniform
        if self.drift_step is not None and step >= self.drift_step:
            return np.asarray(self.mixture_after) if self.mixture_after else before
        return before


_SCENARIO_KEYS = {"version", *(f.name for f in fields(SimScenario))}


def scenario_to_dict(scenario: SimScenario) -> dict:
    return {
        "version": SCENARIO_FORMAT_VERSION,
        "n_arms": scenario.n_arms,
        "clusters": [
            {"cluster_id": c.cluster_id, "center": c.center.tolist(), "spread": c.spread}
            for c in scenario.clusters
        ],
        "arm_profiles": [{str(k): float(v) for k, v in p.items()} for p in scenario.arm_profiles],
        "pairs_per_step": scenario.pairs_per_step,
        "n_steps": scenario.n_steps,
        "seeds": list(scenario.seeds),
        "offline_pairs": scenario.offline_pairs,
        "mixture_before": scenario.mixture_before,
        "mixture_after": scenario.mixture_after,
        "drift_step": scenario.drift_step,
    }


def scenario_from_dict(doc: dict) -> SimScenario:
    with check_document(doc, "scenario document", SCENARIO_FORMAT_VERSION, ConfigError):
        unknown = set(doc) - _SCENARIO_KEYS
        if unknown:
            raise ConfigError(f"unknown scenario key(s): {sorted(unknown)}")
        clusters = [
            Cluster(c["cluster_id"], np.asarray(c["center"], dtype=np.float64), c["spread"])
            for c in doc["clusters"]
        ]
        profiles = [{int(k): v for k, v in profile.items()} for profile in doc["arm_profiles"]]
        given = {key: value for key, value in doc.items() if key != "version"}
        return SimScenario(**{**given, "clusters": clusters, "arm_profiles": profiles})


# ---------------------------------------------------------------------------
# generated data


@dataclass
class SimSplit:
    """A materialized set of pairs, one array row per pair.

    Row ``i`` is the pair named ``pair_id(i)``.  The pipeline reads only the
    arrays; ``pairs``, ``embeddings`` and the ``answers`` derived from the bits
    serve the dataset files, the CLI, the tests and the demos.
    """

    prefix: str  # pair ids are f"{prefix}-{row:06d}"
    contexts: np.ndarray  # (n, d) unit context vector per pair
    clusters: np.ndarray  # (n,) cluster index per pair
    labels: np.ndarray  # (n,) ground truth "A"/"B"
    correct: np.ndarray  # (n, n_arms) uint8: 1 where the model labels the pair right

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def answers(self) -> np.ndarray:
        """(n, n_arms) "A"/"B" per model: the label where the model is right."""
        flipped = np.where(self.labels == "A", "B", "A")
        return np.where(self.correct, self.labels[:, None], flipped[:, None])

    def pair_id(self, row: int) -> str:
        return f"{self.prefix}-{row:06d}"

    def row_of(self, pair_id: str) -> int:
        """The row of ``pair_id``; KeyError if the split has no such pair."""
        head, _, digits = str(pair_id).rpartition("-")
        row = int(digits) if head == self.prefix and digits.isdecimal() else self.n
        if row >= self.n or self.pair_id(row) != pair_id:
            raise KeyError(pair_id)
        return row

    @cached_property
    def pairs(self) -> list[PreferencePair]:
        return [
            PreferencePair(pid, f"prompt {pid} topic {c}", f"candidate answer one for {pid}",
                           f"candidate answer two for {pid}", label)
            for pid, c, label in zip(
                map(self.pair_id, range(self.n)), self.clusters.tolist(), self.labels.tolist()
            )
        ]

    @property
    def embeddings(self) -> Mapping[str, PairEmbedding]:
        """pair_id -> embedding; each lookup's vector is a view of its context row."""
        return _RowEmbeddings(self)


class _RowEmbeddings(Mapping):
    """Read-only mapping over a split's context rows; stores no per-pair object."""

    def __init__(self, split: SimSplit):
        self._split = split

    def __getitem__(self, pair_id: str) -> PairEmbedding:
        return PairEmbedding(self._split.contexts[self._split.row_of(pair_id)])

    def __iter__(self) -> Iterator[str]:
        return map(self._split.pair_id, range(self._split.n))

    def __len__(self) -> int:
        return self._split.n


@dataclass
class SimDataset:
    scenario: SimScenario
    offline: SimSplit
    stream: SimSplit
    profiles: np.ndarray  # (n_arms, n_clusters)


def _draw_clusters(
    scenario: SimScenario, rng: np.random.Generator, n_pairs: int, switch: int
) -> np.ndarray:
    """Cluster index per pair: the first ``switch`` pairs follow the initial
    mixture, the rest the final one.

    One uniform draw for all pairs, each inverted through its mixture's CDF
    as ``rng.choice`` does it: the same values, and the same generator state
    after, as one ``rng.choice(C, size=B, p=mixture_at(t))`` call per step.
    """
    u = rng.random(n_pairs)
    out = []
    for part, step in ((u[:switch], 0), (u[switch:], scenario.n_steps - 1)):
        cdf = np.cumsum(scenario.mixture_at(step))
        cdf /= cdf[-1]
        out.append(cdf.searchsorted(part, side="right"))
    return np.concatenate(out).astype(np.int64)


def _draw_split(
    scenario: SimScenario,
    prefix: str,
    cluster_ids: np.ndarray,
    rng: np.random.Generator,
    rm_rngs: list[np.random.Generator],
    profiles: np.ndarray,
) -> SimSplit:
    n = len(cluster_ids)
    labels = np.where(rng.random(n) < 0.5, "A", "B")
    centers = np.stack([c.center for c in scenario.clusters])
    spreads = np.array([c.spread for c in scenario.clusters], dtype=np.float64)
    # one draw for every row gives the values of one draw per row, in order
    contexts = rng.standard_normal((n, scenario.d))
    with np.errstate(over="ignore"):  # an overflowed entry is refused below
        contexts *= spreads[cluster_ids, None]
        contexts += centers[cluster_ids]
    norms = row_norms(contexts)
    zero = norms == 0.0
    if zero.any():  # fall back to the centre; a zero centre stays a zero vector
        contexts[zero] = centers[cluster_ids[zero]]
        norms[zero] = row_norms(contexts[zero])
        norms[norms == 0.0] = 1.0
    if not np.isfinite(norms).all():
        raise ConfigError("context vectors overflow float64: cluster centres or spreads "
                          "are too large")
    contexts /= norms[:, None]
    correct = np.empty((n, scenario.n_arms), dtype=np.uint8)
    for arm in range(scenario.n_arms):  # a hit: the model labels the pair right
        np.less(rm_rngs[arm].random(n), profiles[arm, cluster_ids], out=correct[:, arm],
                casting="unsafe")
    return SimSplit(prefix, contexts, cluster_ids.astype(np.int64), labels, correct)


def generate_scenario(scenario: SimScenario, rng: np.random.Generator | int) -> SimDataset:
    """Materialize the offline corpus and the online stream for one run seed.

    The offline corpus is drawn from the pre-drift cluster mixture; the stream
    follows the scheduled mixture step by step.  Each model's correctness bits
    come from its own seeded generator, so regenerating with the same seed
    gives a bitwise-identical truth table.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int_field(rng, "seed", ConfigError, minimum=0))
    profiles = scenario.profile_matrix()
    rm_rngs = [np.random.default_rng(int(rng.integers(2**63))) for _ in range(scenario.n_arms)]

    n_offline = scenario.offline_pairs
    offline_clusters = _draw_clusters(scenario, rng, n_offline, n_offline)
    offline = _draw_split(scenario, "off", offline_clusters, rng, rm_rngs, profiles)

    per_step = scenario.pairs_per_step
    drift = scenario.drift_step or scenario.n_steps
    stream_clusters = _draw_clusters(scenario, rng, per_step * scenario.n_steps, drift * per_step)
    stream = _draw_split(scenario, "str", stream_clusters, rng, rm_rngs, profiles)
    return SimDataset(scenario=scenario, offline=offline, stream=stream, profiles=profiles)


def fit_offline_router(
    dataset: SimDataset, config: TrainConfig | None = None, seed: int = 0
) -> TrainResult:
    """Train the offline router on the dataset's offline corpus (identity contexts)."""
    if dataset.offline.n == 0:
        raise InputError("scenario has no offline corpus (offline_pairs == 0)")
    if config is None:
        config = TrainConfig(
            lr=SIM_TRAIN_LR, epochs=SIM_TRAIN_EPOCHS, batch_size=SIM_TRAIN_BATCH, seed=seed
        )
    return train_offline(dataset.offline.contexts, dataset.offline.correct, None, config)


# ---------------------------------------------------------------------------
# replay


@dataclass
class ReplayConfig:
    seed: int = 0
    sigma_sq: float = DEFAULT_NOISE_VARIANCE
    prior_mode: str = "zero"
    prior_variance: float | None = None
    offline_prior: np.ndarray | None = None
    linucb_alpha: float = 1.0
    linucb_per_pair: bool = False
    reward_variant: str = "batch_quantile"
    light_c: int = DEFAULT_LIGHT_COMPARATORS

    def __post_init__(self) -> None:
        self.seed = int_field(self.seed, "seed", ConfigError, minimum=0)
        check_prior_mode(self.prior_mode)
        if self.reward_variant not in REWARD_VARIANTS:
            raise ConfigError(
                f"reward_variant must be one of {REWARD_VARIANTS}, got {self.reward_variant!r}"
            )
        self.linucb_alpha = real_field(self.linucb_alpha, "linucb_alpha", ConfigError)
        self.sigma_sq = real_field(self.sigma_sq, "sigma_sq", ConfigError, positive=True)
        if self.prior_variance is not None:
            self.prior_variance = real_field(self.prior_variance, "prior_variance", ConfigError,
                                             positive=True)
        if not isinstance(self.linucb_per_pair, bool):
            raise ConfigError(f"linucb_per_pair must be a bool, got {self.linucb_per_pair!r}")
        self.light_c = int_field(self.light_c, "light_c", ConfigError, minimum=1)
        if self.offline_prior is not None:
            self.offline_prior = np.asarray(self.offline_prior, dtype=np.float64)
            if self.offline_prior.ndim != 2 or not np.isfinite(self.offline_prior).all():
                raise ConfigError("offline_prior must be a finite (n_arms, d) matrix")


@dataclass
class RunMetrics:
    """Everything a replay records; validate() enforces the bookkeeping invariants."""

    router: str
    seed: int
    routing_accuracy_per_step: list[float]
    cumulative_regret: list[float]
    arm_selection_counts: np.ndarray
    final_annotation_accuracy: float
    rm_calls_per_step: list[int]
    mean_uwo_weight: float | None = None

    def validate(self, pairs_per_step: int, n_steps: int) -> None:
        if len(self.routing_accuracy_per_step) != n_steps:
            raise InvariantError("accuracy trace length does not match n_steps")
        if len(self.cumulative_regret) != n_steps or len(self.rm_calls_per_step) != n_steps:
            raise InvariantError("metric trace lengths do not match n_steps")
        acc = np.asarray(self.routing_accuracy_per_step)
        if np.any(acc < 0) or np.any(acc > 1):
            raise InvariantError("per-step accuracies must lie in [0, 1]")
        if not 0.0 <= self.final_annotation_accuracy <= 1.0:
            raise InvariantError("final annotation accuracy must lie in [0, 1]")
        if int(self.arm_selection_counts.sum()) != pairs_per_step * n_steps:
            raise InvariantError("arm selection counts must sum to pairs_per_step * n_steps")
        # an ensemble polls every model, so it can beat the best single arm
        ensemble = getattr(ROUTERS.get(self.router.partition(":")[0]), "group", "") == "ensemble"
        if not ensemble and np.any(np.diff(self.cumulative_regret) < -1e-12):
            raise InvariantError("cumulative regret must be non-decreasing")


@dataclass
class _Replay:
    """What the router hooks read during one replay."""

    config: ReplayConfig
    param: float | int | None
    n_arms: int
    d: int
    clusters: np.ndarray  # per stream pair
    profiles: np.ndarray
    prior: np.ndarray | None  # the offline prior matrix, if the router reads it
    rng: np.random.Generator  # routing draws
    loss_rng: np.random.Generator
    comp_rng: np.random.Generator  # light_advantage comparator picks
    history: RewardHistory


def _mix_weight(arg: str) -> float:
    return real_field(float(arg), "weighted alpha", ConfigError, at_most=1.0)


@dataclass(frozen=True)
class RouterKind:
    """One replay strategy: its spec syntax, its group and its array-level hooks.

    ``group`` is "bandit" (learns through ``observe``), "ensemble" (polls every
    model; no hooks), "fixed" or "oracle" (reads the true profiles; not in
    ``all``).  ``prior`` is when it reads the offline prior: "never", "always"
    or "injected" (with ``prior_mode="injected"``).  ``start(run)`` gives the
    state, ``route(state, run, contexts[B, d], rows)`` a step's (chosen[B],
    scores[B, N] or None: no decision log), ``observe(state, contexts, chosen,
    rewards[B])`` the next state.
    """

    syntax: str
    group: str
    route: Callable | None = None
    start: Callable = lambda run: None
    observe: Callable | None = None
    prior: str = "never"
    parse: Callable[[str], object] | None = None


# the only list of router names; ``run-sim --router all`` runs them in this
# order, without the oracle, then reruns the injected-prior ones.  The hooks
# call the online functions by their module-level names at call time, so a
# tracer that rebinds those names sees every call.
ROUTERS = {
    "single": RouterKind(
        "single:<arm>", "fixed", lambda _, run, h, rows: (np.full(len(h), run.param), None),
        parse=int,
    ),
    "random": RouterKind(
        "random", "fixed",
        lambda _, run, h, rows: (run.rng.integers(0, run.n_arms, size=len(h)), None),
    ),
    "majority": RouterKind("majority", "ensemble"),
    "uwo": RouterKind("uwo", "ensemble"),
    "linucb": RouterKind(
        "linucb", "bandit",
        lambda state, run, h, rows: route_linucb(
            state, h, run.config.linucb_alpha, run.config.linucb_per_pair
        ),
        lambda run: init_router(run.n_arms, run.d),  # ridge: prior and noise variance 1
        lambda state, *step: update_linucb(state, *step),
    ),
    "thompson": RouterKind(
        "thompson", "bandit",
        lambda state, run, h, rows: route_batch(state, h, run.rng),
        lambda run: init_router(run.n_arms, run.d, run.config.prior_mode, run.prior,
                                run.config.sigma_sq, run.config.prior_variance),
        lambda state, *step: observe_feedback(state, *step), "injected",
    ),
    "offline": RouterKind(
        "offline", "fixed",
        lambda _, run, h, rows: (np.argmax(h @ run.prior.T, axis=1), None),
        prior="always",
    ),
    "weighted": RouterKind(
        "weighted:<alpha>", "bandit",
        lambda state, run, h, rows: (
            route_weighted_score(run.prior, state, h, run.param, run.rng), None
        ),
        lambda run: init_router(run.n_arms, run.d, sigma_sq=run.config.sigma_sq),
        lambda state, *step: observe_feedback(state, *step), "always", _mix_weight,
    ),
    "oracle": RouterKind(
        "oracle", "oracle",
        lambda _, run, h, rows: (np.argmax(run.profiles[:, run.clusters[rows]], axis=0), None),
    ),
}


def parse_router(name: str) -> tuple[str, float | int | None]:
    """Parse a router spec string into (kind, parameter)."""
    kind, sep, arg = name.partition(":")
    router = ROUTERS.get(kind)
    if router is None:
        valid = ", ".join(r.syntax for r in ROUTERS.values())
        raise ConfigError(f"unknown router {name!r}; valid: {valid}")
    if router.parse is None:
        if sep:
            raise ConfigError(f"router {kind!r} takes no parameter")
        return kind, None
    if not sep:
        raise ConfigError(f"router {kind!r} needs a parameter, e.g. {router.syntax}")
    try:
        return kind, router.parse(arg)
    except ValueError as exc:
        raise ConfigError(f"bad parameter in router {name!r}: {exc}") from exc


def check_run(
    router: str, scenario: SimScenario, config: ReplayConfig
) -> tuple[str, float | int | None, np.ndarray | None]:
    """(kind, parameter, offline prior or None) of one replay, once its spec
    parses, a ``single`` arm is in range, a router that computes
    light_advantage rewards draws at most n_arms - 1 comparators, and a prior
    it reads is an (n_arms, d) matrix; ConfigError otherwise.  It runs
    nothing, so a caller can check every run before the first replay."""
    kind, param = parse_router(router)
    n_arms, d = scenario.n_arms, scenario.d
    if kind == "single" and not 0 <= param < n_arms:
        raise ConfigError(f"single arm index {param} out of range for {n_arms} models")
    spec = ROUTERS[kind]
    light = config.reward_variant == "light_advantage"
    if light and spec.observe is not None and config.light_c > n_arms - 1:
        raise ConfigError(f"comparator count {config.light_c} must be in [1, {n_arms - 1}]")
    reads = spec.prior
    if reads == "never" or (reads == "injected" and config.prior_mode != "injected"):
        return kind, param, None
    prior = config.offline_prior
    if prior is None or prior.shape != (n_arms, d):
        raise ConfigError(f"router {router!r} needs an ({n_arms}, {d}) offline prior matrix")
    return kind, param, prior


def _majority_votes(correct: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(majority is right, consensus rate, attributed arm) per pair of a bit matrix.

    Ties go to the lowest-index model's vote; the attributed arm is the
    lowest-index model that voted with the majority.
    """
    n_arms = correct.shape[1]
    hits = correct.sum(axis=1, dtype=np.int64)
    right = (2 * hits > n_arms) | ((2 * hits == n_arms) & (correct[:, 0] == 1))
    consensus = np.maximum(hits, n_arms - hits) / n_arms
    return right, consensus, np.argmax(correct == right[:, None], axis=1)


def majority_correct_prob(probs: Sequence[float]) -> float:
    """Exact accuracy of majority voting given per-model correctness rates.

    The number of correct votes among models 1..N-1 is Poisson-binomial,
    built by repeated convolution in O(N^2).  A tie is resolved by model 0's
    vote, matching the replay rule, so that count is split on model 0's bit.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[0]
    others = np.ones(1)  # others[k]: P(k of models 1..N-1 are correct)
    for q in probs[1:]:
        others = np.convolve(others, [1.0 - q, q])
    hits = np.arange(n)
    right = others[2 * (hits + 1) >= n].sum()
    wrong = others[2 * hits > n].sum()
    return float(probs[0] * right + (1.0 - probs[0]) * wrong)


def _step_rewards(run: _Replay, bits: np.ndarray, chosen: np.ndarray, correct: np.ndarray):
    """(raw rewards, rewards, quantile bounds or None) of one bandit step.

    The chosen annotations' surrogate losses come from one vector draw; the
    advantage variants draw all of the step's comparison losses in one more.
    """
    losses = surrogate_pair_loss(bits, run.loss_rng)
    variant = run.config.reward_variant
    if variant == "batch_quantile":
        raw = batch_baseline_array(losses)
        return (raw, *normalize_step_rewards(raw, run.history))
    if variant == "neg_loss":
        return -losses, -losses, None
    rows = np.arange(len(chosen))
    if variant == "full_advantage":  # the mean over all models, the chosen one included
        comparison = surrogate_pair_loss(correct, run.loss_rng)
        comparison[rows, chosen] = losses
    else:  # light_advantage
        picks = sample_comparators(run.n_arms, chosen, run.config.light_c, run.comp_rng)
        comparison = surrogate_pair_loss(correct[rows[:, None], picks], run.loss_rng)
    raw = advantage_rewards(losses, comparison)
    return raw, raw, None


class _StepColumns(NamedTuple):
    """One bandit step's logged values, shared by its decision and reward rows.

    ``step``, ``q_lo`` and ``q_hi`` hold for the whole step; every other
    field has one entry per pair of the batch.
    """

    step: int
    pair_id: list[str]
    chosen_arm: np.ndarray  # (B,)
    sampled_scores: np.ndarray | None  # (B, N)
    raw_reward: np.ndarray  # (B,)
    normalized_reward: np.ndarray  # (B,)
    q_lo: float | None
    q_hi: float | None


_STEP_FIELDS = ("step", "q_lo", "q_hi")


class _LogRow(Mapping):
    """Read-only view of pair ``i`` of a step's columns.

    Every value is a plain int, float, str, None or list of floats, so a row
    equals the dict of its items; it pickles as its (columns, i), and the
    columns go once per step however many rows refer to them.
    """

    __slots__ = ("_columns", "_i")
    KEYS: tuple[str, ...] = ()

    def __init__(self, columns: _StepColumns, i: int):
        self._columns = columns
        self._i = i

    def __getitem__(self, key: str):
        if key not in self.KEYS:
            raise KeyError(key)
        column = getattr(self._columns, key)
        if key in _STEP_FIELDS:
            return column
        value = column[self._i]
        return value if isinstance(value, str) else value.tolist()

    def __iter__(self) -> Iterator[str]:
        return iter(self.KEYS)

    def __len__(self) -> int:
        return len(self.KEYS)

    def __reduce__(self):
        return type(self), (self._columns, self._i)

    def __repr__(self) -> str:
        return repr(dict(self))


class DecisionRow(_LogRow):
    __slots__ = ()
    KEYS = ("step", "pair_id", "chosen_arm", "sampled_scores")


class RewardRow(_LogRow):
    __slots__ = ()
    KEYS = ("step", "pair_id", "raw_reward", "normalized_reward", "q_lo", "q_hi")


def run_replay(
    router: str,
    dataset: SimDataset,
    config: ReplayConfig | None = None,
    decision_log: list | None = None,
    reward_log: list | None = None,
    final_state_out: list | None = None,
) -> RunMetrics:
    """Replay the labelled stream through one routing strategy.

    Each step routes a batch of context rows to an array of chosen arms; a
    bandit then gets a rewards array built from surrogate losses of its chosen
    annotations.  All strategies share the same frozen dataset, so runs with
    equal seeds are paired across strategies.  ``decision_log`` and
    ``reward_log`` receive one read-only row mapping per routed pair
    (:class:`DecisionRow`, :class:`RewardRow`), equal to the dict of plain
    values it reads from its step's columns.  ``final_state_out`` receives a
    bandit router's final state once every arm passes the full belief check;
    an arm that fails it raises InvariantError.
    """
    config = config or ReplayConfig()
    scenario = dataset.scenario
    kind, param, prior = check_run(router, scenario, config)
    spec = ROUTERS[kind]
    stream = dataset.stream
    n_arms, d = scenario.n_arms, scenario.d
    batch_size, n_steps = scenario.pairs_per_step, scenario.n_steps
    if stream.n != batch_size * n_steps:
        raise ConfigError("stream size does not match pairs_per_step * n_steps")

    seed_rng = np.random.default_rng(config.seed)
    rngs = [np.random.default_rng(seed_rng.integers(2**63)) for _ in range(3)]
    run = _Replay(
        config, param, n_arms, d, stream.clusters, dataset.profiles, prior, *rngs,
        RewardHistory(),
    )
    state = spec.start(run)
    calls = 1  # reward-model calls per pair
    if spec.group == "ensemble":
        bits_all, consensus, chosen_all = _majority_votes(stream.correct)
        probs = [majority_correct_prob(dataset.profiles[:, c]) for c in range(scenario.n_clusters)]
        expected = np.array(probs)[stream.clusters]
        calls = n_arms
    else:
        if spec.observe is not None:
            comparators = {"full_advantage": n_arms - 1, "light_advantage": config.light_c}
            calls += comparators.get(config.reward_variant, 0)
        chosen_all = np.empty(stream.n, dtype=np.int64)
        bits_all = np.empty(stream.n, dtype=np.uint8)
        for step in range(n_steps):
            rows = slice(step * batch_size, (step + 1) * batch_size)
            contexts = stream.contexts[rows]
            chosen, scores = spec.route(state, run, contexts, rows)
            correct = stream.correct[rows]
            chosen_all[rows] = chosen
            bits_all[rows] = bits = correct[np.arange(batch_size), chosen]
            if spec.observe is None:
                continue
            raw, rewards, bounds = _step_rewards(run, bits, chosen, correct)
            state = spec.observe(state, contexts, chosen, rewards)
            if decision_log is None and reward_log is None:
                continue
            ids = list(map(stream.pair_id, range(rows.start, rows.stop)))
            q_lo, q_hi = bounds or (None, None)
            columns = _StepColumns(step, ids, chosen, scores, raw, rewards, q_lo, q_hi)
            if decision_log is not None and scores is not None:
                decision_log.extend(map(DecisionRow, repeat(columns), range(batch_size)))
            if reward_log is not None:
                reward_log.extend(map(RewardRow, repeat(columns), range(batch_size)))
        expected = dataset.profiles[chosen_all, stream.clusters]

    # summed per step, then accumulated in step order: the traces equal a step-by-step sum
    per_step = (n_steps, batch_size)
    regret = (dataset.profiles.max(axis=0)[stream.clusters] - expected).reshape(per_step)
    hits = bits_all.reshape(per_step).sum(axis=1)
    uwo = np.cumsum(consensus.reshape(per_step).sum(axis=1))[-1] if kind == "uwo" else None
    metrics = RunMetrics(
        router=router,
        seed=config.seed,
        routing_accuracy_per_step=(hits / batch_size).tolist(),
        cumulative_regret=np.cumsum(regret.sum(axis=1)).tolist(),
        arm_selection_counts=np.bincount(chosen_all, minlength=n_arms),
        final_annotation_accuracy=int(hits.sum()) / stream.n,
        rm_calls_per_step=[calls * batch_size] * n_steps,
        mean_uwo_weight=None if uwo is None else float(uwo) / stream.n,
    )
    metrics.validate(batch_size, n_steps)
    if final_state_out is not None and isinstance(state, OnlineRouterState):
        for n, arm in enumerate(state.arms):  # the full check that updates skip
            try:
                arm.validate()
            except RouterError as exc:
                raise InvariantError(f"arm {n} ends the replay with an invalid belief: {exc}")
        final_state_out.append(state)
    return metrics


# ---------------------------------------------------------------------------
# cross-run comparison


@dataclass
class ComparisonReport:
    baseline: str
    methods: list[str]
    seeds: list[int]
    accuracies: dict[str, np.ndarray]  # per method, aligned with seeds
    deltas: dict[str, np.ndarray]
    summary: list[dict]

    def to_text(self) -> str:
        width = max(len(m) for m in self.methods)
        header = (
            f"{'router'.ljust(width)}  mean_acc   mean_delta  ci95_lo    ci95_hi"
        )
        rows = [header, "-" * len(header)]
        for entry in self.summary:
            rows.append(
                f"{entry['router'].ljust(width)}  "
                f"{entry['mean_accuracy']:+.4f}    {entry['mean_delta']:+.4f}     "
                f"{entry['ci_lo']:+.4f}    {entry['ci_hi']:+.4f}"
            )
        return "\n".join(rows) + "\n"


def compare_runs(
    metrics: Sequence,
    baseline: str | int,
    n_boot: int = 10000,
    seed: int = 0,
) -> ComparisonReport:
    """Paired per-seed comparison of final annotation accuracies.

    ``metrics`` may be RunMetrics or any objects carrying router, seed and
    final_annotation_accuracy.  ``baseline`` is a router name, or the index
    of a router in order of first appearance; InputError if it names none.
    All routers must cover the same seed set.  Bootstrap confidence
    intervals resample seeds with replacement, drawn from ``seed`` (>= 0).
    """
    rng = np.random.default_rng(int_field(seed, "seed", ConfigError, minimum=0))
    n_boot = int_field(n_boot, "n_boot", ConfigError, minimum=1)
    if len(metrics) < 2:
        raise InputError("need at least two runs to compare")
    methods: list[str] = []
    by_method: dict[str, dict[int, float]] = {}
    for m in metrics:
        if m.router not in by_method:
            methods.append(m.router)
            by_method[m.router] = {}
        if m.seed in by_method[m.router]:
            raise InputError(f"duplicate run for router {m.router!r}, seed {m.seed}")
        accuracy = m.final_annotation_accuracy
        by_method[m.router][m.seed] = real_field(accuracy, "accuracy", InputError, at_most=1.0)
    if not isinstance(baseline, str):
        index = int_field(baseline, "baseline index", InputError, minimum=0)
        if index >= len(methods):
            raise InputError(f"baseline index {baseline} out of range")
        baseline = methods[index]
    if baseline not in methods:
        raise InputError(f"baseline {baseline!r} not among routers {methods}")
    seed_set = set(by_method[baseline])
    for method in methods:
        if set(by_method[method]) != seed_set:
            raise InputError(f"router {method!r} does not cover the same seeds as {baseline!r}")
    seeds = sorted(seed_set)
    accuracies = {
        method: np.array([by_method[method][s] for s in seeds]) for method in methods
    }
    deltas = {method: accuracies[method] - accuracies[baseline] for method in methods}

    n_seeds = len(seeds)
    summary = []
    for method in methods:
        delta = deltas[method]
        if method == baseline:
            ci_lo = ci_hi = 0.0
        else:
            idx = rng.integers(0, n_seeds, size=(n_boot, n_seeds))
            boot_means = delta[idx].mean(axis=1)
            ci_lo = float(np.percentile(boot_means, 2.5))
            ci_hi = float(np.percentile(boot_means, 97.5))
        summary.append(
            {
                "router": method,
                "mean_accuracy": float(accuracies[method].mean()),
                "mean_delta": float(delta.mean()),
                "ci_lo": ci_lo,
                "ci_hi": ci_hi,
            }
        )
    return ComparisonReport(
        baseline=baseline,
        methods=methods,
        seeds=seeds,
        accuracies=accuracies,
        deltas=deltas,
        summary=summary,
    )
