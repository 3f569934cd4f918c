"""The canonical writer against its former convert-then-dump form: the same
bytes for every document that form could write; and the one check that every
versioned document reader makes first."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrouter.cli import _load_prior
from rmrouter.errors import ConfigError, FormatError
from rmrouter.features import FusionParams
from rmrouter.gaussian import make_prior, posterior_from_dict, posterior_to_dict
from rmrouter.offline import OfflineRouterModel, model_from_dict, model_to_dict
from rmrouter.online import init_router, state_from_dict, state_to_dict
from rmrouter.serialize import dumps_doc, dumps_line, write_json
from rmrouter.sim import (
    ReplayConfig,
    generate_scenario,
    run_replay,
    scenario_from_dict,
    scenario_to_dict,
)

from scenarios import two_specialists_scenario


def jsonable(obj):
    """The writer's former conversion pass, run over the whole document first."""
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def reference_doc(obj):
    return json.dumps(jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def reference_line(obj):
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def log_rows():
    decision_log, reward_log = [], []
    dataset = generate_scenario(two_specialists_scenario(3, 2, offline_pairs=0), 5)
    run_replay("thompson", dataset, ReplayConfig(seed=5), decision_log, reward_log)
    return decision_log + reward_log


ROWS = log_rows()
finite = st.floats(allow_nan=False, allow_infinity=False)
finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)

# each draw is (document, what the former writer was given for it): a log row
# stood for its dict, and a bare numpy bool, which the former writer refused,
# for the Python bool it is now written as
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    finite,
    st.text(max_size=5),
    finite.map(np.float64),
    finite32.map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
).map(lambda x: (x, x)) | st.booleans().map(lambda b: (np.bool_(b), b)) | st.one_of(
    st.lists(finite, max_size=4).map(np.array),
    st.lists(st.lists(finite, min_size=2, max_size=2), max_size=3).map(np.array),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(
        lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda xs: np.array(xs, dtype=bool)),
    st.lists(finite32, max_size=4).map(lambda xs: np.array(xs, dtype=np.float32)),
).map(lambda x: (x, x)) | st.sampled_from(ROWS).map(lambda row: (row, dict(row)))


def containers(children):
    pairs = st.lists(children, max_size=4)
    return st.one_of(
        pairs.map(lambda items: ([x for x, _ in items], [r for _, r in items])),
        pairs.map(lambda items: (tuple(x for x, _ in items), tuple(r for _, r in items))),
        st.dictionaries(st.text(max_size=4), children, max_size=4).map(
            lambda d: ({k: x for k, (x, _) in d.items()}, {k: r for k, (_, r) in d.items()})),
    )


documents = st.recursive(leaves, containers, max_leaves=20)


@settings(deadline=None, max_examples=400)
@given(documents)
def test_writer_bytes_match_the_former_writer(pair):
    doc, former = pair
    assert dumps_line(doc) == reference_line(former)
    assert dumps_doc(doc) == reference_doc(former)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
WRAPS = [float, np.float64, np.float32, lambda x: np.array([[1.0, x]]),
         lambda x: {"a": [0, (x,)]}]


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(NON_FINITE), st.sampled_from(WRAPS))
def test_non_finite_values_are_refused(value, wrap):
    doc = wrap(value)
    for dumps in (dumps_line, dumps_doc, reference_line, reference_doc):
        with pytest.raises(ValueError):
            dumps(doc)


def model_doc():
    rng = np.random.default_rng(0)
    fusion = FusionParams.random_init(3, 2, rng)
    model = OfflineRouterModel(fusion, rng.standard_normal((2, 3)), rng.standard_normal((2, 3)),
                               0.2, 2)
    return model_to_dict(model)


# (reader, a valid document); each reader takes the parsed document, and the
# prior file's reader takes the path of a file holding it
READERS = {
    "posterior": (posterior_from_dict, lambda: posterior_to_dict(make_prior(2))),
    "state": (state_from_dict, lambda: state_to_dict(init_router(2, 2))),
    "model": (model_from_dict, model_doc),
    "scenario": (scenario_from_dict, lambda: scenario_to_dict(two_specialists_scenario())),
    "prior": (None, lambda: {"version": 1, "n_arms": 2, "d": 2, "bt_embeddings": np.eye(2)}),
}


def read_with(name, doc, tmp_path):
    reader, _ = READERS[name]
    if reader is not None:
        return reader(doc)
    path = tmp_path / "prior.json"
    write_json(path, doc)
    return _load_prior(str(path))


@pytest.mark.parametrize("name", READERS)
class TestVersionedDocuments:
    def test_valid_document_reads(self, name, tmp_path):
        read_with(name, json.loads(dumps_doc(READERS[name][1]())), tmp_path)

    @pytest.mark.parametrize("doc", [[1], "version", 5, None])
    def test_non_object_is_a_format_error(self, name, doc, tmp_path):
        with pytest.raises(FormatError, match="must be a JSON object"):
            read_with(name, doc, tmp_path)

    @pytest.mark.parametrize("version", [99, None, "1", 1.5, True])
    def test_unsupported_version_is_a_config_error(self, name, version, tmp_path):
        doc = json.loads(dumps_doc(READERS[name][1]()))
        if version is None:
            del doc["version"]
        else:
            doc["version"] = version
        with pytest.raises(ConfigError, match=f"unsupported .* version {version!r}; supported: 1"):
            read_with(name, doc, tmp_path)
