"""The canonical writer against its former convert-then-dump form: the same
bytes for every document that form could write; the CSV writer and reader
as a round trip; the readers' one error rule for damaged bytes; the one
check that every versioned document reader makes; and the rule that no
other module opens a file or parses JSON or CSV itself."""

import ast
import json
from pathlib import Path

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
import rmrouter
from rmrouter.serialize import (
    check_document,
    dumps_doc,
    dumps_line,
    iter_csv,
    iter_jsonl,
    read_json,
    write_csv,
    write_json,
)
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


# a CSV cell and the text it reads back as: a string without delimiters, quotes
# or a leading "#", an int, a float (Python's or numpy's) by its shortest
# round-trip repr, and None as an empty field
cells = st.one_of(
    st.text(alphabet="abz09:-_. ", max_size=6).map(lambda t: (t, t)),
    st.integers(-(2**70), 2**70).map(lambda n: (n, str(n))),
    finite.map(lambda x: (x, repr(x))),
    finite.map(np.float64).map(lambda x: (x, repr(float(x)))),
    st.none().map(lambda x: (x, "")),
)


@settings(deadline=None, max_examples=200)
@given(n_columns=st.integers(1, 4), data=st.data())
def test_csv_rows_read_back_as_written(n_columns, data, tmp_path_factory):
    header = [f"column{i}" for i in range(n_columns)]
    table = data.draw(st.lists(st.lists(cells, min_size=n_columns, max_size=n_columns)))
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, "a comment", header, [[value for value, _ in row] for row in table])
    assert path.read_text(encoding="utf-8").startswith("# a comment\n" + ",".join(header))
    read = list(iter_csv(path))
    assert [lineno for lineno, _ in read] == list(range(3, 3 + len(table)))
    for (_, got), row in zip(read, table):
        assert got == dict(zip(header, (text for _, text in row)))
        for (value, _), text in zip(row, got.values()):
            if isinstance(value, float):
                assert float(text) == value


def test_csv_reader_skips_comment_lines_and_refuses_a_missing_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# one\na,b\n# two\n1,x\n", encoding="utf-8")
    assert list(iter_csv(path)) == [(4, {"a": "1", "b": "x"})]
    with pytest.raises(FormatError, match="no such file"):
        list(iter_csv(tmp_path / "missing.csv"))


def test_csv_reader_names_the_line_of_a_field_past_the_limit(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text('# comment\na,b\n1,2\n"' + "x" * 200_000 + '",3\n', encoding="utf-8")
    with pytest.raises(FormatError, match=r"field larger than field limit .*\(line 4\)"):
        list(iter_csv(path))


# damaged bytes and the start of the FormatError each reader raises for them
DAMAGED = {
    "not-utf8": (b'\xff\xfe{"a": 1}\n', "is not UTF-8 text"),
    "deep-nesting": (b"[" * 200_000 + b"]" * 200_000 + b"\n", "invalid JSON in .*recursion"),
    "long-integer": (b'{"a": ' + b"1" * 5000 + b"}\n", "invalid JSON in .*digits"),
    "syntax": (b'{"a": }\n', "invalid JSON in .*Expecting value"),
}
JSON_READERS = {"read_json": read_json, "iter_jsonl": lambda path: list(iter_jsonl(path))}


@pytest.mark.parametrize("damage", DAMAGED)
@pytest.mark.parametrize("reader", JSON_READERS)
def test_damaged_json_is_a_format_error(tmp_path, reader, damage):
    data, message = DAMAGED[damage]
    path = tmp_path / "damaged.json"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        JSON_READERS[reader](path)


@pytest.mark.parametrize("reader", [*JSON_READERS.values(), lambda path: list(iter_csv(path))])
def test_missing_file_is_a_format_error(tmp_path, reader):
    with pytest.raises(FormatError, match="no such file"):
        reader(tmp_path / "missing")


def test_non_utf8_csv_is_a_format_error(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"# comment\na,b\n1,\xff\n")
    with pytest.raises(FormatError, match="is not UTF-8 text"):
        list(iter_csv(path))


def test_jsonl_errors_name_the_path_and_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"_meta": {}}\n\n{"a": 1}\n{"a": \n', encoding="utf-8")
    with pytest.raises(FormatError, match=r"invalid JSON in .*rows\.jsonl: .*\(line 4\)"):
        list(iter_jsonl(path))
    path.write_text('{"a": 1}\n[1]\n', encoding="utf-8")
    with pytest.raises(FormatError, match=r"row of .* must be a JSON object \(line 2\)"):
        list(iter_jsonl(path))
    path.write_text('{"_meta": {}}\n\n{"a": 1}\n', encoding="utf-8")
    assert list(iter_jsonl(path)) == [(3, {"a": 1})]


@pytest.mark.parametrize("error", [FormatError, ConfigError])
def test_document_block_maps_bad_values_to_one_error(error):
    doc = {"version": 1}
    with pytest.raises(error, match=r"^malformed thing: KeyError\('x'\)$"):
        with check_document(doc, "thing", 1, error) as checked:
            checked["x"]
    with pytest.raises(error, match=r"^malformed thing: ValueError\("):
        with check_document(doc, "thing", 1, error):
            int("x")
    with pytest.raises(ZeroDivisionError):  # not a value of the wrong kind
        with check_document(doc, "thing", 1, error):
            1 / 0


def test_only_serialize_opens_files_or_imports_json_and_csv():
    """One way in and one way out: no other module opens a file, or imports
    json or csv to parse or write one."""
    offences = []
    for path in sorted(Path(rmrouter.__file__).parent.glob("*.py")):
        if path.name == "serialize.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                    offences.append(f"{path.name}:{node.lineno} calls open(")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names] if isinstance(node, ast.Import) \
                    else [node.module or ""]
                offences += [f"{path.name}:{node.lineno} imports {module}" for module in modules
                             if module.split(".")[0] in ("json", "csv")]
    assert not offences


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
