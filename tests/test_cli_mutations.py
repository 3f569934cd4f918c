"""CLI input mutations: a damaged state, prior, model or scenario document, a
damaged dataset, behaviour or embeddings file, or a bad integer option, ends
in exit code 0, 1 or 2, never in an uncaught exception, and an exit 0 writes
only finite numbers.

Integer options that size an allocation, a loop or a process pool
(``--epochs``, ``--embed-dim``, ``--encoder-dim``, ``--n-boot``, ``--jobs``)
get only zero and negative values here: a huge one is valid, and would run
for hours, exhaust memory or start worker processes instead of failing.
"""

import copy
import csv
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rmrouter.cli import main
from rmrouter.features import FusionParams, save_dataset, save_embeddings
from rmrouter.offline import OfflineRouterModel, model_to_dict, save_behavior
from rmrouter.online import init_router, observe_feedback, state_to_dict
from rmrouter.serialize import write_json
from rmrouter.sim import generate_scenario, scenario_to_dict

from scenarios import two_specialists_scenario

D = 8  # the scenario's context dimension
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
REPLACEMENTS = NON_FINITE + [1e308, -1e308, 10**30, -(10**30), -1, -7.5, 0, "x", None, True,
                             [], {}, [[1.0], [1.0, 2.0]]]
MUTATIONS = ("drop", "replace", "ragged")
SCENARIO = two_specialists_scenario(8, 4, offline_pairs=12, seeds=[1])
JSONL = ("dataset", "behavior", "embeddings")  # one document per line, mutated as a list


def data_files():
    """The offline split's dataset, behaviour and embeddings files, as lists of lines."""
    split = generate_scenario(SCENARIO, 1).offline
    ids = list(map(split.pair_id, range(split.n)))
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(os.path.join(tmp, "dataset.jsonl"), split.pairs)
        save_behavior(os.path.join(tmp, "behavior.jsonl"), ids, split.correct, meta={"seed": 1})
        save_embeddings(os.path.join(tmp, "embeddings.jsonl"), split.embeddings)
        files = {}
        for kind in JSONL:
            with open(os.path.join(tmp, f"{kind}.jsonl"), encoding="utf-8") as fh:
                files[kind] = [json.loads(line) for line in fh]
        return files


def base_documents():
    rng = np.random.default_rng(0)
    state = init_router(2, 3, "injected", rng.standard_normal((2, 3)), 0.5, 0.1)
    state = observe_feedback(state, rng.standard_normal((4, 3)), [0, 1, 1, 0], np.ones(4))
    fusion = FusionParams.random_init(3, 2, rng, 0.1)
    model = OfflineRouterModel(fusion, rng.standard_normal((2, 3)), rng.standard_normal((2, 3)),
                               0.2, 2, {"seed": 1, "epochs": 2, "final_loss": 0.5})
    prior = {"version": 1, "n_arms": 2, "d": D,
             "bt_embeddings": rng.standard_normal((2, D)).tolist()}
    return {"state": state_to_dict(state), "model": model_to_dict(model), "prior": prior,
            "scenario": scenario_to_dict(SCENARIO), **data_files()}


def write_document(folder, kind, doc):
    """Write ``doc`` as the ``kind`` file in ``folder``; NaN and Infinity are written
    as json.dump writes them."""
    path = os.path.join(folder, f"{kind}.jsonl" if kind in JSONL else f"{kind}.json")
    lines = doc if kind in JSONL and isinstance(doc, list) else [doc]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)
    return path


DOCUMENTS = base_documents()


def paths(node, prefix=()):
    """Every position in a JSON document, the document itself first."""
    yield prefix
    children = node.items() if isinstance(node, dict) else ()
    if isinstance(node, list):
        children = enumerate(node)
    for key, child in children:
        yield from paths(child, prefix + (key,))


def mutated(doc, path, how, replacement):
    doc = copy.deepcopy(doc)
    if not path:
        return replacement
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "drop":
        del parent[key]
    elif how == "replace":
        parent[key] = replacement
    else:  # ragged: a list loses its last item, a scalar becomes a list
        node = parent[key]
        parent[key] = node[:-1] if isinstance(node, list) else [node, node]
    return doc


def commands(kind, files, out):
    doc_path = files[kind]
    if kind == "state":
        return [["inspect", doc_path]]
    if kind == "model":
        return [["inspect", doc_path], ["export-prior", "--model", doc_path, "--out", out]]
    if kind == "scenario":
        return [["collect-behavior", "--scenario", doc_path, "--out-dir", out],
                ["run-sim", "--scenario", doc_path, "--router", "random,thompson",
                 "--out-dir", out]]
    if kind in JSONL:
        train = ["train-offline", "--dataset", files["dataset"], "--behavior", files["behavior"],
                 "--out", out]
        text = [train] if kind == "dataset" else []  # hashed text contexts, no embeddings
        return [train + ["--embeddings", files["embeddings"]]] + text
    run = ["run-sim", "--scenario", files["scenario"], "--seeds", "1", "--prior-file", doc_path,
           "--out-dir", out]
    return [run + ["--router", "offline"], run + ["--router", "weighted:0.5"],
            run + ["--router", "thompson", "--prior", "injected"]]


def output_files(out):
    """The files a command wrote to ``out``, a file or a folder."""
    if os.path.isfile(out):
        return [out]
    return [os.path.join(folder, name) for folder, _, names in os.walk(out) for name in names]


def assert_finite_outputs(out, stdout):
    # the printed output path is a random temporary name, which may hold "nan"
    assert "nan" not in stdout.replace(out, "").lower().replace("n/a", "")
    for path in output_files(out):
        text = open(path, encoding="utf-8").read()
        if path.endswith(".csv"):
            rows = csv.reader(line for line in text.splitlines() if not line.startswith("#"))
            for cell in (cell for row in rows for cell in row):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (path, cell)
        else:  # JSON or JSONL: a NaN or an infinity would parse as a constant
            for line in text.splitlines() if path.endswith(".jsonl") else [text]:
                json.loads(line, parse_constant=lambda constant: reject(path, constant))


def reject(path, constant):
    raise AssertionError(f"{path} holds {constant}")


def run_main(args, capsys):
    capsys.readouterr()
    code = main(args)
    assert code in (0, 1, 2), (args, code)
    return code, capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # 1e308 inputs
@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(DOCUMENTS)), data=st.data())
def test_mutated_document(kind, data, capsys):
    doc = DOCUMENTS[kind]
    path = data.draw(st.sampled_from(list(paths(doc))), label="path")
    how = data.draw(st.sampled_from(MUTATIONS if path else ("replace",)), label="mutation")
    replacement = data.draw(st.sampled_from(REPLACEMENTS), label="replacement")
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: write_document(tmp, name, DOCUMENTS[name]) for name in DOCUMENTS}
        write_document(tmp, kind, mutated(doc, path, how, replacement))
        out = os.path.join(tmp, "out")
        for args in commands(kind, files, out):
            code, stdout = run_main(args, capsys)
            if code == 0:
                assert_finite_outputs(out, stdout)


INTEGER_OPTIONS = {
    # "command option": values beyond the valid range
    "collect-behavior --seed": ["-1", str(-(2**40)), str(2**70)],
    "train-offline --seed": ["-2", str(2**70)],
    "train-offline --batch-size": ["0", "-3", str(2**70)],
    "train-offline --epochs": ["0", "-1"],
    "train-offline --embed-dim": ["0", "-4"],
    "train-offline --encoder-dim": ["1", "0", "-4"],
    "run-sim --seeds": ["-5", "1,-1", str(2**70), "1.5"],
    "run-sim --light-c": ["0", "-2", str(2**70)],
    "run-sim --jobs": ["0", "-1"],
    "compare --seed": ["-1", str(2**70)],
    "compare --n-boot": ["0", "-1"],
}


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(option=st.sampled_from(sorted(INTEGER_OPTIONS)), data=st.data())
def test_integer_option(option, data, capsys):
    command, flag = option.split()
    value = data.draw(st.sampled_from(INTEGER_OPTIONS[option]), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "scenario.json")
        write_json(scenario, scenario_to_dict(
            two_specialists_scenario(8, 4, offline_pairs=40, seeds=[1])))
        data_dir = os.path.join(tmp, "data")
        assert main(["collect-behavior", "--scenario", scenario, "--out-dir", data_dir]) == 0
        summary = os.path.join(tmp, "summary.csv")
        with open(summary, "w", encoding="utf-8") as fh:
            fh.write("router,seed,final_annotation_accuracy\nrandom,1,0.5\nthompson,1,0.75\n")
        out = os.path.join(tmp, "report.csv" if command == "compare" else "out")
        args = {
            "collect-behavior": ["--scenario", scenario, "--out-dir", out],
            "train-offline": ["--dataset", f"{data_dir}/dataset.jsonl", "--behavior",
                              f"{data_dir}/behavior.jsonl", "--embeddings",
                              f"{data_dir}/embeddings.jsonl", "--out", out],
            "run-sim": ["--scenario", scenario, "--router", "random,thompson",
                        "--reward-variant", "light_advantage", "--light-c", "1",
                        "--out-dir", out],
            "compare": ["--summary", summary, "--baseline", "random", "--n-boot", "50",
                        "--out", out],
        }[command]
        if flag in ("--embed-dim", "--encoder-dim"):  # they size the fusion layer
            at = args.index("--embeddings")
            del args[at : at + 2]
        code, stdout = run_main([command, *args, f"{flag}={value}"], capsys)
        if code == 0:
            assert_finite_outputs(out, stdout)
