"""Smoke tests of the benchmark at tiny sizes (a few seconds in all).

They live outside the package's test suite; run them from the repository
root with ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload: wl.Workload) -> wl.Workload:
    return dataclasses.replace(workload, n_steps=4, offline_pairs=64)


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name, workload in list(wl.WORKLOADS.items()):
        monkeypatch.setitem(wl.WORKLOADS, name, tiny(workload))


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_rounds_pass_their_checks(name):
    workload = tiny(wl.WORKLOADS[name])
    inputs = wl.setup(workload, 3)
    reference = wl.run_round(workload, inputs, 3, logs=True)
    assert wl.check_reference_round(workload, inputs, reference) == [
        [] for _ in range(workload.train_calls + len(workload.replays))
    ]
    again = wl.run_round(workload, inputs, 3)
    assert all(not errors for errors in wl.check_repeat_round(reference, again))


@pytest.mark.parametrize("name", ["stream-long", "suite-mixed"])
def test_perturbed_posterior_fails_the_check(name):
    workload = tiny(wl.WORKLOADS[name])
    inputs = wl.setup(workload, 5)
    outcome = wl.run_round(workload, inputs, 5, logs=True).replays[0]
    assert wl.check_posterior(inputs.dataset, outcome) == []
    arm = outcome.state.arms[1]
    arm.mean = arm.mean + 1e-6 * np.ones_like(arm.mean)
    errors = wl.check_posterior(inputs.dataset, outcome)
    assert len(errors) == 1 and errors[0].startswith("arm 1:")


def test_wrong_call_count_fails_the_check():
    workload = tiny(wl.WORKLOADS["suite-mixed"])
    inputs = wl.setup(workload, 1)
    result = wl.run_round(workload, inputs, 1)
    majority = next(r for r in result.replays if r.replay.router == "majority")
    assert wl.check_calls(majority, inputs.dataset.stream.n) == []
    majority.metrics.rm_calls_per_step[0] -= 1
    assert wl.check_calls(majority, inputs.dataset.stream.n)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_run_reports_every_metric(tiny_workloads, name, trace):
    result, details = bench_run.run(name, seed=2, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        key: metric["unit"] for key, metric in result["metrics"].items()
    }
    if trace:
        assert details["absent"] == []
        assert result["metrics"]["sim.run_replay.calls"]["value"] == len(
            wl.WORKLOADS[name].replays
        )
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_lists_missing_functions_and_restores_the_rest():
    import rmrouter.gaussian as gaussian
    import rmrouter.online as online

    original = gaussian.sample_weights
    tracer = Tracer(["gaussian.sample_weights", "gaussian.no_such_function", "nomodule.f"])
    tracer.install()
    try:
        assert gaussian.sample_weights is not original
        assert online.sample_weights is gaussian.sample_weights
    finally:
        tracer.uninstall()
    assert tracer.absent == ["gaussian.no_such_function", "nomodule.f"]
    assert gaussian.sample_weights is original and online.sample_weights is original


def test_self_time_excludes_children():
    tracer = Tracer([])
    mark = tracer.mark()
    outer = tracer._open("a")
    inner = tracer._open("b")
    tracer._close(inner)
    tracer._close(outer)
    tracer.spans[0][1:3] = [0.0, 3.0]
    tracer.spans[1][1:3] = [1.0, 2.0]
    summary = tracer.summary(mark)
    assert summary["a.self_s"] == 2.0 and summary["a.total_s"] == 3.0
    assert summary["b.self_s"] == 1.0
    assert tracer.spans[1][3] == 0 and tracer.spans[0][4] == tracer.spans[1][4]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "stream-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
