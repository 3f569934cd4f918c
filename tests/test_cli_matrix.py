"""Smoke test of tools/cli_matrix.py, the output identity check, at a tiny size."""

import importlib.util
import re
from pathlib import Path

from rmrouter.serialize import iter_csv

from scenarios import two_specialists_scenario

# a router name or spec: random, single:0, weighted:0.5, thompson-injected, ...
ROUTER_NAME = re.compile(r"[a-z]+(:[0-9.]+)?(-injected)?")

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_matrix.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_matrix_runs_and_reruns_identically(tmp_path):
    tool = load_tool()
    scenario = two_specialists_scenario(pairs_per_step=8, n_steps=4, offline_pairs=40,
                                        seeds=[5], n_filler_arms=2)
    manifests = []
    for run in ("a", "b"):
        assert tool.run_matrix(tmp_path / run, {"tiny": (scenario, 5)}) == 0
        manifests.append((tmp_path / run / "manifest.txt").read_text(encoding="utf-8"))
    assert manifests[0] == manifests[1]
    lines = manifests[0].splitlines()
    commands = [line for line in lines if line.startswith("exit ")]
    assert all(line.startswith("exit 0  ") for line in commands)
    assert any("rmrouter run-sim" in line and "--jobs 2" in line for line in commands)
    assert any(line.endswith("rmrouter --help") for line in commands)
    files = {line.split("  ", 1)[1] for line in lines if not line.startswith("exit ")}
    stdout_files = {f"stdout/{i:03d}.txt" for i in range(len(commands))}
    assert stdout_files <= files
    for name in ("tiny/model.json", "tiny/prior.json", "tiny/runs_prior/summary.csv",
                 "tiny/runs_light_advantage/thompson-injected_5.state.json", "tiny/report.csv"):
        assert name in files
    # no numpy repr in any output, and each CSV cell a plain value
    outputs = [p for p in (tmp_path / "a").rglob("*") if p.is_file()]
    assert not [p for p in outputs if re.search(rb"np\.(float|int)64\(", p.read_bytes())]
    tables = [p for p in outputs if p.suffix == ".csv"]
    assert {"loss.csv", "summary.csv", "report.csv"} <= {p.name for p in tables}
    for path in tables:
        cells = [text for _, row in iter_csv(path) for text in row.values()]
        assert cells and all(is_plain_cell(text) for text in cells), path


def is_plain_cell(text):
    """Empty, an int, a float by its shortest repr, or a router name or spec."""
    if text == "" or ROUTER_NAME.fullmatch(text) or re.fullmatch(r"-?[0-9]+", text):
        return True
    try:
        return repr(float(text)) == text
    except ValueError:
        return False
