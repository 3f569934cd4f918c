"""Smoke test: every demo runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-6]_*.py"))
CLI_DEMO = ROOT / "demos" / "07_cli_pipeline.sh"


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_demo_exits_0(tmp_path):
    # the demo calls the installed ``rmrouter`` entry point; a shim on PATH
    # stands in for it, running the CLI module from the source tree
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "rmrouter"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m rmrouter.cli "$@"\n')
    shim.chmod(0o755)
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
    }
    proc = subprocess.run(
        ["bash", str(CLI_DEMO)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "thompson" in proc.stdout
