"""Output identity check: run a fixed matrix of rmrouter commands and write a
sha256 manifest of everything they print and write.

Usage: python tools/cli_matrix.py OUT_DIR

The matrix runs on the benchmark's two workload scenarios
(``bench/workloads.make_scenario``) at seeds 3 and 7: collect-behavior on
both splits; train-offline from the embeddings (with and without momentum)
and from hashed text; export-prior; inspect of both models and of a final
router state; run-sim --router all with and without the exported prior,
with --jobs 2 over two seeds, and with each reward variant; compare; and
every --help.  Commands run in-process from the ``src/`` next to this
directory, with OUT_DIR as the working directory and relative paths, so
the manifests of two checkouts compare line for line:
``diff A/manifest.txt B/manifest.txt`` lists the outputs a change moved.
Each command's stdout is kept as a file under ``stdout/`` and hashed with
the rest; the manifest's command lines give each one's exit code.  The
script exits 1 if any command exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (3, 7)


def commands(d: str, seed: int) -> list[list[str]]:
    """The matrix for the scenario file ``{d}.json`` of one seed; outputs go to ``{d}/``."""
    train = ["train-offline", "--dataset", f"{d}/off/dataset.jsonl",
             "--behavior", f"{d}/off/behavior.jsonl", "--seed", str(seed)]
    embeddings = ["--embeddings", f"{d}/off/embeddings.jsonl",
                  "--lr", "0.5", "--epochs", "40", "--batch-size", "64"]
    run_sim = ["run-sim", "--scenario", f"{d}.json", "--router", "all"]
    prior = ["--prior-file", f"{d}/prior.json"]
    out = [
        ["collect-behavior", "--scenario", f"{d}.json", "--seed", str(seed),
         "--split", "offline", "--out-dir", f"{d}/off"],
        ["collect-behavior", "--scenario", f"{d}.json", "--seed", str(seed),
         "--split", "stream", "--out-dir", f"{d}/stream"],
        train + embeddings + ["--out", f"{d}/model.json", "--loss-csv", f"{d}/loss.csv"],
        train + embeddings + ["--momentum", "0.9", "--out", f"{d}/model_momentum.json",
                              "--loss-csv", f"{d}/loss_momentum.csv"],
        train + ["--out", f"{d}/model_text.json", "--loss-csv", f"{d}/loss_text.csv"],
        ["export-prior", "--model", f"{d}/model.json", "--out", f"{d}/prior.json"],
        ["inspect", f"{d}/model.json"],
        ["inspect", f"{d}/model_text.json"],
        run_sim + prior + ["--out-dir", f"{d}/runs_prior"],
        ["inspect", f"{d}/runs_prior/thompson-injected_{seed}.state.json"],
        ["compare", "--summary", f"{d}/runs_prior/summary.csv", "--baseline", "random",
         "--out", f"{d}/report.csv"],
        run_sim + ["--out-dir", f"{d}/runs_zero"],
        run_sim + prior + ["--seeds", f"{seed},{seed + 1}", "--jobs", "2",
                           "--out-dir", f"{d}/runs_jobs"],
    ]
    for variant in ("neg_loss", "full_advantage", "light_advantage"):  # batch_quantile: above
        out.append(run_sim + prior + ["--reward-variant", variant,
                                      "--out-dir", f"{d}/runs_{variant}"])
    return out


def run_matrix(out_dir: str | os.PathLike, scenarios: dict) -> int:
    """Run the matrix on ``scenarios`` (file stem -> (SimScenario, seed)) in
    ``out_dir``, write ``manifest.txt`` there and return the count of
    commands that exited non-zero."""
    from rmrouter.cli import build_parser, main
    from rmrouter.serialize import write_json
    from rmrouter.sim import scenario_to_dict

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    matrix = [["--help"]] + [[name, "--help"] for name in subparsers.choices]
    os.makedirs(out_dir, exist_ok=True)
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "100"  # --help wraps at the terminal width
    os.chdir(out_dir)
    try:
        for stem, (scenario, seed) in scenarios.items():
            write_json(f"{stem}.json", scenario_to_dict(scenario))
            matrix += commands(stem, seed)
        os.makedirs("stdout", exist_ok=True)
        lines, failed = [], 0
        for i, argv in enumerate(matrix):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            failed += code != 0
            Path(f"stdout/{i:03d}.txt").write_text(stdout.getvalue(), encoding="utf-8")
            lines.append(f"exit {code}  stdout/{i:03d}.txt  rmrouter {' '.join(argv)}")
        files = sorted(p for p in Path(".").rglob("*") if p.is_file() and p.name != "manifest.txt")
        lines += [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.as_posix()}" for p in files]
        Path("manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return failed


def bench_scenarios() -> dict:
    """Both benchmark workloads' scenarios at each seed in SEEDS."""
    import workloads

    return {
        f"{name}_{seed}": (workloads.make_scenario(workload, seed), seed)
        for name, workload in workloads.WORKLOADS.items()
        for seed in SEEDS
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    failed = run_matrix(args.out_dir, bench_scenarios())
    print(f"manifest written to {os.path.join(args.out_dir, 'manifest.txt')}; "
          f"{failed} command(s) exited non-zero")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
