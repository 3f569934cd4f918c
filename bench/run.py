"""rmrouter benchmark: replay throughput, offline training time and routing quality.

Run from the repository root:

    python3 bench/run.py --workload stream-long --seed 1 --seconds 56 --trace 0

The program under test is imported from ``src/`` next to this directory.
BLAS and OpenMP are pinned to one thread before numpy is loaded, and glibc's
heap thresholds are fixed.  The run generates its scenario from ``--seed``
(set-up, repeated), runs one untimed round with full output checks, then
repeats timed rounds for ``--seconds``, checking each against the first.
Each end-to-end timing is the fastest of its samples in the run.  With
``--trace 1`` it alternates untraced and traced rounds and reports per-layer
metrics instead of end-to-end ones; the spans go to ``.bench_out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# glibc mallopt parameters and the values they are fixed at
ALLOCATOR = {
    "M_MMAP_THRESHOLD": (-3, 32 << 20),
    "M_TRIM_THRESHOLD": (-1, 1 << 30),
    "M_TOP_PAD": (-2, 64 << 20),
}
MIN_TIMED_ROUNDS = 3
# set-up is short and the machine's speed drifts over seconds, so it is
# sampled after every timed round as well as before the first
MIN_SETUPS = 5
MIN_TRACED_ROUNDS = 2


def pin_threads() -> None:
    """Must run before numpy is imported: BLAS reads these once, at load."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pin_allocator() -> dict[str, bool]:
    """Fix glibc's heap thresholds; returns which settings took.

    By default glibc raises its mmap and trim thresholds as the process frees
    large blocks, so whether a call's temporaries reuse heap memory or
    page-fault on fresh memory (about 10^5 faults per training call) depends
    on everything the process allocated before.  Fixed thresholds keep freed
    memory in the heap, in every run.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return {}
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return {name: mallopt(param, value) == 1 for name, (param, value) in ALLOCATOR.items()}


def blas_threads_in_effect() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return found
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = int(fn())
                break
    return found


def machine_block(allocator: dict[str, bool]) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads_in_effect(),
        "allocator": {
            name: ALLOCATOR[name][1] if took else "default" for name, took in allocator.items()
        }
        or "default (not glibc)",
    }


class Tally:
    """Attempted and failed operations; every error is kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, ops: list[list[str]]) -> None:
        for errors in ops:
            self.attempted += 1
            if errors:
                self.failed += 1
                self.errors.extend(errors)


class Samples:
    """Per-round measurements of the timed region."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.setup_units: list[dict] = []  # traced set-ups
        self.pairs_per_s: list[float] = []  # untraced rounds
        self.train_s: list[float] = []  # untraced rounds
        self.traced_pairs_per_s: list[float] = []
        self.traced_units: list[dict] = []
        self.rounds = 0


def fastest(values, higher_is_faster: bool = False) -> float:
    """The best sample: the machine's interference only ever adds time, and
    it comes and goes over seconds, so the best of many samples spread over
    the run moves far less between runs than their median does."""
    values = [v for v in values if v is not None]
    if not values:
        return 0.0
    return float(max(values) if higher_is_faster else min(values))


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def round_pairs_per_s(workload, result) -> float | None:
    done = [r for r in result.replays if r.error is None]
    seconds = sum(r.seconds for r in done)
    return workload.stream_pairs * len(done) / seconds if done and seconds > 0 else None


def traced(tracer, fn):
    """Run fn() with the tracer installed; returns its result and the summary."""
    tracer.install()
    mark = tracer.mark()
    try:
        value = fn()
    finally:
        tracer.uninstall()
    return value, tracer.summary(mark)


def measure_setup(wl, workload, seed: int, samples: Samples, tracer):
    """One set-up sample; the traced run traces every set-up."""
    t0 = time.perf_counter()
    if tracer:
        inputs, unit = traced(tracer, lambda: wl.setup(workload, seed))
        samples.setup_units.append(unit)
    else:
        inputs = wl.setup(workload, seed)
    samples.setup_s.append(time.perf_counter() - t0)
    return inputs


def measure_rounds(wl, workload, inputs, seed, seconds, reference, tally, samples, tracer):
    """Timed rounds until ``seconds`` is used up; odd rounds are traced if tracing.

    A set-up sample follows each round; its result is dropped.
    """
    round_times = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer and samples.rounds % 2 == 1:
            result, unit = traced(tracer, lambda: wl.run_round(workload, inputs, seed))
            samples.traced_units.append(unit)
            samples.traced_pairs_per_s.append(round_pairs_per_s(workload, result))
        else:
            result = wl.run_round(workload, inputs, seed)
            samples.pairs_per_s.append(round_pairs_per_s(workload, result))
            samples.train_s.extend(t.seconds for t in result.trainings if t.error is None)
        tally.add(wl.check_repeat_round(reference, result))
        samples.rounds += 1
        measure_setup(wl, workload, seed, samples, tracer)
        now = time.perf_counter()
        round_times.append(now - round_start)
        if tracer:
            enough = min(len(samples.traced_units), len(samples.pairs_per_s)) >= MIN_TRACED_ROUNDS
        else:
            enough = len(samples.pairs_per_s) >= MIN_TIMED_ROUNDS
        # stop before a round that would end past the measuring time
        if enough and now - start + statistics.median(round_times) > seconds:
            return


def end_to_end_metrics(samples: Samples, quality: dict) -> dict:
    return {
        "pairs_per_s": (fastest(samples.pairs_per_s, higher_is_faster=True), "pairs/s"),
        "train_s": (fastest(samples.train_s), "s"),
        "setup_s": (fastest(samples.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "annotation_accuracy": (quality.get("annotation_accuracy", 0.0), "fraction"),
        "regret_per_pair": (quality.get("regret_per_pair", 0.0), "fraction"),
        "rm_calls_per_pair": (quality.get("rm_calls_per_pair", 0.0), "calls/pair"),
    }


def per_layer_metrics(layers, samples: Samples) -> dict:
    metrics = {}
    for name, unit in layers.PER_LAYER:
        units = samples.setup_units if name in layers.SETUP_METRICS else samples.traced_units
        metrics[name] = (median_of([u.get(name, 0.0) for u in units]), unit)
    traced_pps = median_of(samples.traced_pairs_per_s)
    plain_pps = median_of(samples.pairs_per_s)
    metrics["trace.pairs_per_s"] = (traced_pps, "pairs/s")
    overhead = 100.0 * (plain_pps / traced_pps - 1.0) if traced_pps else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def layer_shares(metrics: dict) -> dict:
    """Each function's and layer's self time as a share of replay or training time."""
    replay = metrics["sim.run_replay.total_s"][0]
    train = metrics["sim.fit_offline_router.total_s"][0]
    shares = {"replay": {}, "train": {}}
    for name, (value, _) in metrics.items():
        if not name.endswith(".self_s") or name.startswith("sim.generate_scenario"):
            continue
        fn = name[: -len(".self_s")]
        layer = fn.split(".")[0]
        if layer == "offline":
            shares["train"][fn] = value / train if train else 0.0
        else:
            shares["replay"][fn] = value / replay if replay else 0.0
            shares["replay"][layer] = shares["replay"].get(layer, 0.0) + shares["replay"][fn]
    return shares


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import layers
    import workloads as wl
    from tracing import Tracer

    workload = wl.WORKLOADS[workload_name]
    tally = Tally()
    samples = Samples()
    tracer = Tracer(layers.SPAN_TARGETS, layers.COUNT_ONLY, layers.HOOKS) if trace else None

    inputs = measure_setup(wl, workload, seed, samples, tracer)
    # untimed first round: warms caches and gets the full output checks
    reference = wl.run_round(workload, inputs, seed, logs=True)
    tally.add(wl.check_reference_round(workload, inputs, reference))
    quality = wl.quality(reference, workload.stream_pairs)
    for outcome in reference.replays:  # the logs are only needed for the checks
        outcome.decision_log = outcome.reward_log = None
    measure_rounds(wl, workload, inputs, seed, seconds, reference, tally, samples, tracer)
    while len(samples.setup_s) < MIN_SETUPS:
        measure_setup(wl, workload, seed, samples, tracer)

    details = {
        "workload": workload.name,
        "seed": seed,
        "rounds": samples.rounds,
        "setup_s_each": samples.setup_s,
        "pairs_per_s_each": samples.pairs_per_s,
        "train_s_each": samples.train_s,
        "reference_round_s": reference.seconds,
        "errors": tally.errors[:20],
    }
    if trace:
        metrics = per_layer_metrics(layers, samples)
        details["absent"] = tracer.absent
        details["shares"] = layer_shares(metrics)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
        tracer.dump(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(samples, quality)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    allocator = pin_allocator()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "rmrouter" / "__init__.py").is_file():
        print(f"error: no rmrouter package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rmrouter
    import workloads

    if Path(rmrouter.__file__).resolve().parent != (src / "rmrouter").resolve():
        print(f"error: imported rmrouter from {rmrouter.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    details["machine"] = machine_block(allocator)
    for error in details["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"report": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
