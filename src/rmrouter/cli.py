"""Command-line surface: train, export, simulate, compare, inspect.

Commands
--------
collect-behavior   materialize a scenario split: dataset, embeddings, behavior
train-offline      train the offline router from dataset + behavior files
export-prior       pull the ranking-head matrix out of a trained model
run-sim            replay a scenario through one or more routing strategies
compare            paired per-seed comparison of run-sim summaries
inspect            human-readable report on a saved router state or model

Every command is deterministic given --seed and embeds the invoking
configuration in its output files.  Exit codes: 0 success, 1 invariant
failure, 2 usage or configuration error.  Set RMROUTER_LOG=debug|info|...
for logging verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import logging
import os
import sys
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np

from . import __version__
from .errors import ConfigError, FormatError, InputError, InvariantError, RouterError
from .features import (
    HashingEncoder,
    load_dataset,
    load_embeddings,
    prefusion_vector,
    row_norms,
    save_dataset,
    save_embeddings,
)
from .offline import (
    TrainConfig,
    export_prior,
    load_behavior,
    load_model,
    model_from_dict,
    routing_accuracy,
    save_behavior,
    save_model,
    train_offline,
)
from .online import PRIOR_MODES, state_from_dict, state_to_dict
from .serialize import check_document, int_field, read_json, real_field, write_json, write_jsonl
from .sim import (
    REWARD_VARIANTS,
    ROUTERS,
    ReplayConfig,
    check_run,
    compare_runs,
    generate_scenario,
    parse_router,
    run_replay,
    scenario_from_dict,
)

logger = logging.getLogger(__name__)

PRIOR_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2

# the ReplayConfig fields that run-sim sets from options of the same name
REPLAY_OPTIONS = (
    "sigma_sq", "prior_variance", "linucb_alpha", "linucb_per_pair", "reward_variant", "light_c"
)


def _setup_logging() -> None:
    level = os.environ.get("RMROUTER_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(message)s")


def _load_prior(path: str) -> np.ndarray:
    doc = check_document(read_json(path), f"prior file {path}", PRIOR_FORMAT_VERSION)
    try:
        prior = np.asarray(doc["bt_embeddings"], dtype=np.float64)
        shape = tuple(int_field(doc[key], key, FormatError, minimum=1) for key in ("n_arms", "d"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed prior file {path}: {exc!r}") from exc
    if prior.shape != shape:
        raise InputError("prior matrix shape does not match its declared n_arms/d")
    return prior


def _write_csv(path: str, header: list[str], rows: list[list], meta: str) -> None:
    buf = io.StringIO()
    buf.write(f"# {meta}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())


# ---------------------------------------------------------------------------
# commands


def cmd_collect_behavior(args: argparse.Namespace) -> int:
    scenario = scenario_from_dict(read_json(args.scenario))
    dataset = generate_scenario(scenario, args.seed)
    split = dataset.offline if args.split == "offline" else dataset.stream
    if split.n == 0:
        raise InputError(f"scenario produces no pairs for split {args.split!r}")
    os.makedirs(args.out_dir, exist_ok=True)
    meta = {"command": "collect-behavior", "scenario": args.scenario, "seed": args.seed,
            "split": args.split}
    save_dataset(os.path.join(args.out_dir, "dataset.jsonl"), split.pairs)
    save_embeddings(os.path.join(args.out_dir, "embeddings.jsonl"), split.embeddings)
    save_behavior(os.path.join(args.out_dir, "behavior.jsonl"), map(split.pair_id, range(split.n)),
                  split.correct, meta=meta)
    write_json(os.path.join(args.out_dir, "manifest.json"), {"config": meta, "n_pairs": split.n})
    print(f"wrote {split.n} pairs ({split.correct.size} behavior records) to {args.out_dir}")
    return EXIT_OK


def cmd_train_offline(args: argparse.Namespace) -> int:
    # the options are checked before any file is read
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    real_field(args.holdout, "--holdout", InputError, below=1.0)
    pairs = load_dataset(args.dataset)
    correct, observed = load_behavior(args.behavior, [p.pair_id for p in pairs])
    embeddings = load_embeddings(args.embeddings) if args.embeddings else None

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(pairs))
    n_holdout = int(round(args.holdout * len(pairs)))
    holdout = np.zeros(len(pairs), dtype=bool)
    holdout[perm[:n_holdout]] = True
    train = ~holdout
    if not train.any():
        raise InputError("holdout split leaves no training pairs")
    # one context row per pair, held-out ones included, all checked before training
    if embeddings is None:
        encoder = HashingEncoder(config.encoder_dim)
        contexts = np.stack([prefusion_vector(pair, encoder) for pair in pairs])
    else:
        missing = [p.pair_id for p in pairs if p.pair_id not in embeddings]
        if missing:
            raise InputError(f"no embedding for pair(s) {missing[:3]}...")
        contexts = np.stack([embeddings[p.pair_id].vector for p in pairs])

    result = train_offline(
        contexts[train], correct[train], observed[train], config, fused=embeddings is None
    )
    model = result.model

    if n_holdout:
        acc, scored = routing_accuracy(model, contexts[holdout], correct[holdout],
                                       observed[holdout])
        print(f"held-out routing accuracy: {'n/a' if acc is None else f'{acc:.4f}'} "
              f"({scored} of {n_holdout} held-out pairs scored)")
    else:
        print("held-out routing accuracy: n/a (no holdout)")

    save_model(args.out, model)
    if args.loss_csv:
        _write_csv(
            args.loss_csv,
            ["epoch", "total_loss", "bt_loss", "cls_loss"],
            [
                [h["epoch"], repr(h["total_loss"]), repr(h["bt_loss"]), repr(h["cls_loss"])]
                for h in result.history
            ],
            meta=f"train-offline seed={args.seed} lambda={args.lam} lr={args.lr} "
            f"epochs={args.epochs} batch_size={args.batch_size}",
        )
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_export_prior(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    prior = export_prior(model)
    write_json(
        args.out,
        {
            "version": PRIOR_FORMAT_VERSION,
            "n_arms": model.n_arms,
            "d": model.d,
            "bt_embeddings": [[float(x) for x in row] for row in prior],
            "source_train_meta": model.train_meta,
        },
    )
    print(f"prior ({model.n_arms} x {model.d}) written to {args.out}")
    return EXIT_OK


def _expand_routers(
    args: argparse.Namespace, n_arms: int, have_prior: bool
) -> list[tuple[str, str, str]]:
    """(run name, router spec, prior mode) per run; a run that starts from an
    injected prior is named ``<spec>-injected``."""

    def run(spec: str, mode: str) -> tuple[str, str, str]:
        if ROUTERS[parse_router(spec)[0]].prior != "injected":  # ConfigError on a bad spec
            mode = "zero"
        return (f"{spec}-injected" if mode == "injected" else spec, spec, mode)

    if args.router != "all":
        return [run(spec, args.prior) for spec in args.router.split(",")]
    # every router but the oracle, its parameter filled in from the options; the
    # ones that read the prior come last, then the injected-prior reruns
    values = {"<arm>": range(n_arms), "<alpha>": [args.weighted_alpha]}
    specs: dict[str, list[str]] = {"never": [], "injected": [], "always": []}
    for kind, router in ROUTERS.items():
        slot = router.syntax.partition(":")[2]
        if router.group != "oracle":
            specs[router.prior] += [f"{kind}:{v}" for v in values[slot]] if slot else [kind]
    runs = [run(spec, "zero") for spec in specs["never"] + specs["injected"]]
    if have_prior:
        runs += [run(spec, "zero") for spec in specs["always"]]
        runs += [run(spec, "injected") for spec in specs["injected"]]
    return runs


def _run_one_seed(payload: tuple) -> list[tuple[dict, list[tuple]]]:
    """Worker: run every requested router for one seed.

    Returns a summary row per router and the (path, content, meta) of its
    output files, for the caller to write once every replay has ended; a
    None meta marks a JSON document, any other a JSONL file.
    """
    (scenario_doc, seed, routers, base_config, out_dir, scenario_path) = payload
    scenario = scenario_from_dict(scenario_doc)
    dataset = generate_scenario(scenario, seed)
    runs = []
    for run_name, spec, prior_mode in routers:
        config = ReplayConfig(**{**base_config, "seed": seed, "prior_mode": prior_mode})
        kind, _ = parse_router(spec)
        decision_log: list = []
        reward_log: list = []
        state_out: list = []
        metrics = run_replay(
            spec,
            dataset,
            config,
            decision_log=decision_log,
            reward_log=reward_log,
            final_state_out=state_out,
        )
        metrics.router = run_name
        base = os.path.join(out_dir, f"{run_name.replace(':', '_')}_{seed}")
        meta = {
            "command": "run-sim",
            "scenario": scenario_path,
            "router": run_name,
            "seed": seed,
            "sigma_sq": config.sigma_sq,
            "prior_mode": config.prior_mode,
            "reward_variant": config.reward_variant,
        }
        step_rows = [
            {
                "step": t,
                "routing_accuracy": metrics.routing_accuracy_per_step[t],
                "cumulative_regret": metrics.cumulative_regret[t],
                "rm_calls": metrics.rm_calls_per_step[t],
            }
            for t in range(scenario.n_steps)
        ]
        files = [(base + ".metrics.jsonl", step_rows, meta)]
        if decision_log:
            files.append((base + ".decisions.jsonl", decision_log, meta))
        if reward_log:
            files.append((base + ".rewards.jsonl", reward_log, meta))
        if kind == "thompson" and state_out:
            files.append((base + ".state.json", state_to_dict(state_out[0]), None))
        row = {
            "router": run_name,
            "seed": seed,
            "final_annotation_accuracy": metrics.final_annotation_accuracy,
            "total_rm_calls": int(sum(metrics.rm_calls_per_step)),
            "mean_uwo_weight": metrics.mean_uwo_weight,
        }
        runs.append((row, files))
    return runs


def cmd_run_sim(args: argparse.Namespace) -> int:
    scenario_doc = read_json(args.scenario)
    scenario = scenario_from_dict(scenario_doc)
    if args.seeds:  # the scenario checks them as it checks its own
        try:
            scenario = replace(scenario, seeds=[int(s) for s in args.seeds.split(",")])
        except ValueError as exc:
            raise ConfigError(f"--seeds must be a comma list of integers: {exc}") from exc
    int_field(args.jobs, "--jobs", ConfigError, minimum=1)
    prior = _load_prior(args.prior_file) if args.prior_file else None
    if args.prior == "injected" and prior is None:
        raise InputError("--prior injected requires --prior-file")
    # every spec is parsed (ConfigError on a bad one) before any output is written
    routers = _expand_routers(args, scenario.n_arms, prior is not None)
    names = [name for name, _, _ in routers]
    if len(set(names)) != len(names):
        raise ConfigError(f"routers must not repeat, got {names}")
    base_config = {name: getattr(args, name) for name in REPLAY_OPTIONS}
    base_config["offline_prior"] = prior
    for _, spec, mode in routers:  # ConfigError before the first replay
        check_run(spec, scenario, ReplayConfig(**base_config, prior_mode=mode))
    os.makedirs(args.out_dir, exist_ok=True)
    payloads = [
        (scenario_doc, seed, routers, base_config, args.out_dir, args.scenario)
        for seed in scenario.seeds
    ]
    if args.jobs > 1:
        workers = min(args.jobs, len(payloads))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_run_one_seed, payloads))
    else:
        per_seed = [_run_one_seed(p) for p in payloads]

    # no file is written until every replay of every seed has ended
    for path, content, meta in (f for runs in per_seed for _, files in runs for f in files):
        if meta is None:
            write_json(path, content)
        else:
            write_jsonl(path, content, meta=meta)
    rows = [row for runs in per_seed for row, _ in runs]
    order = {name: i for i, name in enumerate(names)}
    rows.sort(key=lambda r: (order[r["router"]], r["seed"]))
    _write_csv(
        os.path.join(args.out_dir, "summary.csv"),
        ["router", "seed", "final_annotation_accuracy", "total_rm_calls", "mean_uwo_weight"],
        [
            [
                r["router"],
                r["seed"],
                repr(r["final_annotation_accuracy"]),
                r["total_rm_calls"],
                "" if r["mean_uwo_weight"] is None else repr(r["mean_uwo_weight"]),
            ]
            for r in rows
        ],
        meta=f"run-sim scenario={args.scenario} seeds={','.join(map(str, scenario.seeds))} "
        f"reward_variant={args.reward_variant}",
    )
    print(f"{len(rows)} runs written to {args.out_dir}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    with open(args.summary, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in reader:  # compare_runs reads only router, seed and accuracy
            try:  # compare_runs checks that each accuracy is in [0, 1]
                accuracy = float(row["final_annotation_accuracy"])
                rows.append(SimpleNamespace(router=row["router"], seed=int(row["seed"]),
                                            final_annotation_accuracy=accuracy))
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"malformed row in {args.summary}: {exc!r}") from exc
    if not rows:
        raise InputError(f"no runs found in {args.summary}")
    baseline = int(args.baseline) if args.baseline.isdigit() else args.baseline
    report = compare_runs(rows, baseline, n_boot=args.n_boot, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_csv())
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    doc = read_json(args.path)
    if not isinstance(doc, dict):
        raise FormatError(f"{args.path} does not hold a JSON object")
    if "arms" in doc:
        state = state_from_dict(doc)
        print(f"router state: {state.n_arms} arms, d={state.d}, step={state.step}")
        print(
            f"config: sigma_sq={state.beliefs.noise_variance} "
            f"prior_variance={state.prior_variance} prior_mode={state.prior_mode}"
        )
        mean_norms = row_norms(state.beliefs.means)
        for n, arm in enumerate(state.arms):
            print(
                f"arm {n}: |mean|={mean_norms[n]:.6f} "
                f"trace(cov)={np.trace(arm.covariance):.6f} updates={arm.update_count}"
            )
    elif "bt_embeddings" in doc:
        model = model_from_dict(doc)
        print(f"offline model: {model.n_arms} arms, d={model.d}, lambda={model.lam}")
        print(f"fusion: {'none (identity contexts)' if model.fusion is None else 'single-layer MLP'}")
        bt_norms, cls_norms = row_norms(model.bt_embeddings), row_norms(model.cls_embeddings)
        for n in range(model.n_arms):
            print(f"arm {n}: |bt|={bt_norms[n]:.6f} |cls|={cls_norms[n]:.6f}")
        if model.train_meta:
            meta = model.train_meta
            print(
                f"trained: seed={meta.get('seed')} epochs={meta.get('epochs')} "
                f"final_loss={meta.get('final_loss')}"
            )
    else:
        raise InputError(f"{args.path} is neither a router state nor an offline model")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmrouter", description="reward-model routing toolkit"
    )
    parser.add_argument("--version", action="version", version=f"rmrouter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect-behavior", help="materialize a scenario split to files")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", choices=("offline", "stream"), default="offline")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_collect_behavior)

    p = sub.add_parser("train-offline", help="train the offline router")
    p.add_argument("--dataset", required=True)
    p.add_argument("--behavior", required=True)
    p.add_argument("--embeddings", help="precomputed pair vectors (JSONL)")
    p.add_argument("--out", required=True)
    p.add_argument("--loss-csv")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--encoder-dim", type=int)
    p.add_argument("--holdout", type=float, default=0.2)
    p.set_defaults(func=cmd_train_offline, **asdict(TrainConfig()))

    p = sub.add_parser("export-prior", help="extract the ranking-head matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_prior)

    p = sub.add_parser("run-sim", help="replay a scenario through routing strategies")
    p.add_argument("--scenario", required=True)
    names = ", ".join(router.syntax for router in ROUTERS.values())
    p.add_argument("--router", required=True, help=f"{names}; a comma list; or 'all'")
    p.add_argument("--seeds", help="comma list; default: scenario seeds")
    p.add_argument("--out-dir", required=True)
    replay = ReplayConfig()
    p.add_argument("--prior", choices=PRIOR_MODES, default=replay.prior_mode)
    p.add_argument("--prior-file")
    p.add_argument("--prior-variance", type=float)
    p.add_argument("--sigma-sq", type=float)
    p.add_argument("--linucb-alpha", type=float)
    p.add_argument("--linucb-per-pair", action="store_true",
                   help="score each pair separately instead of one arm per batch")
    p.add_argument("--weighted-alpha", type=float, default=0.5)
    p.add_argument("--reward-variant", choices=REWARD_VARIANTS)
    p.add_argument("--light-c", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_run_sim, **{name: getattr(replay, name) for name in REPLAY_OPTIONS})

    p = sub.add_parser("compare", help="paired per-seed comparison of a run-sim summary")
    p.add_argument("--summary", required=True)
    p.add_argument("--baseline", required=True, help="router name or method index")
    p.add_argument("--out")
    p.add_argument("--n-boot", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("inspect", help="report on a saved router state or model")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except RouterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing input, or an output the system refuses to write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # sizes that fit a numpy array but not this host's memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
