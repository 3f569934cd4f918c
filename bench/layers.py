"""Which rmrouter functions the traced run wraps, and the per-layer metrics.

Layers are the modules ``sim``, ``online``, ``gaussian``, ``rewards`` and
``offline``.  Every target gets a span; ``COUNT_ONLY`` targets are called
once per pair, so they only count calls.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

SPAN_TARGETS = (
    "sim.generate_scenario",
    "sim.fit_offline_router",
    "sim.run_replay",
    "online.route_batch",
    "online.observe_feedback",
    "online.route_weighted_score",
    "online.route_linucb",
    "online.update_linucb",
    "gaussian.posterior_update",
    "gaussian.sample_weights",
    "gaussian.sample_weight",
    "gaussian.robust_cholesky",
    "rewards.normalize_step_rewards",
    "offline.collect_behavior",
    "offline.extract_disagreements",
    "offline.train_offline",
    "offline.loss_and_grads",
)
COUNT_ONLY = ("rewards.surrogate_pair_loss",)

# (name, unit); times are per round (per set-up for generate_scenario), the
# median over the traced ones; counts are exact per round
PER_LAYER = (
    ("sim.generate_scenario.self_s", "s"),
    ("sim.run_replay.self_s", "s"),
    ("sim.run_replay.calls", "count"),
    ("sim.run_replay.total_s", "s"),
    ("sim.fit_offline_router.total_s", "s"),
    ("online.route_batch.self_s", "s"),
    ("online.route_batch.calls", "count"),
    ("online.observe_feedback.self_s", "s"),
    ("online.route_weighted_score.self_s", "s"),
    ("online.route_weighted_score.calls", "count"),
    ("online.route_linucb.self_s", "s"),
    ("online.update_linucb.self_s", "s"),
    ("gaussian.posterior_update.self_s", "s"),
    ("gaussian.posterior_update.calls", "count"),
    ("gaussian.posterior_update.rows", "count"),
    ("gaussian.sample_weights.self_s", "s"),
    ("gaussian.sample_weights.calls", "count"),
    ("gaussian.sample_weight.self_s", "s"),
    ("gaussian.sample_weight.calls", "count"),
    ("gaussian.robust_cholesky.self_s", "s"),
    ("gaussian.robust_cholesky.calls", "count"),
    ("gaussian.cholesky_retries", "count"),
    ("rewards.normalize_step_rewards.self_s", "s"),
    ("rewards.normalize_step_rewards.calls", "count"),
    ("rewards.history_len", "count"),
    ("rewards.degenerate_warnings", "count"),
    ("rewards.surrogate_pair_loss.calls", "count"),
    ("offline.collect_behavior.self_s", "s"),
    ("offline.train_offline.self_s", "s"),
    ("offline.loss_and_grads.self_s", "s"),
    ("offline.loss_and_grads.calls", "count"),
    ("offline.extract_disagreements.self_s", "s"),
    ("trace.pairs_per_s", "pairs/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)

# metrics that only the traced set-up calls produce
SETUP_METRICS = ("sim.generate_scenario.self_s",)


def _argument(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


@contextmanager
def _count_rows(tracer, args, kwargs):
    batch = _argument(args, kwargs, 1, "batch")
    if hasattr(batch, "__len__"):
        tracer.counters["gaussian.posterior_update.rows"] += len(batch)
    yield


@contextmanager
def _count_retries(tracer, args, kwargs):
    # each failed factorization inside robust_cholesky triggers the jitter retry
    original = np.linalg.cholesky

    def counted(*a, **k):
        try:
            return original(*a, **k)
        except np.linalg.LinAlgError:
            tracer.counters["gaussian.cholesky_retries"] += 1
            raise

    np.linalg.cholesky = counted
    try:
        yield
    finally:
        np.linalg.cholesky = original


@contextmanager
def _watch_history(tracer, args, kwargs):
    history = _argument(args, kwargs, 1, "history")
    before = getattr(history, "degenerate_events", 0)
    yield
    if hasattr(history, "__len__"):
        key = "rewards.history_len"
        tracer.gauges[key] = max(tracer.gauges.get(key, 0), len(history))
    delta = getattr(history, "degenerate_events", 0) - before
    tracer.counters["rewards.degenerate_warnings"] += delta


HOOKS = {
    "gaussian.posterior_update": _count_rows,
    "gaussian.robust_cholesky": _count_retries,
    "rewards.normalize_step_rewards": _watch_history,
}
