"""The benchmark's per-layer trace sees the functions the replay and training call.

``bench/layers.py`` names the functions a traced bench run wraps.  If the
replay or the offline training stops calling one of them, its per-layer
metrics read 0 and no longer describe the code; these tests replay every
bandit router and train the offline router under that tracer.
"""

import math
import sys
from pathlib import Path

import numpy as np

from rmrouter import sim
from rmrouter.offline import TrainConfig
from rmrouter.sim import ReplayConfig, generate_scenario, run_replay

from scenarios import two_specialists_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

# traced name -> the router whose replay calls it once per step (None: every
# bandit replay does)
PER_STEP = {
    "online.route_batch": "thompson",
    "online.route_linucb": "linucb",
    "online.update_linucb": "linucb",
    "online.route_weighted_score": "weighted:0.5",
    "online.observe_feedback": None,
    "rewards.normalize_step_rewards": None,
    "rewards.surrogate_pair_loss": None,
}
ROUTERS = ("thompson", "linucb", "weighted:0.5")


def test_replay_calls_every_traced_layer():
    scenario = two_specialists_scenario(pairs_per_step=8, n_steps=4, offline_pairs=16, seeds=[1])
    dataset = generate_scenario(scenario, 1)
    prior = np.eye(scenario.n_arms, scenario.d)
    tracer = Tracer(layers.SPAN_TARGETS, layers.COUNT_ONLY, layers.HOOKS)
    tracer.install()
    try:
        for router in ROUTERS:
            run_replay(router, dataset, ReplayConfig(seed=1, offline_prior=prior))
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    steps = scenario.n_steps
    for name, router in PER_STEP.items():
        want = steps if router else len(ROUTERS) * steps
        assert tracer.counters[f"{name}.calls"] == want, name
    # each step updates every arm it routed to, once, and each row updates one arm
    updates = tracer.counters["gaussian.posterior_update.calls"]
    assert len(ROUTERS) * steps <= updates <= len(ROUTERS) * steps * scenario.n_arms
    assert tracer.counters["gaussian.posterior_update.rows"] == len(ROUTERS) * dataset.stream.n
    assert tracer.gauges["rewards.history_len"] == dataset.stream.n


def test_training_calls_every_traced_layer():
    # 40 pairs in minibatches of 16: the last minibatch of each epoch is short
    scenario = two_specialists_scenario(pairs_per_step=8, n_steps=2, offline_pairs=40, seeds=[1])
    dataset = generate_scenario(scenario, 1)
    config = TrainConfig(lr=0.05, epochs=3, batch_size=16, seed=1)
    tracer = Tracer(layers.SPAN_TARGETS, layers.COUNT_ONLY, layers.HOOKS)
    tracer.install()
    try:  # through the module, as the bench calls it: the tracer rebinds module names
        sim.fit_offline_router(dataset, config)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.counters["sim.fit_offline_router.calls"] == 1
    assert tracer.counters["offline.train_offline.calls"] == 1
    assert tracer.counters["offline.extract_disagreements.calls"] == 1
    # one gradient per minibatch: every minibatch has classifier rows
    minibatches = math.ceil(dataset.offline.n / config.batch_size)
    assert tracer.counters["offline.loss_and_grads.calls"] == config.epochs * minibatches
