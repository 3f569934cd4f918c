"""Every routing strategy on one drifting stream, compared per seed.

The stream starts on two context clusters and then shifts most of its mass
onto a third one whose best model differs from what the offline corpus
taught.  Ensembles query every model (N calls per pair); routed strategies
pay one call per pair.  The hybrid (injected prior + online updates) should
top the table, and the frozen offline router should give back its advantage
after the shift.
"""

import numpy as np

from rmrouter import Cluster, ReplayConfig, SimScenario, compare_runs, run_replay
from rmrouter.sim import fit_offline_router, generate_scenario

d = 8
e0, e1 = np.eye(d)[0], np.eye(d)[1]
shifted = 0.8 * e0 + 0.6 * e1   # between the known clusters
scenario = SimScenario(
    n_arms=4,
    clusters=[Cluster(0, e0, 0.25), Cluster(1, e1, 0.25), Cluster(2, shifted, 0.25)],
    arm_profiles=[
        {0: 0.9, 1: 0.55, 2: 0.55},    # stale specialist: looks right for the shifted cluster
        {0: 0.55, 1: 0.9, 2: 0.55},
        {0: 0.55, 1: 0.55, 2: 0.55},
        {0: 0.75, 1: 0.75, 2: 0.9},    # runner-up everywhere, best after the shift
    ],
    pairs_per_step=16,
    n_steps=70,
    seeds=list(range(5)),
    offline_pairs=800,
    mixture_before=[0.5, 0.5, 0.0],
    mixture_after=[0.25, 0.25, 0.5],
    drift_step=40,
)
runs = []
calls = {}
for seed in scenario.seeds:
    dataset = generate_scenario(scenario, seed)
    prior = fit_offline_router(dataset, seed=seed).model.bt_embeddings
    for name, router, config in (
        ("random", "random", ReplayConfig(seed=seed)),
        ("single:0", "single:0", ReplayConfig(seed=seed)),
        ("majority", "majority", ReplayConfig(seed=seed)),
        ("uwo", "uwo", ReplayConfig(seed=seed)),
        ("linucb", "linucb", ReplayConfig(seed=seed)),
        ("thompson-zero", "thompson", ReplayConfig(seed=seed)),
        ("offline-only", "offline", ReplayConfig(seed=seed, offline_prior=prior)),
        ("weighted:0.5", "weighted:0.5", ReplayConfig(seed=seed, offline_prior=prior)),
        ("hybrid", "thompson",
         ReplayConfig(seed=seed, prior_mode="injected", offline_prior=prior)),
    ):
        metrics = run_replay(router, dataset, config)
        metrics.router = name
        runs.append(metrics)
        calls[name] = int(np.sum(metrics.rm_calls_per_step))

report = compare_runs(runs, baseline="random")
print(report.to_text())
print("reward-model calls per run (1120 pairs):")
for name, total in calls.items():
    print(f"  {name:14s} {total:>6d}")
