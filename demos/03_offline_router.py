"""Offline router: profile the model pool, train both heads, route by ranking.

A synthetic pool of four reward models is profiled on a labelled corpus: a
(pairs x models) matrix of correctness bits.  Pairs where one model is right
and another wrong become (row, winner, loser) rows that train the pairwise
ranking head; the auxiliary per-model classifier trains on every bit of the
matrix as it stands.  Routing
picks the argmax ranking score, and the ranking matrix is exported as the
online router's prior.
"""

import numpy as np

from rmrouter import (
    Cluster,
    SimScenario,
    export_prior,
    extract_disagreements,
    routing_accuracy,
)
from rmrouter.sim import fit_offline_router, generate_scenario

d = 8
e0, e1 = np.eye(d)[0], np.eye(d)[1]
scenario = SimScenario(
    n_arms=4,
    clusters=[Cluster(0, e0, 0.25), Cluster(1, e1, 0.25)],
    arm_profiles=[
        {0: 0.95, 1: 0.55},   # specialist for cluster 0
        {0: 0.55, 1: 0.95},   # specialist for cluster 1
        {0: 0.55, 1: 0.55},
        {0: 0.55, 1: 0.55},
    ],
    pairs_per_step=16,
    n_steps=50,
    seeds=[0],
    offline_pairs=600,
)
dataset = generate_scenario(scenario, 0)

correct = dataset.offline.correct  # (pairs, models) correctness bits
bt_index = extract_disagreements(correct)
per_arm = {n: round(float(acc), 3) for n, acc in enumerate(correct.mean(axis=0))}
print(f"offline corpus: {dataset.offline.n} pairs, {correct.size} behavior bits")
print("per-model marginal accuracy:", per_arm)
print(f"disagreement samples for the ranking head: {len(bt_index)}")

result = fit_offline_router(dataset, seed=0)
model = result.model
print(f"\ntraining: {len(result.history)} epochs, "
      f"final combined loss {result.history[-1]['total_loss']:.4f}")

stream = dataset.stream
every_bit = np.ones(stream.correct.shape, dtype=bool)
accuracy, _ = routing_accuracy(model, stream.contexts, stream.correct, every_bit)
print(f"held-out routing accuracy on the stream: {accuracy:.4f}")
print(f"(best single model would get {dataset.profiles.mean(axis=1).max():.3f} on average; "
      f"the per-cluster oracle {dataset.profiles.max(axis=0).mean():.3f})")

prior = export_prior(model)
print(f"\nexported prior matrix: shape {prior.shape}, row norms "
      f"{np.round(np.linalg.norm(prior, axis=1), 3)}")
