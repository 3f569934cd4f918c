"""Gaussian weight beliefs: prior, batch updates, convergence.

Each routing arm models its reward as r = w.h + noise and keeps a Gaussian
belief over w.  This script builds a prior, feeds it noisy observations of a
hidden weight vector in batches, and watches the posterior mean close in on
the truth while the covariance trace collapses.
"""

import numpy as np

from rmrouter import make_prior, posterior_update, sample_weights

rng = np.random.default_rng(0)

d = 4
w_true = np.array([0.8, -0.5, 0.3, 0.0])
posterior = make_prior(d, prior_variance=1.0, noise_variance=0.25)

print(f"hidden weights: {np.round(w_true, 3)}")
print(f"{'obs':>5}  {'|mean - true|':>14}  {'trace(cov)':>11}")
seen = 0
for step in range(8):
    batch_size = 2 ** (step + 1)
    contexts = rng.standard_normal((batch_size, d))
    rewards = contexts @ w_true + rng.normal(0, 0.5, size=batch_size)
    posterior = posterior_update(posterior, contexts, rewards)
    seen += batch_size
    gap = np.linalg.norm(posterior.mean - w_true)
    print(f"{seen:>5}  {gap:>14.4f}  {np.trace(posterior.covariance):>11.4f}")

print("\nposterior mean:", np.round(posterior.mean, 3))

draws = sample_weights(posterior, rng, 5)
print("five weight samples from the final belief:")
for w in draws:
    print("  ", np.round(w, 3))
