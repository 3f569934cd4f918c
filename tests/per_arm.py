"""Per-arm reference for stacked arm beliefs: every arm scored and updated on its own.

Each arm's belief is a (mean, covariance) pair.  Scores come arm by arm: one
draw of B standard normals per arm, in arm order.  An arm's update takes its
own rows in batch order, GAIN_ROWS at a time, through the gain form of the
Kalman step: G = sigma^2 I + H cov H^T, factored per arm, K^T = G^-1 H cov,
mean += K (r - H mean), cov -= K H cov, then cov is symmetrized.  The stacked
functions in ``rmrouter.gaussian`` must agree with these loops.
"""

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from rmrouter.gaussian import GAIN_ROWS


def kalman_update(mean, covariance, noise_variance, contexts, rewards):
    """One arm's (mean, covariance) after its rows."""
    for start in range(0, len(rewards), GAIN_ROWS):
        h = contexts[start : start + GAIN_ROWS]
        h_cov = h @ covariance
        innovation = h_cov @ h.T
        innovation.flat[:: len(h) + 1] += noise_variance
        low, info = dpotrf(innovation, lower=1, clean=1)
        assert info == 0, "reference innovation does not factor"
        gain_t, info = dpotrs(low, h_cov, lower=1)
        mean = mean + gain_t.T @ (rewards[start : start + GAIN_ROWS] - h @ mean)
        covariance = covariance - h_cov.T @ gain_t
    return mean, 0.5 * (covariance + covariance.T)


def fold(means, covariances, noise_variance, contexts, rewards, arms):
    """(N, d) means and (N, d, d) covariances after each arm's own update;
    the rows of arms without observations are copied unchanged."""
    means, covariances = means.copy(), covariances.copy()
    for n in range(len(means)):
        rows = arms == n
        if rows.any():
            means[n], covariances[n] = kalman_update(
                means[n], covariances[n], noise_variance, contexts[rows], rewards[rows]
            )
    return means, covariances


def score_moments(means, covariances, contexts):
    """(B, N) score means h.mean and variances h.cov.h, one arm at a time."""
    columns = [
        (contexts @ mean, np.einsum("ij,ij->i", contexts @ covariance, contexts))
        for mean, covariance in zip(means, covariances)
    ]
    return np.column_stack([m for m, _ in columns]), np.column_stack([v for _, v in columns])


def sample_scores(means, covariances, contexts, rng):
    """(B, N) Thompson scores: arm n's column from the n-th draw of B normals."""
    score_means, variances = score_moments(means, covariances, contexts)
    draws = np.column_stack([rng.standard_normal(len(contexts)) for _ in means])
    return score_means + np.sqrt(np.maximum(variances, 0.0)) * draws
