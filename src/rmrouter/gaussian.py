"""Gaussian beliefs over linear reward weights, with conjugate batch updates.

Every routing arm keeps a belief w ~ N(mean, covariance) over the weights of a
linear reward model r = w.h + noise.  The mean and the positive definite
covariance are its whole state, updated by the Kalman step of posterior_update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConfigError, DimError, FormatError, InputError, NonPSDError, NumericalError

POSTERIOR_FORMAT_VERSION = 1

SYMMETRY_TOL = 1e-10
CHOLESKY_JITTER = 1e-9
GAIN_ROWS = 64  # rows per Kalman gain: bounds the innovation matrix for any batch


def robust_cholesky(mat: np.ndarray, jitter: float = CHOLESKY_JITTER) -> np.ndarray:
    """Lower Cholesky factor (upper triangle zero) read from the lower triangle
    of ``mat``; retries once with a jitter on the diagonal.

    Raises :class:`NonPSDError` naming the failing pivot if the factorization
    still fails after the jitter.
    """
    low, info = dpotrf(mat, lower=1, clean=1)
    if info == 0:
        return low
    low, info = dpotrf(mat + jitter * np.eye(mat.shape[0]), lower=1, clean=1)
    if info == 0:
        return low
    # LAPACK reports the first failing pivot 1-based in ``info``
    raise NonPSDError("matrix is not positive definite even after jitter", pivot=info - 1)


@dataclass
class ArmPosterior:
    """Gaussian belief N(mean, covariance) over one arm's weight vector.

    Treat instances as immutable: updates return new posteriors, sampling is
    read-only, and concurrent updates to one arm must be serialized by the
    caller.  Every field must be finite and the covariance symmetric positive
    definite; construction checks this with one Cholesky factorization, which
    also validates beliefs loaded from state files.
    """

    mean: np.ndarray
    covariance: np.ndarray
    noise_variance: float
    update_count: int = 0

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance = np.asarray(self.covariance, dtype=np.float64)
        self.noise_variance = float(self.noise_variance)
        if self.mean.ndim != 1:
            raise DimError(f"mean must be a vector, got shape {self.mean.shape}")
        d = self.mean.shape[0]
        if self.covariance.shape != (d, d):
            raise DimError(
                f"covariance shape {self.covariance.shape} does not match mean length {d}"
            )
        finite = np.isfinite(self.mean).all() and np.isfinite(self.covariance).all()
        if not (finite and np.isfinite(self.noise_variance)):
            raise InputError("mean, covariance and noise_variance must be finite")
        if self.noise_variance <= 0.0:
            raise ConfigError(f"noise_variance must be positive, got {self.noise_variance}")
        asym = float(np.max(np.abs(self.covariance - self.covariance.T))) if d else 0.0
        if asym > SYMMETRY_TOL:
            raise NonPSDError(f"covariance is not symmetric (max asymmetry {asym:.3e})")
        if d and not np.any(self.covariance):  # the jitter retry would accept it
            raise NonPSDError("covariance is zero, not positive definite", pivot=0)
        robust_cholesky(self.covariance)

    @property
    def d(self) -> int:
        return self.mean.shape[0]


@dataclass
class ObservationBatch:
    """Contexts and rewards assigned to a single arm within one step."""

    contexts: np.ndarray
    rewards: np.ndarray

    def __post_init__(self) -> None:
        self.contexts = np.atleast_2d(np.asarray(self.contexts, dtype=np.float64))
        self.rewards = np.atleast_1d(np.asarray(self.rewards, dtype=np.float64))
        if len(self.rewards) == 0:
            self.contexts = self.contexts.reshape(0, self.contexts.shape[-1])
        if self.contexts.shape[0] != self.rewards.shape[0]:
            raise DimError(
                f"{self.contexts.shape[0]} contexts but {self.rewards.shape[0]} rewards"
            )
        if not (np.isfinite(self.rewards).all() and np.isfinite(self.contexts).all()):
            raise InputError("observation contexts and rewards must be finite")

    @classmethod
    def empty(cls, d: int) -> "ObservationBatch":
        return cls(np.zeros((0, d)), np.zeros(0))

    def __len__(self) -> int:
        return self.rewards.shape[0]


def make_prior(
    d: int,
    prior_mean: np.ndarray | None = None,
    prior_variance: float = 1.0,
    noise_variance: float = 1.0,
) -> ArmPosterior:
    """Isotropic prior belief: N(prior_mean, prior_variance * I)."""
    if d < 1:
        raise ConfigError(f"dimension must be >= 1, got {d}")
    if prior_variance <= 0.0:
        raise ConfigError(f"prior_variance must be positive, got {prior_variance}")
    mean = np.zeros(d) if prior_mean is None else np.asarray(prior_mean, dtype=np.float64)
    if mean.shape != (d,):
        raise DimError(f"prior_mean shape {mean.shape} does not match d={d}")
    return ArmPosterior(
        mean=mean.copy(), covariance=prior_variance * np.eye(d), noise_variance=noise_variance
    )


def sample_weight(posterior: ArmPosterior, rng: np.random.Generator) -> np.ndarray:
    """One draw w ~ N(mean, covariance)."""
    return sample_weights(posterior, rng, 1)[0]


def sample_weights(posterior: ArmPosterior, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent draws, shape (n, d), sharing one Cholesky factorization."""
    low = robust_cholesky(posterior.covariance)
    z = rng.standard_normal((n, posterior.d))
    return posterior.mean + z @ low.T


def score_moments(
    posterior: ArmPosterior, contexts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(h.mean, h.covariance.h) per context row: the mean and variance of the score h.w.

    O(B d^2) through diag(H covariance H^T), with no factorization.
    """
    if contexts.ndim != 2 or contexts.shape[1] != posterior.d:
        raise DimError(
            f"contexts shape {contexts.shape} does not match posterior d={posterior.d}"
        )
    variances = np.einsum("ij,ij->i", contexts @ posterior.covariance, contexts)
    return contexts @ posterior.mean, variances


def sample_scores(
    posterior: ArmPosterior, contexts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One Thompson score per context row, each from its own weight draw.

    A score h.w with w ~ N(mean, covariance) is N(h.mean, h.covariance.h)
    (:func:`score_moments`), so B independent scores need B scalar normals.
    """
    means, variances = score_moments(posterior, contexts)
    return means + np.sqrt(np.maximum(variances, 0.0)) * rng.standard_normal(len(contexts))


def posterior_update(posterior: ArmPosterior, batch: ObservationBatch) -> ArmPosterior:
    """Conjugate update with a batch of (context, reward) observations.

    Rows H enter GAIN_ROWS at a time by the Kalman step: with the innovation
    G = sigma^2 I + H cov H^T and the gain K = cov H^T G^-1, mean += K (r - H
    mean) and cov -= K H cov.  G is the only factorization, so k rows cost
    O(k d^2).  An empty batch returns the posterior unchanged; the result
    equals the fold of single-observation updates up to rounding.
    """
    if len(batch) == 0:
        return posterior
    if batch.contexts.shape[1] != posterior.d:
        raise DimError(f"context dimension {batch.contexts.shape[1]} is not d={posterior.d}")
    return _update_rows(posterior, batch.contexts, batch.rewards)


def _update_rows(
    posterior: ArmPosterior, contexts: np.ndarray, rewards: np.ndarray
) -> ArmPosterior:
    """:func:`posterior_update` on checked rows: k >= 1 finite (k, d) contexts and rewards."""
    mean, covariance = posterior.mean, posterior.covariance
    try:
        for start in range(0, len(rewards), GAIN_ROWS):
            h = contexts[start : start + GAIN_ROWS]
            h_cov = h @ covariance
            innovation = h_cov @ h.T  # only its lower triangle is read: no symmetrizing
            innovation.flat[:: len(h) + 1] += posterior.noise_variance
            low = robust_cholesky(innovation)
            # LAPACK directly: no finiteness scan, so an overflowed factor is caught here
            gain_t, info = dpotrs(low, h_cov, lower=1)
            if info != 0 or not np.isfinite(low).all():
                raise NumericalError(f"innovation overflows or its solve fails (info {info})")
            mean = mean + gain_t.T @ (rewards[start : start + GAIN_ROWS] - h @ mean)
            covariance = covariance - h_cov.T @ gain_t
        return ArmPosterior(
            mean=mean,
            covariance=0.5 * (covariance + covariance.T),
            noise_variance=posterior.noise_variance,
            update_count=posterior.update_count + len(rewards),
        )
    except (InputError, NonPSDError, ValueError) as exc:  # ValueError: overflow to inf or NaN
        raise NumericalError(f"update does not give a valid posterior: {exc}") from exc


def posterior_to_dict(posterior: ArmPosterior) -> dict:
    """Versioned JSON document: {version, d, mean, covariance (row-major), ...}."""
    return {
        "version": POSTERIOR_FORMAT_VERSION,
        "d": posterior.d,
        "mean": [float(x) for x in posterior.mean],
        "covariance": [float(x) for x in posterior.covariance.reshape(-1)],
        "noise_variance": float(posterior.noise_variance),
        "update_count": int(posterior.update_count),
    }


def posterior_from_dict(doc: dict) -> ArmPosterior:
    """Inverse of :func:`posterior_to_dict`; a malformed document raises FormatError."""
    if not isinstance(doc, dict):
        raise FormatError("posterior document must be a JSON object")
    version = doc.get("version")
    if version != POSTERIOR_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported posterior format version {version!r}; "
            f"supported: {POSTERIOR_FORMAT_VERSION}"
        )
    try:
        d = int(doc["d"])
        return ArmPosterior(
            mean=np.asarray(doc["mean"], dtype=np.float64),
            covariance=np.asarray(doc["covariance"], dtype=np.float64).reshape(d, d),
            noise_variance=float(doc["noise_variance"]),
            update_count=int(doc["update_count"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed posterior document: {exc!r}") from exc
