"""Gaussian beliefs over linear reward weights, with conjugate batch updates.

Every routing arm keeps a multivariate normal belief w ~ N(mean, covariance)
over the weight vector of a linear reward model r = w.h + noise.  Updates use
the information form: the precision matrix accumulates sum(h h^T) / sigma^2
and the shift vector accumulates sum(r h) / sigma^2, after which mean and
covariance are refreshed through a symmetric (Cholesky) solve.  No explicit
matrix inverse is formed outside that refresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

from .errors import ConfigError, DimError, InputError, NonPSDError, NumericalError

POSTERIOR_FORMAT_VERSION = 1

SYMMETRY_TOL = 1e-10
CHOLESKY_JITTER = 1e-9


def robust_cholesky(mat: np.ndarray, jitter: float = CHOLESKY_JITTER) -> np.ndarray:
    """Lower Cholesky factor; retries once with a jitter on the diagonal.

    Raises :class:`NonPSDError` naming the failing pivot if the factorization
    still fails after the jitter.
    """
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    jittered = mat + jitter * np.eye(mat.shape[0])
    try:
        return np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError:
        pass
    # LAPACK reports the first failing pivot 1-based in ``info``
    _, info = dpotrf(jittered, lower=1)
    raise NonPSDError("matrix is not positive definite even after jitter", pivot=info - 1)


@dataclass
class ArmPosterior:
    """Gaussian belief over one arm's weight vector.

    Treat instances as immutable: updates return new posteriors, sampling is
    read-only, and concurrent updates to one arm must be serialized by the
    caller.  ``degenerate`` opts into an exactly zero covariance (point mass
    at the mean); it is meant for ablations and tests only and cannot be
    updated.  ``precision`` and ``shift`` are the information-form
    accumulators (inverse covariance and precision @ mean); they are derived
    from the covariance when not supplied.
    """

    mean: np.ndarray
    covariance: np.ndarray
    noise_variance: float
    update_count: int = 0
    degenerate: bool = False
    precision: np.ndarray | None = field(default=None, repr=False)
    shift: np.ndarray | None = field(default=None, repr=False)

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
        if self.noise_variance <= 0.0:
            raise ConfigError(f"noise_variance must be positive, got {self.noise_variance}")
        asym = float(np.max(np.abs(self.covariance - self.covariance.T))) if d else 0.0
        if asym > SYMMETRY_TOL:
            raise NonPSDError(f"covariance is not symmetric (max asymmetry {asym:.3e})")
        if self.degenerate:
            if np.any(self.covariance != 0.0):
                raise ConfigError("degenerate posteriors require an exactly zero covariance")
            self.precision = None
            self.shift = None
            return
        if d and not np.any(self.covariance):
            raise NonPSDError(
                "zero covariance is only allowed with the explicit degenerate flag", pivot=0
            )
        if self.precision is None:
            low = robust_cholesky(self.covariance)
            self.precision = cho_solve((low, True), np.eye(d))
            self.precision = 0.5 * (self.precision + self.precision.T)
        else:
            self.precision = np.asarray(self.precision, dtype=np.float64)
            if self.precision.shape != (d, d):
                raise DimError("precision shape does not match dimension")
        if self.shift is None:
            self.shift = self.precision @ self.mean
        else:
            self.shift = np.asarray(self.shift, dtype=np.float64)
            if self.shift.shape != (d,):
                raise DimError("shift shape does not match dimension")

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
    if noise_variance <= 0.0:
        raise ConfigError(f"noise_variance must be positive, got {noise_variance}")
    mean = np.zeros(d) if prior_mean is None else np.asarray(prior_mean, dtype=np.float64)
    if mean.shape != (d,):
        raise DimError(f"prior_mean shape {mean.shape} does not match d={d}")
    eye = np.eye(d)
    return ArmPosterior(
        mean=mean.copy(),
        covariance=prior_variance * eye,
        noise_variance=noise_variance,
        precision=eye / prior_variance,
        shift=mean / prior_variance,
    )


def sample_weight(posterior: ArmPosterior, rng: np.random.Generator) -> np.ndarray:
    """One draw w ~ N(mean, covariance); the mean itself for degenerate beliefs."""
    return sample_weights(posterior, rng, 1)[0]


def sample_weights(posterior: ArmPosterior, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent draws, shape (n, d), sharing one Cholesky factorization."""
    if posterior.degenerate:
        return np.tile(posterior.mean, (n, 1))
    low = robust_cholesky(posterior.covariance)
    z = rng.standard_normal((n, posterior.d))
    return posterior.mean + z @ low.T


def sample_scores(
    posterior: ArmPosterior, contexts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One Thompson score per context row, each from its own weight draw.

    A score h.w with w ~ N(mean, covariance) is N(h.mean, h.covariance.h), so
    B independent scores need only diag(H covariance H^T) and B scalar
    normals: O(B d^2) and no factorization.  Degenerate beliefs return
    ``contexts @ mean`` exactly and draw nothing.
    """
    if contexts.ndim != 2 or contexts.shape[1] != posterior.d:
        raise DimError(
            f"contexts shape {contexts.shape} does not match posterior d={posterior.d}"
        )
    means = contexts @ posterior.mean
    if posterior.degenerate:
        return means
    variances = np.einsum("ij,ij->i", contexts @ posterior.covariance, contexts)
    return means + np.sqrt(np.maximum(variances, 0.0)) * rng.standard_normal(len(contexts))


def posterior_update(posterior: ArmPosterior, batch: ObservationBatch) -> ArmPosterior:
    """Conjugate update with a batch of (context, reward) observations.

    An empty batch returns the posterior unchanged.  The batch result equals
    the fold of single-observation updates up to floating-point accumulation
    order.
    """
    if len(batch) == 0:
        return posterior
    if posterior.degenerate:
        raise NumericalError("degenerate (zero covariance) posteriors cannot be updated")
    if batch.contexts.shape[1] != posterior.d:
        raise DimError(
            f"context dimension {batch.contexts.shape[1]} does not match posterior d={posterior.d}"
        )
    inv_noise = 1.0 / posterior.noise_variance
    precision = posterior.precision + inv_noise * (batch.contexts.T @ batch.contexts)
    precision = 0.5 * (precision + precision.T)
    shift = posterior.shift + inv_noise * (batch.contexts.T @ batch.rewards)
    try:
        low = robust_cholesky(precision)
    except NonPSDError as exc:
        raise NumericalError(f"updated precision matrix is not invertible: {exc}") from exc
    eye = np.eye(posterior.d)
    covariance = cho_solve((low, True), eye)
    covariance = 0.5 * (covariance + covariance.T)
    mean = cho_solve((low, True), shift)
    return ArmPosterior(
        mean=mean,
        covariance=covariance,
        noise_variance=posterior.noise_variance,
        update_count=posterior.update_count + len(batch),
        precision=precision,
        shift=shift,
    )


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
    version = doc.get("version")
    if version != POSTERIOR_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported posterior format version {version!r}; "
            f"supported: {POSTERIOR_FORMAT_VERSION}"
        )
    d = int(doc["d"])
    covariance = np.asarray(doc["covariance"], dtype=np.float64).reshape(d, d)
    degenerate = not np.any(covariance)
    return ArmPosterior(
        mean=np.asarray(doc["mean"], dtype=np.float64),
        covariance=covariance,
        noise_variance=float(doc["noise_variance"]),
        update_count=int(doc["update_count"]),
        degenerate=degenerate,
    )
