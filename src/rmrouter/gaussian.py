"""Gaussian beliefs over linear reward weights, with conjugate batch updates.

Every routing arm keeps a belief w ~ N(mean, covariance) over the weights of a
linear reward model r = w.h + noise.  The mean and the positive definite
covariance are its whole state.  :func:`posterior_update` applies the Kalman
step for a block of (context, reward) rows; :func:`sample_scores` draws one
Thompson score per context row and :func:`score_moments` gives the score's
mean and variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConfigError, DimError, FormatError, InputError, NonPSDError, NumericalError
from .serialize import int_field

POSTERIOR_FORMAT_VERSION = 1

SYMMETRY_TOL = 1e-10
# a score variance h.cov.h below -VARIANCE_TOL * (h.h) * max(diag cov) shows an indefinite
# covariance along h; a negative variance above that bound is rounding and reads as 0
VARIANCE_TOL = 1e-9
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
    definite.  The constructor checks this in full (:meth:`validate`); an
    update's result skips that O(d^3) check, which runs again where a belief
    leaves the replay or is written out.
    """

    mean: np.ndarray
    covariance: np.ndarray
    noise_variance: float
    update_count: int = 0

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance = np.asarray(self.covariance, dtype=np.float64)
        self.noise_variance = float(self.noise_variance)
        self.validate()

    def validate(self) -> None:
        """Full check: shapes, finite fields, positive noise, and a symmetric
        positive definite covariance (O(d^3)); raises a RouterError otherwise."""
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

    @classmethod
    def _updated(cls, mean, covariance, noise_variance, update_count) -> ArmPosterior:
        """An update's result without the full check: only an O(d^2) finiteness
        and an O(d) positive-diagonal check, raising NumericalError."""
        finite = np.isfinite(mean).all() and np.isfinite(covariance).all()
        if not (finite and (covariance.diagonal() > 0.0).all()):
            raise NumericalError("update gives a non-finite belief or a non-positive variance")
        posterior = object.__new__(cls)
        posterior.mean, posterior.covariance = mean, covariance
        posterior.noise_variance, posterior.update_count = noise_variance, update_count
        return posterior

    @property
    def d(self) -> int:
        return self.mean.shape[0]


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

    O(B d^2) through diag(H covariance H^T), with no factorization.  A
    variance below the VARIANCE_TOL bound raises NumericalError.
    """
    if contexts.ndim != 2 or contexts.shape[1] != posterior.d:
        raise DimError(
            f"contexts shape {contexts.shape} does not match posterior d={posterior.d}"
        )
    variances = np.einsum("ij,ij->i", contexts @ posterior.covariance, contexts)
    if variances.min(initial=0.0) < 0.0:
        scale = VARIANCE_TOL * posterior.covariance.diagonal().max()
        if np.any(variances < -scale * np.einsum("ij,ij->i", contexts, contexts)):
            raise NumericalError("covariance is indefinite along a scored context")
        variances = np.maximum(variances, 0.0)
    return contexts @ posterior.mean, variances


def sample_scores(
    posterior: ArmPosterior, contexts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One Thompson score per context row, each from its own weight draw.

    A score h.w with w ~ N(mean, covariance) is N(h.mean, h.covariance.h)
    (:func:`score_moments`), so B independent scores need B scalar normals.
    """
    means, variances = score_moments(posterior, contexts)
    return means + np.sqrt(variances) * rng.standard_normal(len(contexts))


def posterior_update(
    posterior: ArmPosterior, contexts: np.ndarray, rewards: np.ndarray
) -> ArmPosterior:
    """Conjugate update with k observation rows: (k, d) contexts and k rewards.

    Rows H enter GAIN_ROWS at a time by the Kalman step: with the innovation
    G = sigma^2 I + H cov H^T and the gain K = cov H^T G^-1, mean += K (r - H
    mean) and cov -= K H cov.  G is the only factorization, so k rows cost
    O(k d^2).  k = 0 returns the posterior unchanged; the result equals the
    fold of single-row updates up to rounding.  Only shapes are checked up
    front, and the result only for finite fields and a positive diagonal: a
    non-finite row, an overflow or an innovation that does not factor raises
    NumericalError.
    """
    contexts = np.asarray(contexts, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim != 1 or contexts.shape != (rewards.shape[0], posterior.d):
        raise DimError(
            f"contexts {contexts.shape} and rewards {rewards.shape} do not fit d={posterior.d}"
        )
    if not len(rewards):
        return posterior
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
    except (NonPSDError, ValueError) as exc:  # ValueError: overflow to inf or NaN
        raise NumericalError(f"update does not give a valid posterior: {exc}") from exc
    covariance = 0.5 * (covariance + covariance.T)
    count = posterior.update_count + len(rewards)
    return ArmPosterior._updated(mean, covariance, posterior.noise_variance, count)


def posterior_to_dict(posterior: ArmPosterior) -> dict:
    """Versioned JSON document: {version, d, mean, covariance (row-major), ...}
    of a belief that passes the full check."""
    posterior.validate()
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
        d = int_field(doc["d"], "d", FormatError, minimum=0)
        return ArmPosterior(
            mean=np.asarray(doc["mean"], dtype=np.float64),
            covariance=np.asarray(doc["covariance"], dtype=np.float64).reshape(d, d),
            noise_variance=float(doc["noise_variance"]),
            update_count=int_field(doc["update_count"], "update_count", FormatError, minimum=0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed posterior document: {exc!r}") from exc
