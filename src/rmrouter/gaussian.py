"""Gaussian beliefs over linear reward weights, with conjugate batch updates.

Every routing arm keeps a belief w ~ N(mean, covariance) over the weights of a
linear reward model r = w.h + noise.  The mean and the positive definite
covariance are its whole state.  A router's N arms are one :class:`Beliefs`
stack: means (N, d), covariances (N, d, d) and update counts (N,), with one
noise variance.  :func:`score_moments` gives every arm's score mean and
variance for a (B, d) block of contexts from one stacked product, and
:func:`sample_scores` draws one Thompson score per row and arm from one
(N, B) normal draw.  :func:`posterior_update` applies the Kalman step to the
arms' rows with one block-diagonal innovation factorization and one solve
per GAIN_ROWS rows, looping over arms only for H cov and the covariance
downdate.  A single :class:`ArmPosterior` is the N = 1 case of each function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import ConfigError, DimError, FormatError, InputError, NonPSDError, NumericalError
from .serialize import check_document, int_field, real_field

POSTERIOR_FORMAT_VERSION = 1

SYMMETRY_TOL = 1e-10
# a score variance h.cov.h below -VARIANCE_TOL * (h.h) * max(diag cov) shows an indefinite
# covariance along h; a negative variance above that bound is rounding and reads as 0
VARIANCE_TOL = 1e-9
CHOLESKY_JITTER = 1e-9
GAIN_ROWS = 64  # rows per Kalman gain: bounds the innovation matrix for any batch


def robust_cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor (upper triangle zero) read from the lower triangle
    of ``mat``; retries once with CHOLESKY_JITTER added to the diagonal.

    Raises :class:`NonPSDError` naming the failing pivot if the factorization
    still fails after the jitter.
    """
    low, info = dpotrf(mat, lower=1, clean=1)
    if info == 0:
        return low
    low, info = dpotrf(mat + CHOLESKY_JITTER * np.eye(mat.shape[0]), lower=1, clean=1)
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
    update's result and a view of one arm of a :class:`Beliefs` stack skip
    that O(d^3) check, which runs again where a belief leaves the replay or
    is written out.
    """

    mean: np.ndarray
    covariance: np.ndarray
    noise_variance: float
    update_count: int = 0

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance = np.asarray(self.covariance, dtype=np.float64)
        noise = real_field(self.noise_variance, "noise_variance", InputError, positive=True)
        self.noise_variance = noise
        self.update_count = int_field(self.update_count, "update_count", InputError, minimum=0)
        self.validate()

    def validate(self) -> None:
        """Full check: shapes, finite fields, positive noise, and a symmetric
        positive definite covariance (O(d^3)); raises a RouterError otherwise."""
        if self.mean.ndim != 1 or not self.mean.size:
            raise DimError(f"mean must be a vector of length >= 1, got shape {self.mean.shape}")
        d = self.mean.shape[0]
        if self.covariance.shape != (d, d):
            raise DimError(
                f"covariance shape {self.covariance.shape} does not match mean length {d}"
            )
        real_field(self.noise_variance, "noise_variance", InputError, positive=True)
        if not (np.isfinite(self.mean).all() and np.isfinite(self.covariance).all()):
            raise InputError("mean and covariance must be finite")
        asym = float(np.max(np.abs(self.covariance - self.covariance.T)))
        if asym > SYMMETRY_TOL:
            raise NonPSDError(f"covariance is not symmetric (max asymmetry {asym:.3e})")
        if not np.any(self.covariance):  # the jitter retry would accept it
            raise NonPSDError("covariance is zero, not positive definite", pivot=0)
        robust_cholesky(self.covariance)

    @classmethod
    def _updated(cls, mean, covariance, noise_variance, update_count) -> ArmPosterior:
        """An update's result, or a view of one stacked arm, without the full
        check: only an O(d^2) finiteness and an O(d) positive-diagonal check,
        raising NumericalError."""
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


@dataclass
class Beliefs:
    """N arm beliefs stacked along a leading arm axis, sharing one noise variance.

    ``means`` is (N, d), ``covariances`` (N, d, d) and ``update_counts`` (N,).
    Build a stack with :meth:`stack` from checked beliefs; updates return new
    stacks and leave the rows of arms without observations as they were, bit
    for bit.  Treat instances, and the arrays of their :attr:`arms` views, as
    immutable.
    """

    means: np.ndarray
    covariances: np.ndarray
    noise_variance: float
    update_counts: np.ndarray

    def __post_init__(self) -> None:
        noise = real_field(self.noise_variance, "noise_variance", InputError, positive=True)
        self.noise_variance = noise

    @classmethod
    def stack(cls, arms: Sequence[ArmPosterior]) -> Beliefs:
        """One stack of copies of ``arms``, which must share d and the noise variance."""
        if not arms:
            raise ConfigError("router needs at least one arm")
        d, noise = arms[0].d, arms[0].noise_variance
        for arm in arms:
            if arm.d != d:
                raise DimError("all arms must share one dimension")
            if arm.noise_variance != noise:
                raise ConfigError("all arms must share one noise variance")
        return cls(
            np.stack([arm.mean for arm in arms]),
            np.stack([arm.covariance for arm in arms]),
            noise,
            np.array([arm.update_count for arm in arms], dtype=np.int64),
        )

    @cached_property
    def arms(self) -> list[ArmPosterior]:
        """One :class:`ArmPosterior` per arm, viewing this stack's rows: for
        serialization, inspection and the full check.  Built on first read;
        rebinding a list item or a view's field does not change the stack."""
        return [
            ArmPosterior._updated(mean, covariance, self.noise_variance, int(count))
            for mean, covariance, count in zip(self.means, self.covariances, self.update_counts)
        ]

    @property
    def n_arms(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


def make_prior(
    d: int,
    prior_mean: np.ndarray | None = None,
    prior_variance: float = 1.0,
    noise_variance: float = 1.0,
) -> ArmPosterior:
    """Isotropic prior belief: N(prior_mean, prior_variance * I)."""
    d = int_field(d, "dimension", ConfigError, minimum=1)
    prior_variance = real_field(prior_variance, "prior_variance", ConfigError, positive=True)
    noise_variance = real_field(noise_variance, "noise_variance", ConfigError, positive=True)
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
    n = int_field(n, "n", ConfigError, minimum=0)
    low = robust_cholesky(posterior.covariance)
    z = rng.standard_normal((n, posterior.d))
    return posterior.mean + z @ low.T


def score_moments(
    beliefs: Beliefs | ArmPosterior, contexts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(h.mean, h.covariance.h) for every context row h and arm: the mean and
    variance of the score h.w, each (B, N); (B,) for one ArmPosterior.

    O(N B d^2) through one stacked product contexts @ covariances, with no
    factorization.  A variance below the VARIANCE_TOL bound raises
    NumericalError naming the arm.
    """
    if isinstance(beliefs, ArmPosterior):  # the N = 1 case
        means, variances = score_moments(Beliefs.stack([beliefs]), contexts)
        return means[:, 0], variances[:, 0]
    if contexts.ndim != 2 or contexts.shape[1] != beliefs.d:
        raise DimError(f"contexts shape {contexts.shape} does not match posterior d={beliefs.d}")
    variances = np.einsum("nbi,bi->bn", contexts @ beliefs.covariances, contexts)
    if variances.min(initial=0.0) < 0.0:
        scale = VARIANCE_TOL * beliefs.covariances.diagonal(axis1=1, axis2=2).max(axis=1)
        bad = variances < -scale * np.einsum("ij,ij->i", contexts, contexts)[:, None]
        if bad.any():
            arm = int(np.nonzero(bad)[1][0])
            raise NumericalError(f"covariance of arm {arm} is indefinite along a scored context")
        variances = np.maximum(variances, 0.0)
    return contexts @ beliefs.means.T, variances


def sample_scores(
    beliefs: Beliefs | ArmPosterior, contexts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """(B, N) Thompson scores, one per context row and arm, each from its own
    weight draw; (B,) for one ArmPosterior.

    A score h.w with w ~ N(mean, covariance) is N(h.mean, h.covariance.h)
    (:func:`score_moments`), so the scores need B N scalar normals.  They come
    from one (N, B) draw, arm-major: the draws of N calls of size B, in arm
    order.
    """
    if isinstance(beliefs, ArmPosterior):  # the N = 1 case
        return sample_scores(Beliefs.stack([beliefs]), contexts, rng)[:, 0]
    means, variances = score_moments(beliefs, contexts)
    return means + np.sqrt(variances) * rng.standard_normal(variances.shape[::-1]).T


def posterior_update(
    beliefs: Beliefs | ArmPosterior,
    contexts: np.ndarray,
    rewards: np.ndarray,
    arms: np.ndarray | None = None,
) -> Beliefs | ArmPosterior:
    """Conjugate update with k observation rows: (k, d) contexts, k rewards and,
    for a stack, the arm of each row.  One ArmPosterior, with ``arms`` None,
    is the N = 1 case and returns an ArmPosterior.

    The rows are stably sorted by arm and enter GAIN_ROWS at a time by the
    Kalman step.  With the innovation G = sigma^2 I + H cov H^T = L L^T,
    W = L^-1 H cov and v = L^-1 (r - H mean), an arm's step is mean += W^T v
    and cov -= W^T W, the gain form K = cov H^T G^-1 written so that the
    downdate is symmetric bit for bit.  The window's G is block diagonal
    (cross-arm entries exactly 0), so one factorization and one triangular
    solve serve every arm in it, and each block gives that arm's own step.
    k rows cost O(k d^2).  Arms without rows keep their rows of the stack bit
    for bit; k = 0 returns ``beliefs`` itself.  The result equals the per-arm
    fold of single-row updates up to rounding.  Arms of any but an integer
    dtype (bool included) raise InputError, so 1.7 or True never truncates to
    arm 1.  Shapes and the arm range are checked up front, and the updated
    arms only for finite fields and a positive diagonal: a non-finite row, an
    overflow or an innovation that does not factor (the arm is named) raises
    NumericalError.
    """
    if isinstance(beliefs, ArmPosterior):  # the N = 1 case
        rewards = np.asarray(rewards, dtype=np.float64)
        stack = Beliefs.stack([beliefs])
        updated = posterior_update(stack, contexts, rewards, np.zeros(rewards.shape, np.int64))
        return beliefs if updated is stack else updated.arms[0]
    arms = np.asarray(arms)
    if arms.size and arms.dtype.kind not in "iu":  # bool is kind "b"
        raise InputError(f"chosen arms must be integers, got dtype {arms.dtype}")
    arms = arms.astype(np.int64, copy=False)
    contexts = np.asarray(contexts, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    k, d = rewards.shape[0] if rewards.ndim else 0, beliefs.d
    if rewards.ndim != 1 or contexts.shape != (k, d) or arms.shape != (k,):
        raise DimError(
            f"contexts {contexts.shape}, rewards {rewards.shape} and arms {arms.shape} "
            f"do not fit d={d}"
        )
    if not k:
        return beliefs
    rows = np.argsort(arms, kind="stable")
    arms = arms[rows]
    if not 0 <= arms[0] <= arms[-1] < beliefs.n_arms:
        raise InputError(f"chosen arms must lie in [0, {beliefs.n_arms})")
    contexts, rewards = contexts[rows], rewards[rows]
    # arm n's rows are [bounds[n], bounds[n + 1])
    bounds = np.searchsorted(arms, np.arange(beliefs.n_arms + 1)).tolist()
    means, covariances = beliefs.means.copy(), beliefs.covariances.copy()
    for start in range(0, k, GAIN_ROWS):
        stop = min(start + GAIN_ROWS, k)
        h, r, a = contexts[start:stop], rewards[start:stop], arms[start:stop]
        # (arm, first row, end row) of each arm with rows in the window, from start
        blocks = [
            (n, max(lo, start) - start, min(hi, stop) - start)
            for n, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            if max(lo, start) < min(hi, stop)
        ]
        h_cov = np.empty_like(h)
        for n, lo, hi in blocks:
            np.matmul(h[lo:hi], covariances[n], out=h_cov[lo:hi])
        # block diagonal, cross-arm entries exactly 0; only its lower triangle is read
        innovation = np.where(a[:, None] == a, h_cov @ h.T, 0.0)
        innovation.flat[:: len(h) + 1] += beliefs.noise_variance
        try:
            low = robust_cholesky(innovation)
        except NonPSDError as exc:
            arm = int(a[exc.pivot])
            raise NumericalError(f"innovation of arm {arm} does not factor: {exc}") from exc
        residuals = r - np.einsum("ij,ij->i", h, means[a])
        # [W | v] = L^-1 [H cov | r - H mean]; LAPACK directly: no finiteness scan,
        # so an overflowed factor is caught here
        solved, info = dtrtrs(low, np.hstack((h_cov, residuals[:, None])), lower=1)
        if info != 0 or not np.isfinite(low).all():
            raise NumericalError(f"innovation overflows or its solve fails (info {info})")
        w, v = solved[:, :d], solved[:, d]
        present, firsts, _ = zip(*blocks)
        means[list(present)] += np.add.reduceat(w * v[:, None], firsts)
        for n, lo, hi in blocks:  # A^T @ A runs as syrk: symmetric bit for bit
            covariances[n] -= w[lo:hi].T @ w[lo:hi]
    # only arms with rows changed: scan the arms from the lowest to the highest of them
    changed = slice(arms[0], arms[-1] + 1)
    finite = np.isfinite(means[changed]).all() and np.isfinite(covariances[changed]).all()
    if not (finite and (covariances[changed].diagonal(axis1=1, axis2=2) > 0.0).all()):
        raise NumericalError("update gives a non-finite belief or a non-positive variance")
    counts = np.bincount(arms, minlength=beliefs.n_arms)
    return Beliefs(means, covariances, beliefs.noise_variance, beliefs.update_counts + counts)


def posterior_to_dict(posterior: ArmPosterior) -> dict:
    """Versioned JSON document: {version, d, mean, covariance (row-major), ...}
    of a belief that passes the full check."""
    posterior.validate()
    return {
        "version": POSTERIOR_FORMAT_VERSION,
        "d": posterior.d,
        "mean": posterior.mean.tolist(),
        "covariance": posterior.covariance.reshape(-1).tolist(),
        "noise_variance": float(posterior.noise_variance),
        "update_count": int(posterior.update_count),
    }


def posterior_from_dict(doc: dict) -> ArmPosterior:
    """Inverse of :func:`posterior_to_dict`; a malformed document raises FormatError."""
    with check_document(doc, "posterior document", POSTERIOR_FORMAT_VERSION):
        d = int_field(doc["d"], "d", FormatError, minimum=0)
        return ArmPosterior(
            mean=np.asarray(doc["mean"], dtype=np.float64),
            covariance=np.asarray(doc["covariance"], dtype=np.float64).reshape(d, d),
            noise_variance=real_field(
                doc["noise_variance"], "noise_variance", FormatError, positive=True
            ),
            update_count=int_field(doc["update_count"], "update_count", FormatError, minimum=0),
        )
