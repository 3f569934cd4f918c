"""Online reward-model selection via per-pair Thompson sampling.

Each candidate model is a bandit arm holding a Gaussian belief over a linear
weight vector.  A router state is the N beliefs as one stack
(:class:`rmrouter.gaussian.Beliefs`, which alone holds the noise variance and
the update counts), the prior they started from and the step counter.  One
step works on arrays: :func:`route_batch` draws, for every context row and
arm, the score of an independent weight sample from one stacked product and
one (N, B) normal draw, and picks the argmax; ties resolve to the lowest arm
index.  :func:`observe_feedback` hands the step's rows and chosen arms to one
:func:`rmrouter.gaussian.posterior_update`, which updates each chosen arm
with its rows through one block-diagonal factorization per window and
leaves the others' beliefs as they were, bit for bit.

Also provided: a LinUCB baseline (:func:`route_linucb`, :func:`update_linucb`),
the zero-prior state (prior and noise variance 1) routed on a UCB score
instead of a draw, one arm for the whole batch from the batch-mean context
unless ``per_pair``; and a fixed-weight ablation (:func:`route_weighted_score`)
that mixes softmaxed scores of an (N, d) prior matrix with softmaxed online
sampled scores.

Routing is read-only and may run concurrently on one state snapshot;
feedback returns a new state and needs exclusive access.  The replay harness
alternates route -> observe strictly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimError, FormatError, InputError
from .gaussian import (
    ArmPosterior,
    Beliefs,
    posterior_from_dict,
    posterior_to_dict,
    posterior_update,
    sample_scores,
    sample_weights,  # not called here; the bench tracer's tests read online.sample_weights
    score_moments,
)
from .serialize import check_document, int_field, read_json, real_field, write_json

STATE_FORMAT_VERSION = 1

PRIOR_MODES = ("zero", "injected")
# default prior variance per mode: tight around an injected mean, wide at zero
DEFAULT_PRIOR_VARIANCE = {"zero": 1.0, "injected": 0.02}
DEFAULT_NOISE_VARIANCE = 1.0


def check_prior_mode(mode: str) -> None:
    if mode not in PRIOR_MODES:
        raise ConfigError(f"prior_mode must be one of {PRIOR_MODES}, got {mode!r}")


@dataclass
class OnlineRouterState:
    """Stacked arm beliefs, the prior N(mean, prior_variance I) they started
    from and the step counter; treat instances as immutable."""

    beliefs: Beliefs
    prior_variance: float
    prior_mode: str = "zero"
    step: int = 0

    def __post_init__(self) -> None:
        check_prior_mode(self.prior_mode)
        variance = real_field(self.prior_variance, "prior_variance", ConfigError, positive=True)
        self.prior_variance = variance
        self.step = int_field(self.step, "step", ConfigError, minimum=0)

    @property
    def selection_counts(self) -> np.ndarray:
        """Rows routed to each arm so far: a read-only view of the update counts."""
        counts = self.beliefs.update_counts.view()
        counts.flags.writeable = False
        return counts

    @property
    def arms(self) -> list[ArmPosterior]:
        """Per-arm views of the stack (:attr:`rmrouter.gaussian.Beliefs.arms`)."""
        return self.beliefs.arms

    @property
    def n_arms(self) -> int:
        return self.beliefs.n_arms

    @property
    def d(self) -> int:
        return self.beliefs.d


def init_router(
    n_arms: int,
    d: int,
    prior_mode: str = "zero",
    offline_prior: np.ndarray | None = None,
    sigma_sq: float = DEFAULT_NOISE_VARIANCE,
    prior_variance: float | None = None,
) -> OnlineRouterState:
    """Fresh router state, every arm N(mean, prior_variance I), built directly
    from checked inputs; injected mode takes each arm's mean from a prior row."""
    n_arms = int_field(n_arms, "n_arms", ConfigError, minimum=1)
    d = int_field(d, "d", ConfigError, minimum=1)
    check_prior_mode(prior_mode)
    if prior_variance is None:
        prior_variance = DEFAULT_PRIOR_VARIANCE[prior_mode]
    prior_variance = real_field(prior_variance, "prior_variance", ConfigError, positive=True)
    sigma_sq = real_field(sigma_sq, "sigma_sq", ConfigError, positive=True)
    if (offline_prior is None) != (prior_mode == "zero"):
        raise ConfigError("prior_mode='injected' needs an offline prior matrix, 'zero' none")
    means = np.zeros((n_arms, d)) if offline_prior is None else np.array(offline_prior, float)
    if means.shape != (n_arms, d) or not np.isfinite(means).all():
        raise ConfigError(f"offline prior {means.shape} must be a finite ({n_arms}, {d}) matrix")
    covariances = np.repeat((prior_variance * np.eye(d))[None], n_arms, axis=0)
    beliefs = Beliefs(means, covariances, sigma_sq, np.zeros(n_arms, dtype=np.int64))
    return OnlineRouterState(beliefs, prior_variance, prior_mode)


def _checked_contexts(state: OnlineRouterState, contexts) -> np.ndarray:
    contexts = np.asarray(contexts, dtype=np.float64)
    if contexts.ndim != 2 or contexts.shape[1] != state.d:
        raise DimError(f"contexts shape {contexts.shape} does not match router d={state.d}")
    if not np.isfinite(contexts).all():
        raise InputError("contexts must be finite")
    return contexts


def route_batch(
    state: OnlineRouterState, contexts: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Thompson-route every (B, d) context row: (chosen arm per row, (B, N) sampled scores).

    Scores are drawn arm by arm (arm-major order) so results are reproducible
    for a given generator state; each row picks its argmax, lowest arm on ties.
    Does not mutate the state.
    """
    scores = sample_scores(state.beliefs, _checked_contexts(state, contexts), rng)
    return np.argmax(scores, axis=1), scores


def observe_feedback(
    state: OnlineRouterState,
    contexts: np.ndarray,
    chosen: Sequence[int] | np.ndarray,
    rewards: Sequence[float] | np.ndarray,
) -> OnlineRouterState:
    """Update each arm once with the rows routed to it.

    Row i of ``contexts`` was routed to arm ``chosen[i]`` and earned
    ``rewards[i]``.  One :func:`rmrouter.gaussian.posterior_update`, which
    checks the shapes and the arm range, gives each arm its rows in batch
    order.  Arms that received no row keep their beliefs bit for bit.  A
    non-finite row, or a non-integer arm (bool included), raises InputError
    before any arm changes.
    """
    contexts = np.asarray(contexts, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    if not (np.isfinite(contexts).all() and np.isfinite(rewards).all()):
        raise InputError("observation contexts and rewards must be finite")
    beliefs = posterior_update(state.beliefs, contexts, rewards, chosen)
    return OnlineRouterState(beliefs, state.prior_variance, state.prior_mode, state.step + 1)


# ---------------------------------------------------------------------------
# LinUCB baseline


def route_linucb(
    state: OnlineRouterState, contexts: np.ndarray, alpha: float, per_pair: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """(chosen arm per row, (B, N) UCB scores h.mean + alpha sqrt(h.covariance.h));
    one arm for the whole batch, scored on the mean context, unless per_pair.

    With a zero prior of variance 1 and noise variance 1, an arm's mean and
    covariance are LinUCB's ridge estimate A^-1 b and A^-1, where
    A = I + sum(h h^T) and b = sum(r h).
    """
    alpha = real_field(alpha, "alpha", ConfigError)
    contexts = _checked_contexts(state, contexts)
    points = contexts if per_pair else contexts.mean(axis=0)[None]
    means, variances = score_moments(state.beliefs, points)
    scores = means + alpha * np.sqrt(variances)
    if not per_pair:
        scores = np.tile(scores, (len(contexts), 1))
    return np.argmax(scores, axis=1), scores


def update_linucb(
    state: OnlineRouterState,
    contexts: np.ndarray,
    chosen: Sequence[int] | np.ndarray,
    rewards: Sequence[float] | np.ndarray,
) -> OnlineRouterState:
    """LinUCB's feedback is the conjugate update: :func:`observe_feedback`."""
    return observe_feedback(state, contexts, chosen, rewards)


# ---------------------------------------------------------------------------
# fixed-weight score-mixing ablation


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis (row-wise for a matrix)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def route_weighted_score(
    prior: np.ndarray,
    zero_prior_state: OnlineRouterState,
    contexts: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Chosen arm per context row for the fixed-weight offline/online mix.

    Each row takes the argmax of alpha * softmax(contexts @ prior.T) +
    (1 - alpha) * softmax(sampled scores), where ``prior`` is an (N, d)
    matrix such as the offline ranking head.  Sampled scores are drawn arm by
    arm (arm-major order), as in :func:`route_batch`, whatever ``alpha`` is.
    """
    alpha = real_field(alpha, "alpha", ConfigError, at_most=1.0)
    contexts = _checked_contexts(zero_prior_state, contexts)
    if np.shape(prior) != (zero_prior_state.n_arms, zero_prior_state.d):
        raise DimError("prior matrix and online state disagree on the arms or dimension")
    offline = contexts @ prior.T
    sampled = sample_scores(zero_prior_state.beliefs, contexts, rng)
    mixed = alpha * softmax(offline) + (1.0 - alpha) * softmax(sampled)
    return np.argmax(mixed, axis=1)


# ---------------------------------------------------------------------------
# persistence


def state_to_dict(state: OnlineRouterState) -> dict:
    """Versioned JSON document; ``config.sigma_sq`` and ``selection_counts``
    are written from the stack's noise variance and update counts."""
    return {
        "version": STATE_FORMAT_VERSION,
        "step": state.step,
        "config": {
            "sigma_sq": state.beliefs.noise_variance,
            "prior_variance": state.prior_variance,
            "prior_mode": state.prior_mode,
        },
        "selection_counts": state.selection_counts.tolist(),
        "arms": [posterior_to_dict(arm) for arm in state.arms],
    }


def state_from_dict(doc: dict) -> OnlineRouterState:
    """Inverse of :func:`state_to_dict`; a malformed document, or one whose
    ``config.sigma_sq`` or ``selection_counts`` disagree with its arms, raises
    FormatError."""
    with check_document(doc, "router state", STATE_FORMAT_VERSION):
        cfg = doc["config"]
        beliefs = Beliefs.stack([posterior_from_dict(arm) for arm in doc["arms"]])
        written = doc["selection_counts"]
        counts = [int_field(n, "selection_counts", FormatError, 0) for n in written]
        arms = (beliefs.noise_variance, beliefs.update_counts.tolist())
        sigma_sq = real_field(cfg["sigma_sq"], "config.sigma_sq", FormatError, positive=True)
        if (sigma_sq, counts) != arms:
            raise FormatError(f"(config.sigma_sq, selection_counts) differ from the arms' {arms}")
        step = int_field(doc["step"], "step", FormatError, minimum=0)
        prior_variance = real_field(cfg["prior_variance"], "config.prior_variance", FormatError,
                                    positive=True)
        return OnlineRouterState(beliefs, prior_variance, cfg["prior_mode"], step)


def save_state(path, state: OnlineRouterState) -> None:
    write_json(path, state_to_dict(state))


def load_state(path) -> OnlineRouterState:
    return state_from_dict(read_json(path))
