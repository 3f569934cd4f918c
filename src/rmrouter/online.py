"""Online reward-model selection via per-pair Thompson sampling.

Each candidate model is a bandit arm holding a Gaussian belief over a linear
weight vector.  One step works on arrays: :func:`route_batch` draws, for
every context row and arm, the score of an independent weight sample, and
picks the argmax; ties resolve to the lowest arm index.
:func:`observe_feedback` groups the rows by chosen arm and applies one
conjugate update per arm (:func:`rmrouter.gaussian.posterior_update`),
leaving unchosen arms untouched.

Also provided: a LinUCB baseline (:func:`route_linucb`, :func:`update_linucb`),
the zero-prior state (prior and noise variance 1) routed on a UCB score
instead of a draw, one arm for the whole batch from the batch-mean context
unless ``per_pair``; and a fixed-weight ablation (:func:`route_weighted_score`)
that mixes softmaxed offline ranking scores with softmaxed online sampled
scores.

Routing is read-only and may run concurrently on one state snapshot;
feedback returns a new state and needs exclusive access.  The replay harness
alternates route -> observe strictly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimError, FormatError, InputError
from .gaussian import (
    ArmPosterior,
    make_prior,
    posterior_from_dict,
    posterior_to_dict,
    posterior_update,
    sample_scores,
    sample_weights,  # not called here; the bench tracer's tests read online.sample_weights
    score_moments,
)
from .offline import OfflineRouterModel
from .serialize import int_field, read_json, write_json

STATE_FORMAT_VERSION = 1

PRIOR_MODES = ("zero", "injected")
# default prior variance per mode: tight around an injected mean, wide at zero
DEFAULT_PRIOR_VARIANCE = {"zero": 1.0, "injected": 0.02}
DEFAULT_NOISE_VARIANCE = 1.0


@dataclass
class RouterConfig:
    sigma_sq: float = DEFAULT_NOISE_VARIANCE
    prior_variance: float = 1.0
    prior_mode: str = "zero"

    def __post_init__(self) -> None:
        if self.prior_mode not in PRIOR_MODES:
            raise ConfigError(f"prior_mode must be one of {PRIOR_MODES}")
        if not (0 < self.sigma_sq < np.inf and 0 < self.prior_variance < np.inf):
            raise ConfigError("sigma_sq and prior_variance must be finite and positive")


@dataclass
class OnlineRouterState:
    """Per-arm beliefs plus the step counter; treat instances as immutable."""

    arms: list[ArmPosterior]
    config: RouterConfig
    step: int = 0
    selection_counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.arms:
            raise ConfigError("router needs at least one arm")
        d = self.arms[0].d
        noise = self.arms[0].noise_variance
        for arm in self.arms:
            if arm.d != d:
                raise DimError("all arms must share one dimension")
            if arm.noise_variance != noise:
                raise ConfigError("all arms must share one noise variance")
        if self.selection_counts is None:
            self.selection_counts = np.zeros(len(self.arms), dtype=np.int64)
        else:
            self.selection_counts = np.asarray(self.selection_counts, dtype=np.int64)
            if self.selection_counts.shape != (len(self.arms),):
                raise DimError("selection_counts length must equal the number of arms")

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    @property
    def d(self) -> int:
        return self.arms[0].d


def init_router(
    n_arms: int,
    d: int,
    prior_mode: str = "zero",
    offline_prior: np.ndarray | None = None,
    sigma_sq: float = DEFAULT_NOISE_VARIANCE,
    prior_variance: float | None = None,
) -> OnlineRouterState:
    """Fresh router state; injected mode seeds each arm's mean from a prior row."""
    if n_arms < 1 or d < 1:
        raise ConfigError("n_arms and d must be >= 1")
    if prior_mode not in PRIOR_MODES:
        raise ConfigError(f"prior_mode must be one of {PRIOR_MODES}")
    if prior_variance is None:
        prior_variance = DEFAULT_PRIOR_VARIANCE[prior_mode]
    config = RouterConfig(sigma_sq=sigma_sq, prior_variance=prior_variance, prior_mode=prior_mode)
    if prior_mode == "injected":
        if offline_prior is None:
            raise ConfigError("prior_mode='injected' requires an offline prior matrix")
        offline_prior = np.asarray(offline_prior, dtype=np.float64)
        if offline_prior.shape != (n_arms, d):
            raise ConfigError(
                f"offline prior shape {offline_prior.shape} does not match ({n_arms}, {d})"
            )
        means = [offline_prior[n] for n in range(n_arms)]
    else:
        if offline_prior is not None:
            raise ConfigError("offline_prior is only valid with prior_mode='injected'")
        means = [np.zeros(d) for _ in range(n_arms)]
    arms = [make_prior(d, mean, prior_variance, sigma_sq) for mean in means]
    return OnlineRouterState(arms=arms, config=config)


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
    contexts = _checked_contexts(state, contexts)
    scores = np.empty((contexts.shape[0], state.n_arms))
    for n, arm in enumerate(state.arms):
        scores[:, n] = sample_scores(arm, contexts, rng)
    return np.argmax(scores, axis=1), scores


def observe_feedback(
    state: OnlineRouterState,
    contexts: np.ndarray,
    chosen: Sequence[int] | np.ndarray,
    rewards: Sequence[float] | np.ndarray,
) -> OnlineRouterState:
    """Update each arm once with the rows routed to it.

    Row i of ``contexts`` was routed to arm ``chosen[i]`` and earned
    ``rewards[i]``.  The step is checked once, then each arm sees its rows in
    batch order.  Arms that received no row keep their exact posterior objects.
    """
    contexts = np.asarray(contexts, dtype=np.float64)
    chosen = np.asarray(chosen, dtype=np.int64)
    rewards = np.asarray(rewards, dtype=np.float64)
    n, d = len(chosen), state.d
    if chosen.shape != (n,) or rewards.shape != (n,) or contexts.shape != (n, d):
        raise DimError(f"shapes {contexts.shape}, {chosen.shape}, {rewards.shape} vs d={d}")
    if not (np.isfinite(contexts).all() and np.isfinite(rewards).all()):
        raise InputError("observation contexts and rewards must be finite")
    # rows stably sorted by arm: arm n's are rows[ends[n]:ends[n + 1]]
    rows = np.argsort(chosen, kind="stable")
    if n and not 0 <= chosen[rows[0]] <= chosen[rows[-1]] < state.n_arms:
        raise InputError(f"chosen arms must lie in [0, {state.n_arms})")
    ends = np.searchsorted(chosen[rows], np.arange(state.n_arms + 1))
    new_arms = [
        posterior_update(arm, contexts[rows[lo:hi]], rewards[rows[lo:hi]]) if hi > lo else arm
        for arm, lo, hi in zip(state.arms, ends[:-1], ends[1:])
    ]
    counts = state.selection_counts + np.bincount(chosen, minlength=state.n_arms)
    return OnlineRouterState(
        arms=new_arms, config=state.config, step=state.step + 1, selection_counts=counts
    )


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
    if not 0.0 <= alpha < np.inf:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    contexts = _checked_contexts(state, contexts)
    points = contexts if per_pair else contexts.mean(axis=0)[None]
    scores = np.empty((len(points), state.n_arms))
    for n, arm in enumerate(state.arms):
        means, variances = score_moments(arm, points)
        scores[:, n] = means + alpha * np.sqrt(variances)
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
    offline_model: OfflineRouterModel,
    zero_prior_state: OnlineRouterState,
    contexts: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Chosen arm per context row for the fixed-weight offline/online mix.

    Each row takes the argmax of alpha * softmax(offline scores) +
    (1 - alpha) * softmax(sampled scores).  Sampled scores are drawn arm by
    arm (arm-major order), as in :func:`route_batch`, whatever ``alpha`` is.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    contexts = _checked_contexts(zero_prior_state, contexts)
    if offline_model.bt_embeddings.shape != (zero_prior_state.n_arms, zero_prior_state.d):
        raise DimError("offline model and online state disagree on the arms or dimension")
    offline = contexts @ offline_model.bt_embeddings.T
    sampled = np.column_stack(
        [sample_scores(arm, contexts, rng) for arm in zero_prior_state.arms]
    )
    mixed = alpha * softmax(offline) + (1.0 - alpha) * softmax(sampled)
    return np.argmax(mixed, axis=1)


# ---------------------------------------------------------------------------
# persistence


def state_to_dict(state: OnlineRouterState) -> dict:
    return {
        "version": STATE_FORMAT_VERSION,
        "step": state.step,
        "config": {
            "sigma_sq": state.config.sigma_sq,
            "prior_variance": state.config.prior_variance,
            "prior_mode": state.config.prior_mode,
        },
        "selection_counts": [int(c) for c in state.selection_counts],
        "arms": [posterior_to_dict(arm) for arm in state.arms],
    }


def state_from_dict(doc: dict) -> OnlineRouterState:
    """Inverse of :func:`state_to_dict`; a malformed document raises FormatError."""
    if not isinstance(doc, dict):
        raise FormatError("router state must be a JSON object")
    version = doc.get("version")
    if version != STATE_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported router state version {version!r}; supported: {STATE_FORMAT_VERSION}"
        )
    try:
        cfg = doc["config"]
        config = RouterConfig(
            sigma_sq=float(cfg["sigma_sq"]),
            prior_variance=float(cfg["prior_variance"]),
            prior_mode=cfg["prior_mode"],
        )
        return OnlineRouterState(
            arms=[posterior_from_dict(arm) for arm in doc["arms"]],
            config=config,
            step=int_field(doc["step"], "step", FormatError, minimum=0),
            selection_counts=[
                int_field(c, "selection_counts", FormatError, minimum=0)
                for c in doc["selection_counts"]
            ],
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed router state: {exc!r}") from exc


def save_state(path, state: OnlineRouterState) -> None:
    write_json(path, state_to_dict(state))


def load_state(path) -> OnlineRouterState:
    return state_from_dict(read_json(path))
