"""Online reward-model selection via per-pair Thompson sampling.

Each candidate model is a bandit arm holding a Gaussian belief over a linear
weight vector.  Routing a batch draws one weight sample per arm for every
pair (configurable to one sample per arm per batch), scores each pair against
every sample, and picks the argmax; ties resolve to the lowest arm index.
Feedback groups the batch's pairs by chosen arm and applies one conjugate
update per arm, leaving unchosen arms untouched.

Also provided: a LinUCB baseline that picks a single arm for the whole batch
from the batch-mean context (a per-pair mode sits behind a flag), and a
fixed-weight ablation that mixes softmaxed offline ranking scores with
softmaxed online sampled scores.

Routing is read-only and may run concurrently on one state snapshot;
feedback returns a new state and needs exclusive access.  The replay harness
alternates route -> observe strictly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DimError, InputError, NumericalError
from .features import PairEmbedding
from .gaussian import (
    ArmPosterior,
    ObservationBatch,
    make_prior,
    posterior_from_dict,
    posterior_to_dict,
    posterior_update,
    sample_weight,
    sample_weights,
)
from .offline import OfflineRouterModel, bt_scores
from .serialize import read_json, write_json

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
    resample_per_pair: bool = True

    def __post_init__(self) -> None:
        if self.prior_mode not in PRIOR_MODES:
            raise ConfigError(f"prior_mode must be one of {PRIOR_MODES}")
        if self.sigma_sq <= 0 or self.prior_variance <= 0:
            raise ConfigError("sigma_sq and prior_variance must be positive")


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


@dataclass
class RoutingDecision:
    """One routed pair: the chosen arm and every arm's sampled score.

    ``context`` keeps the pair's embedding so that feedback can be applied
    later; it is not part of the serialized decision log.
    """

    pair_id: str
    chosen_arm: int
    sampled_scores: np.ndarray
    context: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.sampled_scores = np.asarray(self.sampled_scores, dtype=np.float64)
        if self.chosen_arm != int(np.argmax(self.sampled_scores)):
            raise InputError("chosen_arm must attain the maximum sampled score")


def init_router(
    n_arms: int,
    d: int,
    prior_mode: str = "zero",
    offline_prior: np.ndarray | None = None,
    sigma_sq: float = DEFAULT_NOISE_VARIANCE,
    prior_variance: float | None = None,
    resample_per_pair: bool = True,
) -> OnlineRouterState:
    """Fresh router state; injected mode seeds each arm's mean from a prior row."""
    if n_arms < 1 or d < 1:
        raise ConfigError("n_arms and d must be >= 1")
    if prior_mode not in PRIOR_MODES:
        raise ConfigError(f"prior_mode must be one of {PRIOR_MODES}")
    if prior_variance is None:
        prior_variance = DEFAULT_PRIOR_VARIANCE[prior_mode]
    config = RouterConfig(
        sigma_sq=sigma_sq,
        prior_variance=prior_variance,
        prior_mode=prior_mode,
        resample_per_pair=resample_per_pair,
    )
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


def _context_matrix(batch: Sequence[tuple[str, PairEmbedding]], d: int) -> np.ndarray:
    vectors = []
    for _, emb in batch:
        vec = emb.vector if isinstance(emb, PairEmbedding) else np.asarray(emb, dtype=np.float64)
        if vec.shape != (d,):
            raise DimError(f"embedding shape {vec.shape} does not match router d={d}")
        vectors.append(vec)
    return np.stack(vectors)


def route_batch(
    state: OnlineRouterState,
    batch: Sequence[tuple[str, PairEmbedding]],
    rng: np.random.Generator,
) -> list[RoutingDecision]:
    """Thompson-sample a decision for every pair; does not mutate the state.

    Weight samples are drawn arm by arm (arm-major order) so results are
    reproducible for a given generator state.
    """
    if not batch:
        return []
    contexts = _context_matrix(batch, state.d)
    n_pairs = contexts.shape[0]
    scores = np.empty((n_pairs, state.n_arms))
    for n, arm in enumerate(state.arms):
        if state.config.resample_per_pair:
            w = sample_weights(arm, rng, n_pairs)
            scores[:, n] = np.einsum("ij,ij->i", contexts, w)
        else:
            w = sample_weight(arm, rng)
            scores[:, n] = contexts @ w
    return [
        RoutingDecision(
            pair_id=batch[i][0],
            chosen_arm=int(np.argmax(scores[i])),
            sampled_scores=scores[i].copy(),
            context=contexts[i].copy(),
        )
        for i in range(n_pairs)
    ]


def _decisions_by_id(
    decisions: Sequence[RoutingDecision], rewards: Mapping[str, float]
) -> dict[str, RoutingDecision]:
    """Index a batch's decisions by pair_id; every pair_id once, every reward known."""
    by_id = {dec.pair_id: dec for dec in decisions}
    if len(by_id) != len(decisions):
        counts = Counter(dec.pair_id for dec in decisions)
        repeated = sorted(pair_id for pair_id, n in counts.items() if n > 1)
        raise InputError(f"duplicate pair_id(s) in one batch: {repeated[:3]}")
    unknown = set(rewards) - set(by_id)
    if unknown:
        raise InputError(f"rewards for unknown pair_id(s): {sorted(unknown)[:3]}")
    return by_id


def observe_feedback(
    state: OnlineRouterState,
    decisions: Sequence[RoutingDecision],
    rewards: Mapping[str, float],
) -> OnlineRouterState:
    """Batch-update the arms chosen in ``decisions`` with their rewards.

    Arms that received no pair keep their exact posterior objects.  Every
    rewarded pair_id must appear among the decisions, and no pair_id twice.
    """
    by_id = _decisions_by_id(decisions, rewards)
    grouped: dict[int, list[RoutingDecision]] = {}
    for pair_id, dec in by_id.items():
        if pair_id in rewards:
            grouped.setdefault(dec.chosen_arm, []).append(dec)
    new_arms: list[ArmPosterior] = []
    for n, arm in enumerate(state.arms):
        decs = grouped.get(n)
        if not decs:
            new_arms.append(arm)
            continue
        batch = ObservationBatch(
            contexts=np.stack([dec.context for dec in decs]),
            rewards=np.array([rewards[dec.pair_id] for dec in decs]),
        )
        new_arms.append(posterior_update(arm, batch))
    counts = state.selection_counts.copy()
    for dec in decisions:
        counts[dec.chosen_arm] += 1
    return OnlineRouterState(
        arms=new_arms, config=state.config, step=state.step + 1, selection_counts=counts
    )


def decision_record(step: int, decision: RoutingDecision) -> dict:
    """Serializable decision-log row {step, pair_id, chosen_arm, sampled_scores}."""
    return {
        "step": step,
        "pair_id": decision.pair_id,
        "chosen_arm": decision.chosen_arm,
        "sampled_scores": [float(x) for x in decision.sampled_scores],
    }


# ---------------------------------------------------------------------------
# LinUCB baseline


@dataclass
class LinUcbState:
    """Per-arm ridge statistics A = I + sum(h h^T), b = sum(r h)."""

    a_matrices: list[np.ndarray]
    b_vectors: list[np.ndarray]
    step: int = 0

    @property
    def n_arms(self) -> int:
        return len(self.a_matrices)

    @property
    def d(self) -> int:
        return self.a_matrices[0].shape[0]


def init_linucb(n_arms: int, d: int) -> LinUcbState:
    if n_arms < 1 or d < 1:
        raise ConfigError("n_arms and d must be >= 1")
    return LinUcbState(
        a_matrices=[np.eye(d) for _ in range(n_arms)],
        b_vectors=[np.zeros(d) for _ in range(n_arms)],
    )


def _ucb_scores(state: LinUcbState, context: np.ndarray, alpha: float) -> np.ndarray:
    scores = np.empty(state.n_arms)
    for n in range(state.n_arms):
        try:
            theta = np.linalg.solve(state.a_matrices[n], state.b_vectors[n])
            spread = np.linalg.solve(state.a_matrices[n], context)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular design matrix for arm {n}") from exc
        scores[n] = theta @ context + alpha * np.sqrt(max(context @ spread, 0.0))
    return scores


def route_linucb(
    state: LinUcbState,
    batch: Sequence[tuple[str, PairEmbedding]],
    alpha: float,
    per_pair: bool = False,
) -> list[RoutingDecision]:
    """Upper-confidence routing; one arm for the whole batch unless per_pair."""
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    if not batch:
        return []
    contexts = _context_matrix(batch, state.d)
    decisions: list[RoutingDecision] = []
    if per_pair:
        for i, (pair_id, _) in enumerate(batch):
            scores = _ucb_scores(state, contexts[i], alpha)
            decisions.append(
                RoutingDecision(pair_id, int(np.argmax(scores)), scores, contexts[i].copy())
            )
    else:
        # batch mode: one arm for everyone, scored on the mean context
        mean_context = contexts.mean(axis=0)
        scores = _ucb_scores(state, mean_context, alpha)
        chosen = int(np.argmax(scores))
        decisions = [
            RoutingDecision(batch[i][0], chosen, scores.copy(), contexts[i].copy())
            for i in range(len(batch))
        ]
    return decisions


def update_linucb(
    state: LinUcbState,
    decisions: Sequence[RoutingDecision],
    rewards: Mapping[str, float],
) -> LinUcbState:
    by_id = _decisions_by_id(decisions, rewards)
    a_new = [a.copy() for a in state.a_matrices]
    b_new = [b.copy() for b in state.b_vectors]
    for pair_id, reward in rewards.items():
        dec = by_id[pair_id]
        h = dec.context
        a_new[dec.chosen_arm] += np.outer(h, h)
        b_new[dec.chosen_arm] += reward * h
    return LinUcbState(a_matrices=a_new, b_vectors=b_new, step=state.step + 1)


# ---------------------------------------------------------------------------
# fixed-weight score-mixing ablation


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = np.asarray(x, dtype=np.float64) - np.max(x)
    e = np.exp(shifted)
    return e / e.sum()


def route_weighted_score(
    offline_model: OfflineRouterModel,
    zero_prior_state: OnlineRouterState,
    h,
    alpha: float,
    rng: np.random.Generator,
) -> int:
    """Argmax of alpha * softmax(offline scores) + (1 - alpha) * softmax(sampled scores)."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    offline = bt_scores(offline_model, h)
    if offline.shape[0] != zero_prior_state.n_arms:
        raise DimError("offline model and online state disagree on the number of arms")
    vec = h.vector if isinstance(h, PairEmbedding) else np.asarray(h, dtype=np.float64)
    sampled = np.array(
        [sample_weight(arm, rng) @ vec for arm in zero_prior_state.arms]
    )
    mixed = alpha * softmax(offline) + (1.0 - alpha) * softmax(sampled)
    return int(np.argmax(mixed))


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
            "resample_per_pair": state.config.resample_per_pair,
        },
        "selection_counts": [int(c) for c in state.selection_counts],
        "arms": [posterior_to_dict(arm) for arm in state.arms],
    }


def state_from_dict(doc: dict) -> OnlineRouterState:
    version = doc.get("version")
    if version != STATE_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported router state version {version!r}; supported: {STATE_FORMAT_VERSION}"
        )
    cfg = doc["config"]
    config = RouterConfig(
        sigma_sq=float(cfg["sigma_sq"]),
        prior_variance=float(cfg["prior_variance"]),
        prior_mode=cfg["prior_mode"],
        resample_per_pair=bool(cfg.get("resample_per_pair", True)),
    )
    return OnlineRouterState(
        arms=[posterior_from_dict(arm) for arm in doc["arms"]],
        config=config,
        step=int(doc["step"]),
        selection_counts=np.asarray(doc["selection_counts"], dtype=np.int64),
    )


def save_state(path, state: OnlineRouterState) -> None:
    write_json(path, state_to_dict(state))


def load_state(path) -> OnlineRouterState:
    return state_from_dict(read_json(path))
