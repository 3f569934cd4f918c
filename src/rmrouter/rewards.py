"""Loss-to-reward conversion for the online router.

The default pipeline centers each pair's training loss against the batch
mean, then rescales that centered value into [0, 1] against the 20th/80th
percentiles of all previously seen centered values.  Two comparison-based
variants return a binary advantage of the chosen model against the average
loss of all models, or of a random subset of them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError

QUANTILE_LO = 20.0
QUANTILE_HI = 80.0
DEFAULT_WARMUP_MIN = 32
DEFAULT_DPO_BETA = 1.0
DEFAULT_LIGHT_COMPARATORS = 3

# synthetic per-pair losses used by the replay harness in place of a live
# policy: correct annotations land low, incorrect ones high
SURROGATE_CORRECT_MEAN = 0.4
SURROGATE_INCORRECT_MEAN = 0.9
SURROGATE_STD = 0.05


class DegenerateQuantilesWarning(RuntimeWarning):
    """Raised as a warning when the two scaling percentiles coincide."""


def dpo_loss(
    logp_policy_w: float,
    logp_ref_w: float,
    logp_policy_l: float,
    logp_ref_l: float,
    beta: float = DEFAULT_DPO_BETA,
) -> float:
    """-log sigmoid of the scaled policy/reference log-ratio margin."""
    if beta <= 0.0:
        raise ConfigError(f"beta must be positive, got {beta}")
    margin = beta * (logp_policy_w - logp_ref_w) - beta * (logp_policy_l - logp_ref_l)
    return float(np.logaddexp(0.0, -margin))


@dataclass
class PairLoss:
    pair_id: str
    loss: float

    def __post_init__(self) -> None:
        self.loss = float(self.loss)
        if not np.isfinite(self.loss):
            raise InputError(f"loss for {self.pair_id!r} is not finite")


def batch_baseline_array(losses: Sequence[float] | np.ndarray) -> np.ndarray:
    """Centered rewards: batch mean loss minus each pair's own loss (sum ~ 0).

    The mean is Python's left-to-right ``sum``, not numpy's pairwise one.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape[0] == 0:
        raise InputError("cannot compute a batch baseline over an empty batch")
    return sum(losses.tolist()) / losses.shape[0] - losses


def batch_baseline_rewards(losses: Sequence[PairLoss]) -> dict[str, float]:
    """:func:`batch_baseline_array` keyed by pair_id."""
    centered = batch_baseline_array([pl.loss for pl in losses])
    return dict(zip((pl.pair_id for pl in losses), centered.tolist()))


class RewardHistory:
    """Record of past centered rewards used for quantile scaling.

    Values are kept twice as float64 arrays: in insertion order (for
    :attr:`values`) and sorted (for :meth:`quantile_bounds`).  Appending a
    step of B values to a history of H costs O(H + B log B); reading the
    bounds costs O(1).

    Single writer: within a step, quantile reads must happen before the
    step's own rewards are appended (see :func:`normalize_step_rewards`).
    """

    def __init__(self, values: Iterable[float] = ()) -> None:
        self.degenerate_events = 0
        self._order = np.empty(0, dtype=np.float64)
        self._sorted = self._order
        self.extend(values)

    @property
    def values(self) -> list[float]:
        """The recorded values, oldest first (a copy)."""
        return self._order.tolist()

    @property
    def sorted_values(self) -> np.ndarray:
        """The recorded values in ascending order (a read-only view)."""
        view = self._sorted.view()
        view.flags.writeable = False
        return view

    def append(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Iterable[float]) -> None:
        """Validate a whole step, then merge it in; either all values land or none."""
        new = np.fromiter(values, dtype=np.float64)
        if not np.isfinite(new).all():
            raise InputError("reward history values must be finite")
        new_sorted = np.sort(new)
        self._sorted = np.insert(
            self._sorted, np.searchsorted(self._sorted, new_sorted), new_sorted
        )
        self._order = np.concatenate((self._order, new))

    def __len__(self) -> int:
        return self._order.shape[0]

    def quantile_bounds(self) -> tuple[float, float]:
        """(20th, 80th) percentiles by linear interpolation of order statistics."""
        if not len(self):
            raise InputError("reward history is empty")
        return (
            _percentile_sorted(self._sorted, QUANTILE_LO),
            _percentile_sorted(self._sorted, QUANTILE_HI),
        )


def _percentile_sorted(ordered: np.ndarray, q: float) -> float:
    # canonical linear interpolation: pos = (n - 1) * q / 100, left to right
    pos = (ordered.shape[0] - 1) * q / 100.0
    lo = int(np.floor(pos))
    hi = min(lo + 1, ordered.shape[0] - 1)
    frac = pos - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def _scaling_bounds(
    history: RewardHistory, warmup_min: int
) -> tuple[float, float] | None:
    """The history's bounds, or None while warming up; counts and warns if degenerate."""
    if len(history) < warmup_min:
        return None
    bounds = history.quantile_bounds()
    if bounds[0] == bounds[1]:
        history.degenerate_events += 1
        warnings.warn(
            "degenerate reward quantiles (q_lo == q_hi); returning 0.5",
            DegenerateQuantilesWarning,
            stacklevel=3,
        )
    return bounds


def _scale(values: np.ndarray, bounds: tuple[float, float] | None) -> np.ndarray:
    if bounds is None:
        return np.clip((values + 1.0) / 2.0, 0.0, 1.0)
    q_lo, q_hi = bounds
    if q_hi == q_lo:
        return np.full(np.shape(values), 0.5)
    return np.clip((values - q_lo) / (q_hi - q_lo), 0.0, 1.0)


def quantile_normalize(
    r: float, history: RewardHistory, warmup_min: int = DEFAULT_WARMUP_MIN
) -> float:
    """Rescale a centered reward into [0, 1] against historical percentiles.

    With fewer than ``warmup_min`` historical values the percentiles are not
    trusted yet and the reward passes through clamp((r + 1) / 2, 0, 1).  A
    non-finite reward raises :class:`InputError`.
    """
    r = float(r)
    if not math.isfinite(r):
        raise InputError("reward must be finite")
    return float(_scale(np.float64(r), _scaling_bounds(history, warmup_min)))


def normalize_step_array(
    raw: Sequence[float] | np.ndarray,
    history: RewardHistory,
    warmup_min: int = DEFAULT_WARMUP_MIN,
) -> tuple[np.ndarray, tuple[float, float] | None]:
    """Normalize one step's rewards against strictly-past history, then record them.

    Every reward in ``raw`` is scaled with the history as it stood before this
    step, in one clip; only afterwards are the raw values appended.  A
    non-finite reward raises :class:`InputError` before anything is warned,
    counted or recorded.  Returns the normalized rewards and the (q_lo, q_hi)
    bounds used, or None while warming up.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(raw).all():
        raise InputError("step rewards must be finite")
    bounds = _scaling_bounds(history, warmup_min)
    history.extend(raw)
    return _scale(raw, bounds), bounds


def normalize_step_rewards(
    raw: Mapping[str, float],
    history: RewardHistory,
    warmup_min: int = DEFAULT_WARMUP_MIN,
) -> tuple[dict[str, float], tuple[float, float] | None]:
    """:func:`normalize_step_array` keyed by pair_id."""
    normalized, bounds = normalize_step_array(list(raw.values()), history, warmup_min)
    return dict(zip(raw, normalized.tolist())), bounds


def advantage_rewards(
    chosen_losses: float | np.ndarray, comparison_losses: Sequence[float] | np.ndarray
) -> np.ndarray:
    """1.0 where a row's chosen loss is no greater than the mean of its comparison losses."""
    mean = np.asarray(comparison_losses, dtype=np.float64).mean(axis=-1)
    return (np.asarray(chosen_losses, dtype=np.float64) <= mean).astype(np.float64)


def full_advantage_reward(all_rm_losses: Sequence[float], chosen: int) -> int:
    """1 if the chosen model's loss is no greater than the mean over all models."""
    losses = np.asarray(all_rm_losses, dtype=np.float64)
    if losses.ndim != 1 or losses.shape[0] == 0:
        raise InputError("all_rm_losses must be a non-empty vector")
    if not 0 <= chosen < losses.shape[0]:
        raise InputError(f"chosen index {chosen} out of range for {losses.shape[0]} models")
    return int(advantage_rewards(losses[chosen], losses))


def light_advantage_reward(comparator_losses: Sequence[float], chosen_loss: float) -> int:
    """Same rule as the full advantage, against a sampled comparator subset."""
    comparators = np.asarray(comparator_losses, dtype=np.float64)
    if comparators.ndim != 1 or comparators.shape[0] == 0:
        raise ConfigError("need at least one comparator loss")
    return int(advantage_rewards(chosen_loss, comparators))


def sample_comparators(
    n_arms: int, chosen: Sequence[int] | np.ndarray, c: int, rng: np.random.Generator
) -> np.ndarray:
    """(B, c) distinct comparator arms per chosen arm, excluding it; rows sorted ascending.

    One (B, n_arms) draw of uniform keys with each chosen arm's key set to
    +inf: a row's c smallest keys are a uniformly random c-subset of the
    other arms.
    """
    if c < 1 or c > n_arms - 1:
        raise ConfigError(f"comparator count {c} must be in [1, {n_arms - 1}]")
    chosen = np.asarray(chosen)
    if chosen.ndim != 1 or np.any((chosen < 0) | (chosen >= n_arms)):
        raise InputError(f"chosen arms must be a vector of indices in [0, {n_arms})")
    keys = rng.random((chosen.shape[0], n_arms))
    keys[np.arange(chosen.shape[0]), chosen] = np.inf
    return np.sort(np.argpartition(keys, c - 1, axis=1)[:, :c], axis=1)


def surrogate_losses(correct: Sequence[bool] | np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Synthetic stand-ins for per-pair training losses in the replay harness.

    Correct annotations land low, incorrect ones high; the one vector draw
    consumes the generator as one draw per pair, in order, would.
    """
    means = np.where(np.asarray(correct, bool), SURROGATE_CORRECT_MEAN, SURROGATE_INCORRECT_MEAN)
    return rng.normal(means, SURROGATE_STD)


def surrogate_pair_loss(correct: bool, rng: np.random.Generator) -> float:
    """:func:`surrogate_losses` for a single pair."""
    return float(surrogate_losses([correct], rng)[0])
