"""Loss-to-reward conversion for the online router, on one step's arrays.

The default pipeline centers each pair's training loss against the batch
mean (:func:`batch_baseline_array`), then rescales that centered value into
[0, 1] against the 20th/80th percentiles of all previously seen centered
values (:func:`normalize_step_rewards` over a :class:`RewardHistory`).  Two
comparison-based variants return a binary advantage of the chosen model
against the average loss of all models, or of a random subset of them
(:func:`advantage_rewards`, with comparators from :func:`sample_comparators`).
In the replay harness, :func:`surrogate_pair_loss` stands in for the losses.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError
from .serialize import int_field, real_field

QUANTILE_LO = 20.0
QUANTILE_HI = 80.0
WARMUP_MIN = 32  # history values needed before quantile scaling
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
    """-log sigmoid of the scaled policy/reference log-ratio margin; each
    log-probability must be a finite real number."""
    beta = real_field(beta, "beta", ConfigError, positive=True)
    logps = {"logp_policy_w": logp_policy_w, "logp_ref_w": logp_ref_w,
             "logp_policy_l": logp_policy_l, "logp_ref_l": logp_ref_l}
    policy_w, ref_w, policy_l, ref_l = (
        real_field(value, name, InputError, signed=True) for name, value in logps.items())
    margin = beta * (policy_w - ref_w) - beta * (policy_l - ref_l)
    return float(np.logaddexp(0.0, -margin))


def batch_baseline_array(losses: Sequence[float] | np.ndarray) -> np.ndarray:
    """Centered rewards: batch mean loss minus each pair's own loss (sum ~ 0).

    The mean is a left-to-right sum (``np.cumsum``), not numpy's pairwise
    one nor the compensated ``sum`` of Python 3.12 and later.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape[0] == 0:
        raise InputError("cannot compute a batch baseline over an empty batch")
    return np.cumsum(losses)[-1] / losses.shape[0] - losses


class RewardHistory:
    """Record of past centered rewards used for quantile scaling.

    Values are kept once, as one sorted float64 array.  Appending a step of B
    values to a history of H costs O(H + B log B): a stable sort of the sorted
    history followed by the step sorts the step and merges the two runs.
    Reading the bounds costs O(1).  ``degenerate_events`` counts the steps
    whose two scaling percentiles coincided.

    Single writer: within a step, quantile reads must happen before the
    step's own rewards are appended (see :func:`normalize_step_rewards`).
    """

    def __init__(self, values: Sequence[float] | np.ndarray = ()) -> None:
        self.degenerate_events = 0
        self._sorted = np.empty(0, dtype=np.float64)
        self.extend(values)

    def extend(self, values: Sequence[float] | np.ndarray) -> None:
        """Validate a whole step, then merge it in; either all values land or none."""
        new = np.asarray(values, dtype=np.float64)
        if new.ndim != 1 or not np.isfinite(new).all():
            raise InputError("reward history values must be a vector of finite numbers")
        # the stable sort (timsort) merges the sorted history with the step's run;
        # concatenate copies, so the caller may reuse its array
        self._sorted = np.sort(np.concatenate((self._sorted, new)), kind="stable")

    def __len__(self) -> int:
        return self._sorted.shape[0]

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


def _scaling_bounds(history: RewardHistory) -> tuple[float, float] | None:
    """The history's bounds, or None while warming up; counts and warns if degenerate."""
    if len(history) < WARMUP_MIN:
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


def normalize_step_rewards(
    raw: Sequence[float] | np.ndarray,
    history: RewardHistory,
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
    bounds = _scaling_bounds(history)
    history.extend(raw)
    return _scale(raw, bounds), bounds


def advantage_rewards(
    chosen_losses: float | np.ndarray, comparison_losses: Sequence[float] | np.ndarray
) -> np.ndarray:
    """1.0 where a row's chosen loss is no greater than the mean of its comparison losses."""
    mean = np.asarray(comparison_losses, dtype=np.float64).mean(axis=-1)
    return (np.asarray(chosen_losses, dtype=np.float64) <= mean).astype(np.float64)


def sample_comparators(
    n_arms: int, chosen: Sequence[int] | np.ndarray, c: int, rng: np.random.Generator
) -> np.ndarray:
    """(B, c) distinct comparator arms per chosen arm, excluding it; rows sorted ascending.

    One (B, n_arms) draw of uniform keys with each chosen arm's key set to
    +inf: a row's c smallest keys are a uniformly random c-subset of the
    other arms.
    """
    if not 1 <= int_field(c, "comparator count", ConfigError) <= n_arms - 1:
        raise ConfigError(f"comparator count {c} must be in [1, {n_arms - 1}]")
    chosen = np.asarray(chosen)
    if chosen.ndim != 1 or np.any((chosen < 0) | (chosen >= n_arms)):
        raise InputError(f"chosen arms must be a vector of indices in [0, {n_arms})")
    keys = rng.random((chosen.shape[0], n_arms))
    keys[np.arange(chosen.shape[0]), chosen] = np.inf
    return np.sort(np.argpartition(keys, c - 1, axis=1)[:, :c], axis=1)


def surrogate_pair_loss(
    correct: Sequence[bool] | np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Synthetic stand-ins for the training loss of each pair in the replay harness.

    Correct annotations land low, incorrect ones high; the one vector draw
    consumes the generator as one draw per pair, in order, would.  The values
    and the generator state equal ``rng.normal(means, SURROGATE_STD)``'s,
    which forms the same mean + std * z, at a third of its cost.
    """
    means = np.where(np.asarray(correct, bool), SURROGATE_CORRECT_MEAN, SURROGATE_INCORRECT_MEAN)
    return means + SURROGATE_STD * rng.standard_normal(means.shape)
