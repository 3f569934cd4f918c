import functools
import itertools
import math
import operator
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrouter.errors import ConfigError, InputError
from rmrouter.rewards import (
    WARMUP_MIN,
    DegenerateQuantilesWarning,
    RewardHistory,
    advantage_rewards,
    batch_baseline_array,
    dpo_loss,
    normalize_step_rewards,
    sample_comparators,
)

LOG2 = math.log(2.0)


def sort_oracle_percentile(values, q):
    """Independent sort-based percentile with linear interpolation."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def sort_oracle_normalize(r, values):
    q_lo = sort_oracle_percentile(values, 20.0)
    q_hi = sort_oracle_percentile(values, 80.0)
    if q_hi == q_lo:
        return 0.5
    if r < q_lo:
        return 0.0
    if r > q_hi:
        return 1.0
    return (r - q_lo) / (q_hi - q_lo)


class TestDpoLoss:
    def test_zero_margin_gives_log2(self):
        assert abs(dpo_loss(-1.0, -1.0, -2.0, -2.0, beta=1.0) - LOG2) < 1e-12

    def test_unit_margin(self):
        # logp gap of 1 for the winner, 0 for the loser
        loss = dpo_loss(-1.0, -2.0, -2.0, -2.0, beta=1.0)
        assert abs(loss - 0.31326168751822286) < 1e-12

    def test_beta_scales_margin(self):
        assert dpo_loss(-1.0, -2.0, -2.0, -2.0, beta=2.0) == dpo_loss(
            0.0, -2.0, -2.0, -2.0, beta=1.0
        )

    def test_beta_must_be_positive(self):
        with pytest.raises(ConfigError):
            dpo_loss(0.0, 0.0, 0.0, 0.0, beta=0.0)


class TestBatchBaseline:
    def test_arithmetic_case(self):
        assert batch_baseline_array([1.0, 2.0, 3.0]).tolist() == [1.0, 0.0, -1.0]

    def test_equal_losses_all_zero(self):
        assert batch_baseline_array([0.7] * 5).tolist() == [0.0] * 5

    def test_single_pair_zero(self):
        assert batch_baseline_array([2.5]).tolist() == [0.0]

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError):
            batch_baseline_array([])

    def test_rewards_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            size = int(rng.integers(1, 65))
            total = batch_baseline_array(rng.normal(0.6, 0.3, size=size)).sum()
            assert abs(total) < 1e-9 * size

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64))
    def test_mean_is_the_left_to_right_fold(self, losses):
        # not Python 3.12's compensated sum(): rewards must not depend on the interpreter
        mean = functools.reduce(operator.add, losses, 0.0) / len(losses)
        assert batch_baseline_array(losses).tolist() == [mean - loss for loss in losses]

    def test_mean_is_not_compensated(self):
        # left to right, 1e16 + 1.0 rounds back to 1e16, so the mean is 0, not 1/3
        assert batch_baseline_array([1e16, 1.0, -1e16]).tolist() == [-1e16, -1.0, 1e16]


def quantile_normalize(r, history):
    """One reward scaled against ``history``; a step of one (which it records)."""
    normalized, _ = normalize_step_rewards([r], history)
    return float(normalized[0])


class TestQuantileNormalize:
    def make_history(self):
        # 41 evenly spaced values: 20th pct = 0.2, 80th pct = 0.8 exactly
        return RewardHistory(values=list(np.linspace(0.0, 1.0, 41)))

    def test_midpoint(self):
        # 0.2/0.8 are not exact binary, so compare at tight tolerance
        assert abs(quantile_normalize(0.5, self.make_history()) - 0.5) < 1e-12

    def test_below_low_quantile_clamps_to_zero(self):
        assert quantile_normalize(0.1, self.make_history()) == 0.0

    def test_above_high_quantile_clamps_to_one(self):
        assert quantile_normalize(0.95, self.make_history()) == 1.0

    def test_degenerate_quantiles_return_half(self):
        history = RewardHistory(values=[1.0] * 40)
        with pytest.warns(DegenerateQuantilesWarning):
            assert quantile_normalize(3.0, history) == 0.5
        assert history.degenerate_events == 1

    def test_warmup_ends_at_warmup_min_values(self):
        step = [-3.0, -0.5, 0.25, 2.0]
        normalized, bounds = normalize_step_rewards(step, RewardHistory([0.0] * (WARMUP_MIN - 1)))
        assert bounds is None
        assert normalized.tolist() == [0.0, 0.25, 0.625, 1.0]  # clip((r + 1) / 2)
        past = list(np.linspace(-1.0, 1.0, WARMUP_MIN))
        normalized, bounds = normalize_step_rewards(step, RewardHistory(past))
        assert bounds == tuple(sort_oracle_percentile(past, q) for q in (20.0, 80.0))
        assert normalized.tolist() == [sort_oracle_normalize(r, past) for r in step]

    def test_warmup_passthrough(self):
        history = RewardHistory(values=[0.0] * 10)
        assert quantile_normalize(0.0, history) == 0.5
        assert quantile_normalize(1.5, history) == 1.0
        assert quantile_normalize(-9.0, history) == 0.0

    def test_non_finite_rejected(self):
        history = self.make_history()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError):
                quantile_normalize(bad, history)
        assert history.degenerate_events == 0

    def test_non_finite_rejected_during_warmup(self):
        history = RewardHistory(values=[0.0] * 10)
        with pytest.raises(InputError):
            quantile_normalize(math.nan, history)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(1)
        history = RewardHistory(values=list(rng.normal(0, 1, size=100)))
        points = np.sort(rng.normal(0, 2, size=50))
        outputs = normalize_step_rewards(points, history)[0].tolist()
        assert all(0.0 <= v <= 1.0 for v in outputs)
        assert all(b >= a for a, b in zip(outputs, outputs[1:]))

    def test_matches_sort_oracle_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            size = int(rng.integers(32, 200))
            values = list(rng.normal(0, 1, size=size))
            history = RewardHistory(values=values)
            r = float(rng.normal(0, 1.5))
            assert quantile_normalize(r, history) == sort_oracle_normalize(r, values)

    def test_close_to_numpy_percentile(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, size=500)
        history = RewardHistory(values=list(values))
        q_lo, q_hi = history.quantile_bounds()
        assert abs(q_lo - np.percentile(values, 20)) < 1e-12
        assert abs(q_hi - np.percentile(values, 80)) < 1e-12


class TestStepNormalization:
    def test_strictly_past_history(self):
        """A step's own rewards must not influence their normalization."""
        history = RewardHistory(values=list(np.linspace(0.0, 1.0, 41)))
        raw = [0.5, 100.0]  # the huge second value would shift the quantiles if included
        normalized, bounds = normalize_step_rewards(raw, history)
        assert bounds == (0.2, 0.8)
        assert abs(normalized[0] - 0.5) < 1e-12
        assert normalized[1] == 1.0
        assert len(history) == 43  # appended after normalization

    def test_warmup_reports_no_bounds(self):
        history = RewardHistory()
        normalized, bounds = normalize_step_rewards([0.0], history)
        assert bounds is None
        assert normalized.tolist() == [0.5]

    def test_non_finite_step_leaves_history_unchanged(self):
        history = RewardHistory(values=[1.0] * 40)  # degenerate: would warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError):
                normalize_step_rewards([0.3, math.nan, 0.1], history)
        assert len(history) == 40
        assert history.degenerate_events == 0

    def test_non_finite_extend_is_atomic(self):
        history = RewardHistory(values=[0.0, 1.0])
        with pytest.raises(InputError):
            history.extend([2.0, math.inf])
        assert len(history) == 2
        assert history.quantile_bounds() == tuple(
            sort_oracle_percentile([0.0, 1.0], q) for q in (20.0, 80.0)
        )

    def test_degenerate_step_warns_and_counts_once(self):
        history = RewardHistory(values=[1.0] * 40)
        with pytest.warns(DegenerateQuantilesWarning) as record:
            normalized, bounds = normalize_step_rewards(np.arange(5.0), history)
        assert len(record) == 1
        assert history.degenerate_events == 1
        assert bounds == (1.0, 1.0)
        assert normalized.tolist() == [0.5] * 5


def bits(x):
    return struct.pack("<d", x)


# small value pools force ties and repeated values
reward_values = st.one_of(
    st.sampled_from([-1.0, -0.25, 0.0, 0.5, 2.0]),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
steps = st.lists(st.lists(reward_values, max_size=12), min_size=1, max_size=12)


class TestRewardHistoryProperties:
    @settings(deadline=None)
    @given(steps=steps)
    def test_sorted_array_tracks_values(self, steps):
        # step-by-step merges hold what one build from all the values holds
        history = RewardHistory()
        kept: list[float] = []
        for step in steps:
            history.extend(step)
            kept.extend(step)
            assert len(history) == len(kept)
            if kept:
                assert history.quantile_bounds() == RewardHistory(kept).quantile_bounds()

    @settings(deadline=None)
    @given(steps=steps)
    def test_bounds_match_sort_oracle(self, steps):
        history = RewardHistory()
        kept: list[float] = []
        for step in steps:
            history.extend(step)
            kept.extend(step)
            if kept:
                expected = tuple(sort_oracle_percentile(kept, q) for q in (20.0, 80.0))
                assert history.quantile_bounds() == expected

    @pytest.mark.filterwarnings("ignore::rmrouter.rewards.DegenerateQuantilesWarning")
    @settings(deadline=None)
    @given(
        past=st.lists(reward_values, min_size=WARMUP_MIN, max_size=WARMUP_MIN + 60),
        step=st.lists(reward_values, min_size=1, max_size=16),
    )
    def test_step_matches_per_pair_oracle_bitwise(self, past, step):
        history = RewardHistory(values=past)
        normalized, bounds = normalize_step_rewards(step, history)
        for value, r in zip(normalized.tolist(), step):
            assert bits(value) == bits(sort_oracle_normalize(r, past))
        assert bounds == (
            sort_oracle_percentile(past, 20.0),
            sort_oracle_percentile(past, 80.0),
        )
        assert len(history) == len(past) + len(step)
        assert history.quantile_bounds() == tuple(
            sort_oracle_percentile(past + step, q) for q in (20.0, 80.0)
        )


def advantage_reference(chosen_loss, comparison_losses):
    """One row's rule: 1 if the chosen loss is no greater than the comparison mean."""
    return int(chosen_loss <= np.mean(comparison_losses))


class TestAdvantageRewards:
    def test_equal_losses_reward_one(self):
        losses = np.ones(4)
        assert advantage_rewards(losses[2], losses) == 1.0

    def test_above_mean_reward_zero(self):
        losses = np.array([2.0, 1.0, 1.0, 1.0])
        assert advantage_rewards(losses[0], losses) == 0.0

    def test_below_mean_reward_one(self):
        losses = np.array([0.5, 1.0, 1.0, 1.0])
        assert advantage_rewards(losses[0], losses) == 1.0

    def test_full_rule_matches_enumeration(self):
        base = [0.2, 0.5, 0.8, 1.1]
        for perm in itertools.permutations(base):
            mean = sum(perm) / 4.0
            for chosen in range(4):
                expected = 1 if perm[chosen] <= mean else 0
                assert advantage_rewards(perm[chosen], perm) == expected

    def test_light_rule_matches_enumeration(self):
        base = [0.2, 0.5, 0.8, 1.1]
        for perm in itertools.permutations(base):
            for chosen in range(4):
                others = [perm[i] for i in range(4) if i != chosen]
                for comb in itertools.combinations(others, 3):
                    expected = 1 if perm[chosen] <= sum(comb) / 3.0 else 0
                    assert advantage_rewards(perm[chosen], comb) == expected

    def test_light_all_comparators_worse(self):
        assert advantage_rewards(0.4, [0.9, 0.8, 0.95]) == 1.0

    def test_light_all_comparators_better(self):
        assert advantage_rewards(0.9, [0.2, 0.3, 0.25]) == 0.0

    @settings(deadline=None, max_examples=80)
    @given(data=st.data(), n_rows=st.integers(1, 12), n_arms=st.integers(2, 9))
    def test_array_rule_equals_scalar_rules_row_by_row(self, data, n_rows, n_arms):
        loss = st.floats(-5.0, 5.0, allow_nan=False)
        losses = np.array(data.draw(st.lists(
            st.lists(loss, min_size=n_arms, max_size=n_arms), min_size=n_rows, max_size=n_rows
        )))
        chosen = np.array(data.draw(st.lists(
            st.integers(0, n_arms - 1), min_size=n_rows, max_size=n_rows
        )))
        rows = np.arange(n_rows)
        full = advantage_rewards(losses[rows, chosen], losses)
        assert full.tolist() == [
            advantage_reference(row[arm], row) for row, arm in zip(losses, chosen.tolist())
        ]
        chosen_losses = np.array(data.draw(st.lists(loss, min_size=n_rows, max_size=n_rows)))
        light = advantage_rewards(chosen_losses, losses)
        assert light.tolist() == [
            advantage_reference(x, row) for row, x in zip(losses, chosen_losses)
        ]

    def test_comparator_sampling(self):
        rng = np.random.default_rng(0)
        picks = sample_comparators(4, [1, 0], 3, rng)
        assert picks.tolist() == [[0, 2, 3], [1, 2, 3]]

    @settings(deadline=None, max_examples=80)
    @given(data=st.data(), n_arms=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
    def test_comparator_rows_exclude_chosen_distinct_sorted(self, data, n_arms, seed):
        c = data.draw(st.integers(1, n_arms - 1))
        chosen = data.draw(st.lists(st.integers(0, n_arms - 1), min_size=1, max_size=20))
        picks = sample_comparators(n_arms, np.array(chosen), c, np.random.default_rng(seed))
        assert picks.shape == (len(chosen), c)
        for row, arm in zip(picks.tolist(), chosen):
            assert arm not in row
            assert row == sorted(set(row))  # c distinct entries, ascending
            assert all(0 <= n < n_arms for n in row)

    def test_comparator_subsets_uniform(self):
        # N = 4, c = 2: per chosen arm, each of the three 2-subsets of the
        # other arms has probability 1/3; chi-square over all 12 cells
        per_arm = 6000
        chosen = np.repeat(np.arange(4), per_arm)
        picks = sample_comparators(4, chosen, 2, np.random.default_rng(1313))
        stat = 0.0
        for arm in range(4):
            rows = picks[chosen == arm]
            for subset in itertools.combinations([n for n in range(4) if n != arm], 2):
                observed = np.sum(np.all(rows == subset, axis=1))
                stat += (observed - per_arm / 3) ** 2 / (per_arm / 3)
        assert stat < 26.12  # chi-square 99.9% quantile, 4 * (3 - 1) = 8 degrees of freedom

    @pytest.mark.parametrize("chosen", [[4], [0, -1], [[0]]])
    def test_chosen_arm_out_of_range_rejected(self, chosen):
        with pytest.raises(InputError):
            sample_comparators(4, chosen, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("c", [0, 4, 5])
    def test_comparator_count_out_of_range_rejected(self, c):
        with pytest.raises(ConfigError):
            sample_comparators(4, [0], c, np.random.default_rng(0))
