import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrouter.errors import ConfigError, DimError, FormatError, InputError
from rmrouter.gaussian import ArmPosterior, Beliefs, posterior_from_dict
from rmrouter.offline import model_from_dict
from rmrouter.online import (
    OnlineRouterState,
    init_router,
    observe_feedback,
    route_batch,
    route_linucb,
    route_weighted_score,
    softmax,
    state_from_dict,
    state_to_dict,
    update_linucb,
)
from rmrouter.serialize import dumps_doc

import per_arm
from ridge import RidgeReference


def degenerate_state(means, sigma_sq=1.0):
    # covariance 1e-12 I: sampled scores stay within about 1e-6 of h.mean
    arms = [
        ArmPosterior(
            mean=np.asarray(m, dtype=float),
            covariance=1e-12 * np.eye(len(m)),
            noise_variance=sigma_sq,
        )
        for m in means
    ]
    return OnlineRouterState(Beliefs.stack(arms), prior_variance=1.0)


class TestInitRouter:
    def test_injected_prior_tight_covariance(self):
        prior = np.arange(6.0).reshape(3, 2)
        state = init_router(3, 2, prior_mode="injected", offline_prior=prior)
        for n, arm in enumerate(state.arms):
            assert np.array_equal(arm.mean, prior[n])
            assert np.array_equal(arm.covariance, 0.02 * np.eye(2))

    def test_zero_prior_unit_covariance(self):
        state = init_router(2, 3)
        for arm in state.arms:
            assert np.array_equal(arm.mean, np.zeros(3))
            assert np.array_equal(arm.covariance, np.eye(3))
        assert state.step == 0

    def test_wrong_prior_shape_rejected(self):
        with pytest.raises(ConfigError):
            init_router(3, 2, prior_mode="injected", offline_prior=np.zeros((2, 2)))

    def test_injected_requires_prior(self):
        with pytest.raises(ConfigError):
            init_router(2, 2, prior_mode="injected")

    def test_explicit_prior_variance_wins(self):
        state = init_router(2, 2, prior_variance=0.5)
        assert np.array_equal(state.arms[0].covariance, 0.5 * np.eye(2))


class TestRouteBatch:
    def test_degenerate_arms_reduce_to_greedy(self):
        state = degenerate_state([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        chosen, _ = route_batch(state, np.array([[1.0, 0.2]] * 5), np.random.default_rng(0))
        assert chosen.tolist() == [0] * 5
        chosen, _ = route_batch(state, np.array([[0.2, 1.0]] * 5), np.random.default_rng(0))
        assert chosen.tolist() == [1] * 5

    def test_symmetric_arms_split_evenly(self):
        state = init_router(2, 2)
        chosen, _ = route_batch(state, np.array([[1.0, 0.0]] * 10_000), np.random.default_rng(1))
        share = np.mean(chosen == 0)
        assert abs(share - 0.5) < 0.02

    def test_batch_of_64(self):
        state = init_router(4, 8)
        rng = np.random.default_rng(2)
        chosen, scores = route_batch(state, rng.standard_normal((64, 8)), rng)
        assert chosen.shape == (64,) and scores.shape == (64, 4)
        assert all(0 <= arm < 4 for arm in chosen)

    def test_does_not_mutate_state(self):
        state = init_router(2, 2)
        before = [arm.mean.copy() for arm in state.arms]
        route_batch(state, np.array([[1.0, 0.0]]), np.random.default_rng(3))
        assert state.step == 0
        for arm, mean in zip(state.arms, before):
            assert np.array_equal(arm.mean, mean)

    def test_decision_attains_max_score(self):
        rng = np.random.default_rng(4)
        state = init_router(5, 3)
        chosen, scores = route_batch(state, rng.standard_normal((50, 3)), rng)
        assert np.array_equal(scores[np.arange(50), chosen], scores.max(axis=1))

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(6)
        for c in (1e-6, 0.5, 3.0, 1e6):
            assert np.argmax(scores) == np.argmax(c * scores)

    @settings(deadline=None, max_examples=30)
    @given(
        n_arms=st.integers(1, 5),
        d=st.integers(1, 6),
        b=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_reproducible_for_a_seed(self, n_arms, d, b, seed):
        rng = np.random.default_rng(seed)
        state = init_router(n_arms, d)
        contexts = rng.standard_normal((b, d))
        chosen, _ = route_batch(state, contexts, rng)
        state = observe_feedback(state, contexts, chosen, rng.standard_normal(b))
        first = route_batch(state, contexts, np.random.default_rng(seed))
        second = route_batch(state, contexts, np.random.default_rng(seed))
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_non_finite_raw_context_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputError):
            route_batch(init_router(2, 2), np.array([[np.nan, 1.0]]), rng)


class TestObserveFeedback:
    def test_only_routed_arm_changes(self):
        state = init_router(3, 2)
        new = observe_feedback(state, np.array([[1.0, 0.0]] * 4), [1] * 4, np.ones(4))
        for n in (0, 2):
            assert new.arms[n].mean.tobytes() == state.arms[n].mean.tobytes()
            assert new.arms[n].covariance.tobytes() == state.arms[n].covariance.tobytes()
        assert not np.array_equal(new.arms[1].mean, state.arms[1].mean)
        assert new.step == 1
        assert list(new.selection_counts) == [0, 4, 0]

    def test_hand_worked_single_pair(self):
        state = init_router(2, 1)
        new = observe_feedback(state, np.array([[1.0]]), [0], [1.0])
        assert abs(new.arms[0].mean[0] - 0.5) < 1e-12
        assert abs(new.arms[0].covariance[0, 0] - 0.5) < 1e-12

    def test_merged_equals_sequential(self):
        rng = np.random.default_rng(7)
        contexts = rng.standard_normal((6, 2))
        rewards = rng.standard_normal(6)
        state = init_router(2, 2)
        merged = observe_feedback(state, contexts, [0] * 6, rewards)
        seq = observe_feedback(
            observe_feedback(state, contexts[:3], [0] * 3, rewards[:3]),
            contexts[3:], [0] * 3, rewards[3:],
        )
        assert np.allclose(merged.arms[0].mean, seq.arms[0].mean, atol=1e-8)
        assert np.allclose(merged.arms[0].covariance, seq.arms[0].covariance, atol=1e-8)

    def test_non_finite_reward_rejected(self):
        state = init_router(2, 1)
        with pytest.raises(InputError):
            observe_feedback(state, np.array([[1.0]]), [0], [float("nan")])


class TestObserveArrays:
    """observe_feedback checks a whole step's arrays before any arm changes."""

    def warm_state(self):
        rng = np.random.default_rng(3)
        state = init_router(3, 4)
        return observe_feedback(
            state, rng.standard_normal((8, 4)), rng.integers(0, 3, 8), rng.standard_normal(8)
        )

    @pytest.mark.parametrize("field", ["contexts", "rewards"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 5, 7])
    def test_non_finite_row_rejected_and_state_unchanged(self, field, bad, row):
        state = self.warm_state()
        before = state_to_dict(state)
        rng = np.random.default_rng(4)
        step = {"contexts": rng.standard_normal((8, 4)), "rewards": rng.standard_normal(8)}
        step[field][row] = bad
        with pytest.raises(InputError):
            observe_feedback(state, step["contexts"], np.arange(8) % 3, step["rewards"])
        assert state_to_dict(state) == before

    def test_mismatched_shapes_rejected(self):
        state = init_router(2, 3)
        with pytest.raises(DimError):
            observe_feedback(state, np.zeros((4, 3)), [0, 1, 0], np.zeros(4))
        with pytest.raises(DimError):
            observe_feedback(state, np.zeros((4, 2)), [0, 1, 0, 1], np.zeros(4))

    @pytest.mark.parametrize("arm", [-1, 2])
    def test_chosen_arm_out_of_range_rejected(self, arm):
        with pytest.raises(InputError):
            observe_feedback(init_router(2, 1), np.ones((2, 1)), [0, arm], np.zeros(2))
        with pytest.raises(InputError):
            observe_feedback(init_router(2, 1), np.ones((2, 1)), [arm, 0], np.zeros(2))


    @pytest.mark.parametrize(
        "chosen", [[1.7] * 5, [True] * 5, np.full(5, 1.0), np.ones(5, dtype=bool)]
    )
    def test_non_integer_arms_rejected_and_state_unchanged(self, chosen):
        # a cast to int64 would route every row to arm 1
        state = self.warm_state()
        before = state_to_dict(state)
        rng = np.random.default_rng(5)
        with pytest.raises(InputError, match="chosen arms must be integers"):
            observe_feedback(state, rng.standard_normal((5, 4)), chosen, rng.standard_normal(5))
        with pytest.raises(InputError, match="chosen arms must be integers"):
            update_linucb(state, rng.standard_normal((5, 4)), chosen, rng.standard_normal(5))
        assert state_to_dict(state) == before


class TestLinUcb:
    """LinUCB is a zero-prior router state (prior and noise variance 1) routed on
    UCB scores; :class:`ridge.RidgeReference` keeps Li et al.'s A and b."""

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError):
            route_linucb(init_router(2, 2), np.ones((3, 2)), alpha)

    def warm_state(self):
        rng = np.random.default_rng(5)
        return observe_feedback(
            init_router(3, 4), rng.standard_normal((8, 4)), rng.integers(0, 3, 8),
            rng.standard_normal(8),
        )

    @pytest.mark.parametrize("field", ["contexts", "rewards"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_update_rejected_and_state_unchanged(self, field, bad):
        state = self.warm_state()
        before = state_to_dict(state)
        rng = np.random.default_rng(6)
        step = {"contexts": rng.standard_normal((8, 4)), "rewards": rng.standard_normal(8)}
        step[field][3] = bad
        with pytest.raises(InputError):
            observe_feedback(state, step["contexts"], np.arange(8) % 3, step["rewards"])
        assert state_to_dict(state) == before

    def test_mismatched_update_shapes_rejected_and_state_unchanged(self):
        state = self.warm_state()
        before = state_to_dict(state)
        for contexts, chosen, rewards in (
            (np.ones((4, 4)), [0, 1, 2], np.zeros(4)),
            (np.ones((4, 4)), [0, 1, 2, 0], np.zeros(3)),
            (np.ones((4, 3)), [0, 1, 2, 0], np.zeros(4)),
        ):
            with pytest.raises(DimError):
                observe_feedback(state, contexts, chosen, rewards)
        assert state_to_dict(state) == before

    @settings(deadline=None, max_examples=30)
    @given(
        n_arms=st.integers(1, 4),
        d=st.integers(1, 8),
        b=st.integers(1, 12),
        steps=st.integers(1, 5),
        per_pair=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_update_and_scores_match_ridge_reference(
        self, n_arms, d, b, steps, per_pair, seed
    ):
        rng = np.random.default_rng(seed)
        state, ridge = init_router(n_arms, d), RidgeReference(n_arms, d)
        for _ in range(steps):
            contexts = rng.standard_normal((b, d))
            chosen, scores = route_linucb(state, contexts, 0.7, per_pair)
            want_chosen, want_scores = ridge.route(contexts, 0.7, per_pair)
            assert np.array_equal(chosen, want_chosen)
            assert np.allclose(scores, want_scores, rtol=1e-10, atol=1e-12)
            # arms drawn at random, not routed, so every arm's update sees mixed rows
            arms, rewards = rng.integers(0, n_arms, b), rng.standard_normal(b)
            state = observe_feedback(state, contexts, arms, rewards)
            ridge.update(contexts, arms, rewards)
        ridge.assert_posterior_matches(state)

    def test_fresh_state_ties_to_arm_zero(self):
        state = init_router(3, 2)
        chosen, _ = route_linucb(state, np.array([[1.0, 0.0]] * 4), alpha=1.0)
        assert chosen.tolist() == [0] * 4

    def test_alpha_zero_is_greedy(self):
        state = init_router(2, 2)
        state = update_linucb(state, np.array([[1.0, 0.0]]), [1], [2.0])
        chosen, scores = route_linucb(state, np.array([[1.0, 0.0]]), alpha=0.0)
        # A = I + h h^T = diag(2, 1) and b = 2 h, so theta = A^-1 b = (1, 0)
        assert chosen[0] == 1
        assert scores[0, 1] == pytest.approx(1.0)

    def test_batch_mode_single_arm_for_all(self):
        state = init_router(3, 2)
        rng = np.random.default_rng(8)
        chosen, _ = route_linucb(state, rng.standard_normal((16, 2)), alpha=1.0)
        assert len(set(chosen.tolist())) == 1

    def test_converges_to_better_arm(self):
        rng = np.random.default_rng(9)
        state = init_router(2, 2)
        chosen_log = []
        for _ in range(300):
            contexts = rng.standard_normal((4, 2)) * 0.1 + [1.0, 0.0]
            chosen, _ = route_linucb(state, contexts, alpha=0.5)
            chosen_log.append(chosen[0])
            mean = 0.8 if chosen[0] == 0 else 0.2
            state = update_linucb(state, contexts, chosen, rng.normal(mean, 0.1, size=4))
        final_share = np.mean([c == 0 for c in chosen_log[-100:]])
        assert final_share >= 0.95

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            route_linucb(init_router(2, 2), np.array([[1.0, 0.0]]), alpha=-0.1)

    def test_per_pair_mode_scores_each_context(self):
        state = init_router(2, 2)
        state = update_linucb(state, np.array([[1.0, 0.0]]), [1], [2.0])
        chosen, _ = route_linucb(state, np.eye(2), alpha=0.0, per_pair=True)
        # greedy: the trained direction routes to arm 1, the orthogonal one
        # falls back to the arm-0 tie-break
        assert chosen.tolist() == [1, 0]

    def test_non_finite_raw_context_rejected(self):
        with pytest.raises(InputError):
            route_linucb(init_router(2, 2), np.array([[np.nan, 1.0]]), alpha=1.0)


def offline_route(prior, h):
    """The offline router's choice for one context: argmax score, lowest index on ties."""
    return int(np.argmax(prior @ h))


class TestWeightedScore:
    def make_prior(self, rng, n_arms=3, d=4):
        """An (n_arms, d) ranking-head matrix, as the offline router exports it."""
        return rng.standard_normal((n_arms, d))

    def test_alpha_one_equals_offline_route(self):
        rng = np.random.default_rng(10)
        prior = self.make_prior(rng)
        state = init_router(3, 4)
        contexts = rng.standard_normal((20, 4))
        chosen = route_weighted_score(prior, state, contexts, 1.0, rng)
        assert chosen.tolist() == [offline_route(prior, h) for h in contexts]

    def test_alpha_zero_equals_thompson_single(self):
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        prior = self.make_prior(np.random.default_rng(12))
        state = init_router(3, 4)
        h = np.random.default_rng(13).standard_normal((1, 4))
        chosen_mix = route_weighted_score(prior, state, h, 0.0, rng_a)
        chosen, _ = route_batch(state, h, rng_b)
        assert chosen_mix[0] == chosen[0]

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            probs = softmax(rng.standard_normal(int(rng.integers(2, 9))) * 10)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_alpha_range_checked(self):
        rng = np.random.default_rng(15)
        prior = self.make_prior(rng)
        state = init_router(3, 4)
        with pytest.raises(ConfigError):
            route_weighted_score(prior, state, np.zeros((1, 4)), 1.5, rng)

    def test_non_finite_raw_context_rejected(self):
        rng = np.random.default_rng(16)
        prior = self.make_prior(rng, d=2)
        state = init_router(3, 2)
        with pytest.raises(InputError):
            route_weighted_score(prior, state, np.array([[np.nan, 1.0]]), 0.5, rng)
        with pytest.raises(InputError):
            route_weighted_score(prior, state, np.array([[0.0, 1.0], [np.inf, 1.0]]), 0.5, rng)

    @settings(deadline=None, max_examples=30)
    @given(
        n_arms=st.integers(1, 5),
        d=st.integers(1, 6),
        b=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_rows_match_thompson_and_offline(self, n_arms, d, b, seed):
        # alpha = 0 is per-pair Thompson routing and alpha = 1 the offline
        # router, row by row, given generators in the same state
        rng = np.random.default_rng(seed)
        prior = self.make_prior(rng, n_arms, d)
        state = init_router(n_arms, d)
        contexts = rng.standard_normal((b, d))
        chosen, _ = route_batch(state, contexts, rng)
        state = observe_feedback(state, contexts, chosen, rng.standard_normal(b))
        contexts = rng.standard_normal((b, d))
        thompson, _ = route_batch(state, contexts, np.random.default_rng(seed))
        mix_online = route_weighted_score(prior, state, contexts, 0.0, np.random.default_rng(seed))
        mix_offline = route_weighted_score(prior, state, contexts, 1.0, np.random.default_rng(seed))
        assert np.array_equal(mix_online, thompson)
        assert list(mix_offline) == [offline_route(prior, h) for h in contexts]


class TestStatePersistence:
    def test_round_trip_byte_identical(self):
        rng = np.random.default_rng(16)
        state = init_router(3, 2, prior_mode="injected", offline_prior=rng.standard_normal((3, 2)))
        contexts = rng.standard_normal((8, 2))
        chosen, _ = route_batch(state, contexts, rng)
        state = observe_feedback(state, contexts, chosen, np.full(8, 0.5))
        first = dumps_doc(state_to_dict(state))
        second = dumps_doc(state_to_dict(state_from_dict(state_to_dict(state))))
        assert first == second

    def test_version_mismatch_rejected(self):
        state = init_router(2, 2)
        doc = state_to_dict(state)
        doc["version"] = 3
        with pytest.raises(ConfigError):
            state_from_dict(doc)

    @pytest.mark.parametrize("load", [state_from_dict, posterior_from_dict, model_from_dict])
    @pytest.mark.parametrize("doc", [[1], "arms", 5])
    def test_non_object_document_rejected(self, load, doc):
        with pytest.raises(FormatError):
            load(doc)

    def test_old_per_batch_sampling_key_ignored(self):
        doc = state_to_dict(init_router(2, 2))
        doc["config"]["resample_per_pair"] = False
        assert state_to_dict(state_from_dict(doc)) == state_to_dict(init_router(2, 2))

    def test_selection_counts_persist(self):
        state = init_router(2, 2)
        state = observe_feedback(state, np.array([[1.0, 0.0]]), [1], [1.0])
        back = state_from_dict(state_to_dict(state))
        assert list(back.selection_counts) == [0, 1]
        assert back.step == 1


    def test_selection_counts_view_the_update_counts(self):
        state = observe_feedback(init_router(3, 2), np.ones((4, 2)), [2, 0, 2, 2], np.zeros(4))
        assert state.selection_counts.tolist() == state.beliefs.update_counts.tolist() == [1, 0, 3]
        with pytest.raises(ValueError):
            state.selection_counts[0] = 7

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["config"].update(sigma_sq=7.0),
            lambda doc: doc["selection_counts"].__setitem__(1, 0),
            lambda doc: doc["selection_counts"].append(0),
        ],
        ids=["sigma-sq", "selection-count", "selection-count-length"],
    )
    def test_copies_that_disagree_with_the_arms_rejected(self, edit):
        state = observe_feedback(init_router(2, 2), np.ones((3, 2)), [1, 1, 0], np.ones(3))
        doc = state_to_dict(state)
        edit(doc)
        with pytest.raises(FormatError, match="differ"):
            state_from_dict(doc)


class TestInitRouterChecks:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_prior_mean_rejected(self, value):
        prior = np.zeros((2, 3))
        prior[1, 2] = value
        with pytest.raises(ConfigError, match="finite"):
            init_router(2, 3, "injected", prior)

    @pytest.mark.parametrize(
        "options",
        [{"sigma_sq": np.nan}, {"sigma_sq": 0.0}, {"sigma_sq": np.inf},
         {"prior_variance": np.nan}, {"prior_variance": -1.0}, {"prior_variance": np.inf}],
    )
    def test_bad_variance_rejected(self, options):
        with pytest.raises(ConfigError, match="finite and positive"):
            init_router(2, 3, **options)

    def test_stack_built_directly(self):
        prior = np.arange(6.0).reshape(2, 3)
        state = init_router(2, 3, "injected", prior, sigma_sq=0.5, prior_variance=0.25)
        beliefs = state.beliefs
        assert np.array_equal(beliefs.means, prior) and beliefs.means is not prior
        assert np.array_equal(beliefs.covariances, np.stack([0.25 * np.eye(3)] * 2))
        assert beliefs.noise_variance == 0.5 and beliefs.update_counts.tolist() == [0, 0]
        assert (state.prior_variance, state.prior_mode, state.step) == (0.25, "injected", 0)


class TestSaveLoadContinue:
    @settings(deadline=None, max_examples=40)
    @given(
        n_arms=st.integers(1, 4),
        d=st.integers(1, 5),
        prior_mode=st.sampled_from(["zero", "injected"]),
        k=st.integers(0, 4),
        m=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_midway_equals_uninterrupted_run(self, n_arms, d, prior_mode, k, m, seed):
        rng = np.random.default_rng(seed)
        prior = rng.standard_normal((n_arms, d)) if prior_mode == "injected" else None
        steps = [(rng.standard_normal((5, d)), rng.standard_normal(5)) for _ in range(k + m)]

        def run(state, steps, route_rng):
            for contexts, rewards in steps:
                chosen, _ = route_batch(state, contexts, route_rng)
                state = observe_feedback(state, contexts, chosen, rewards)
            return state

        def fresh():
            return init_router(n_arms, d, prior_mode, prior, sigma_sq=0.7)

        whole = run(fresh(), steps, np.random.default_rng(seed))
        route_rng = np.random.default_rng(seed)
        saved = dumps_doc(state_to_dict(run(fresh(), steps[:k], route_rng)))
        resumed = run(state_from_dict(json.loads(saved)), steps[k:], route_rng)
        assert resumed.step == whole.step == k + m
        assert resumed.selection_counts.tolist() == whole.selection_counts.tolist()
        for name in ("means", "covariances", "update_counts"):
            assert getattr(resumed.beliefs, name).tobytes() == getattr(whole.beliefs, name).tobytes()
        assert resumed.beliefs.noise_variance == whole.beliefs.noise_variance
        assert (resumed.prior_variance, resumed.prior_mode) == (whole.prior_variance, prior_mode)
        assert dumps_doc(state_to_dict(resumed)) == dumps_doc(state_to_dict(whole))


class TestStackedRouting:
    """Every router scores all arms from one stacked product and draws in one
    call; ``per_arm`` scores and draws arm by arm."""

    def random_state(self, rng, n_arms, d):
        state = init_router(n_arms, d, "injected", rng.standard_normal((n_arms, d)), 0.7, 0.5)
        contexts = rng.standard_normal((4 * n_arms, d))
        return observe_feedback(
            state, contexts, rng.integers(0, n_arms, len(contexts)),
            rng.standard_normal(len(contexts)),
        )

    @settings(deadline=None, max_examples=30)
    @given(
        n_arms=st.integers(1, 6),
        d=st.integers(1, 6),
        b=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_thompson_and_weighted_match_per_arm_draws(self, n_arms, d, b, seed):
        rng = np.random.default_rng(seed)
        state = self.random_state(rng, n_arms, d)
        beliefs = state.beliefs
        contexts = rng.standard_normal((b, d))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        chosen, scores = route_batch(state, contexts, ours)
        want = per_arm.sample_scores(beliefs.means, beliefs.covariances, contexts, theirs)
        assert np.allclose(scores, want, rtol=1e-12, atol=1e-12)
        assert np.array_equal(chosen, np.argmax(want, axis=1))
        assert ours.bit_generator.state == theirs.bit_generator.state
        prior = TestWeightedScore().make_prior(rng, n_arms, d)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        mixed = route_weighted_score(prior, state, contexts, 0.5, ours)
        want = per_arm.sample_scores(beliefs.means, beliefs.covariances, contexts, theirs)
        offline = contexts @ prior.T
        assert np.array_equal(mixed, np.argmax(0.5 * softmax(offline) + 0.5 * softmax(want), 1))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(deadline=None, max_examples=30)
    @given(
        n_arms=st.integers(1, 6),
        d=st.integers(1, 6),
        b=st.integers(1, 16),
        per_pair=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linucb_matches_per_arm_moments(self, n_arms, d, b, per_pair, seed):
        rng = np.random.default_rng(seed)
        state = self.random_state(rng, n_arms, d)
        contexts = rng.standard_normal((b, d))
        chosen, scores = route_linucb(state, contexts, 0.7, per_pair)
        points = contexts if per_pair else contexts.mean(axis=0)[None]
        means, variances = per_arm.score_moments(
            state.beliefs.means, state.beliefs.covariances, points
        )
        want = np.broadcast_to(means + 0.7 * np.sqrt(variances), scores.shape)
        assert np.allclose(scores, want, rtol=1e-12, atol=1e-12)
        assert np.array_equal(chosen, np.argmax(want, axis=1))
