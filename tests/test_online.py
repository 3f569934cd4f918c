import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrouter.errors import ConfigError, DimError, InputError
from rmrouter.features import PairEmbedding
from rmrouter.gaussian import ArmPosterior
from rmrouter.offline import OfflineRouterModel, route_offline
from rmrouter.online import (
    OnlineRouterState,
    RouterConfig,
    RoutingDecision,
    init_router,
    observe_arrays,
    observe_feedback,
    route_batch,
    route_linucb,
    route_linucb_arrays,
    route_weighted_batch,
    route_weighted_score,
    softmax,
    state_from_dict,
    state_to_dict,
    update_linucb,
)
from rmrouter.serialize import dumps_doc

from ridge import RidgeReference


def embeddings_of(rows):
    return [(f"p{i}", PairEmbedding.of(np.asarray(row, dtype=float))) for i, row in enumerate(rows)]


def degenerate_state(means, sigma_sq=1.0):
    arms = [
        ArmPosterior(
            mean=np.asarray(m, dtype=float),
            covariance=np.zeros((len(m), len(m))),
            noise_variance=sigma_sq,
            degenerate=True,
        )
        for m in means
    ]
    return OnlineRouterState(arms=arms, config=RouterConfig(sigma_sq=sigma_sq))


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
        batch = embeddings_of([[1.0, 0.2]] * 5)
        decisions = route_batch(state, batch, np.random.default_rng(0))
        assert all(dec.chosen_arm == 0 for dec in decisions)
        batch = embeddings_of([[0.2, 1.0]] * 5)
        decisions = route_batch(state, batch, np.random.default_rng(0))
        assert all(dec.chosen_arm == 1 for dec in decisions)

    def test_symmetric_arms_split_evenly(self):
        state = init_router(2, 2)
        batch = embeddings_of([[1.0, 0.0]] * 10_000)
        decisions = route_batch(state, batch, np.random.default_rng(1))
        share = np.mean([dec.chosen_arm == 0 for dec in decisions])
        assert abs(share - 0.5) < 0.02

    def test_batch_of_64(self):
        state = init_router(4, 8)
        rng = np.random.default_rng(2)
        batch = embeddings_of(rng.standard_normal((64, 8)))
        decisions = route_batch(state, batch, rng)
        assert len(decisions) == 64
        assert all(0 <= dec.chosen_arm < 4 for dec in decisions)

    def test_does_not_mutate_state(self):
        state = init_router(2, 2)
        before = [arm.mean.copy() for arm in state.arms]
        route_batch(state, embeddings_of([[1.0, 0.0]]), np.random.default_rng(3))
        assert state.step == 0
        for arm, mean in zip(state.arms, before):
            assert np.array_equal(arm.mean, mean)

    def test_decision_attains_max_score(self):
        rng = np.random.default_rng(4)
        state = init_router(5, 3)
        batch = embeddings_of(rng.standard_normal((50, 3)))
        for dec in route_batch(state, batch, rng):
            assert dec.sampled_scores[dec.chosen_arm] == dec.sampled_scores.max()

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(6)
        for c in (1e-6, 0.5, 3.0, 1e6):
            assert np.argmax(scores) == np.argmax(c * scores)

    def test_invalid_decision_rejected(self):
        with pytest.raises(InputError):
            RoutingDecision("p", 0, np.array([0.0, 1.0]), np.zeros(2))

    def test_per_batch_sampling_mode(self):
        state = init_router(
            3, 2, resample_per_pair=False
        )
        batch = embeddings_of([[1.0, 0.0]] * 20)
        decisions = route_batch(state, batch, np.random.default_rng(6))
        # one weight sample per arm for the whole batch: identical context
        # rows must agree on the chosen arm
        assert len({dec.chosen_arm for dec in decisions}) == 1

    @settings(deadline=None, max_examples=30)
    @given(
        n_arms=st.integers(1, 5),
        d=st.integers(1, 6),
        b=st.integers(1, 16),
        resample=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_reproducible_for_a_seed(self, n_arms, d, b, resample, seed):
        rng = np.random.default_rng(seed)
        state = init_router(n_arms, d, resample_per_pair=resample)
        batch = embeddings_of(rng.standard_normal((b, d)))
        state = observe_feedback(
            state, route_batch(state, batch, rng), {pid: float(rng.normal()) for pid, _ in batch}
        )
        first = route_batch(state, batch, np.random.default_rng(seed))
        second = route_batch(state, batch, np.random.default_rng(seed))
        for x, y in zip(first, second):
            assert x.chosen_arm == y.chosen_arm
            assert np.array_equal(x.sampled_scores, y.sampled_scores)

    def test_non_finite_raw_context_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputError):
            route_batch(init_router(2, 2), [("p", np.array([np.nan, 1.0]))], rng)


class TestObserveFeedback:
    def test_only_routed_arm_changes(self):
        state = init_router(3, 2)
        context = np.array([1.0, 0.0])
        decisions = [
            RoutingDecision(f"p{i}", 1, np.array([0.0, 1.0, 0.5]), context) for i in range(4)
        ]
        rewards = {f"p{i}": 1.0 for i in range(4)}
        new = observe_feedback(state, decisions, rewards)
        assert new.arms[0] is state.arms[0]
        assert new.arms[2] is state.arms[2]
        assert not np.array_equal(new.arms[1].mean, state.arms[1].mean)
        assert new.step == 1
        assert list(new.selection_counts) == [0, 4, 0]

    def test_hand_worked_single_pair(self):
        state = init_router(2, 1)
        decisions = [RoutingDecision("p0", 0, np.array([1.0, 0.0]), np.array([1.0]))]
        new = observe_feedback(state, decisions, {"p0": 1.0})
        assert abs(new.arms[0].mean[0] - 0.5) < 1e-12
        assert abs(new.arms[0].covariance[0, 0] - 0.5) < 1e-12

    def test_merged_equals_sequential(self):
        rng = np.random.default_rng(7)
        contexts = rng.standard_normal((6, 2))
        rewards_a = {f"a{i}": float(rng.normal()) for i in range(3)}
        rewards_b = {f"b{i}": float(rng.normal()) for i in range(3)}
        dec_a = [
            RoutingDecision(f"a{i}", 0, np.array([1.0, 0.0]), contexts[i]) for i in range(3)
        ]
        dec_b = [
            RoutingDecision(f"b{i}", 0, np.array([1.0, 0.0]), contexts[3 + i]) for i in range(3)
        ]
        state = init_router(2, 2)
        merged = observe_feedback(state, dec_a + dec_b, {**rewards_a, **rewards_b})
        seq = observe_feedback(observe_feedback(state, dec_a, rewards_a), dec_b, rewards_b)
        assert np.allclose(merged.arms[0].mean, seq.arms[0].mean, atol=1e-8)
        assert np.allclose(merged.arms[0].covariance, seq.arms[0].covariance, atol=1e-8)

    def test_unknown_pair_id_rejected(self):
        state = init_router(2, 1)
        decisions = [RoutingDecision("p0", 0, np.array([1.0, 0.0]), np.array([1.0]))]
        with pytest.raises(InputError):
            observe_feedback(state, decisions, {"mystery": 1.0})

    def test_unrewarded_pair_counts_but_does_not_update(self):
        state = init_router(2, 1)
        scores = np.array([1.0, 0.0])
        decisions = [
            RoutingDecision("a", 0, scores, np.array([1.0])),
            RoutingDecision("b", 0, scores, np.array([1.0])),
        ]
        partial = observe_feedback(state, decisions, {"a": 1.0})
        only_a = observe_feedback(state, decisions[:1], {"a": 1.0})
        assert np.array_equal(partial.arms[0].mean, only_a.arms[0].mean)
        assert partial.arms[0].update_count == 1
        assert list(partial.selection_counts) == [2, 0]

    def test_duplicate_pair_id_rejected(self):
        state = init_router(3, 1)
        scores = np.array([1.0, 0.0, 0.0])
        decisions = [
            RoutingDecision("a", 0, scores, np.array([1.0])),
            RoutingDecision("a", 0, scores, np.array([1.0])),
            RoutingDecision("b", 0, scores, np.array([1.0])),
        ]
        with pytest.raises(InputError, match="duplicate"):
            observe_feedback(state, decisions, {"a": 1.0, "b": 0.5})

    def test_non_finite_reward_rejected(self):
        state = init_router(2, 1)
        decisions = [RoutingDecision("b", 0, np.array([1.0, 0.0]), np.array([1.0]))]
        with pytest.raises(InputError):
            observe_feedback(state, decisions, {"b": float("nan")})


class TestObserveArrays:
    def warm_state(self):
        rng = np.random.default_rng(3)
        state = init_router(3, 4)
        return observe_arrays(
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
            observe_arrays(state, step["contexts"], np.arange(8) % 3, step["rewards"])
        assert state_to_dict(state) == before

    def test_mismatched_shapes_rejected(self):
        state = init_router(2, 3)
        with pytest.raises(DimError):
            observe_arrays(state, np.zeros((4, 3)), [0, 1, 0], np.zeros(4))
        with pytest.raises(DimError):
            observe_arrays(state, np.zeros((4, 2)), [0, 1, 0, 1], np.zeros(4))

    @pytest.mark.parametrize("arm", [-1, 2])
    def test_chosen_arm_out_of_range_rejected(self, arm):
        with pytest.raises(InputError):
            observe_arrays(init_router(2, 1), np.ones((2, 1)), [0, arm], np.zeros(2))
        with pytest.raises(InputError):
            observe_arrays(init_router(2, 1), np.ones((2, 1)), [arm, 0], np.zeros(2))


class TestLinUcb:
    """LinUCB is a zero-prior router state (prior and noise variance 1) routed on
    UCB scores; :class:`ridge.RidgeReference` keeps Li et al.'s A and b."""

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError):
            route_linucb_arrays(init_router(2, 2), np.ones((3, 2)), alpha)

    def warm_state(self):
        rng = np.random.default_rng(5)
        return observe_arrays(
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
            observe_arrays(state, step["contexts"], np.arange(8) % 3, step["rewards"])
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
                observe_arrays(state, contexts, chosen, rewards)
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
            chosen, scores = route_linucb_arrays(state, contexts, 0.7, per_pair)
            want_chosen, want_scores = ridge.route(contexts, 0.7, per_pair)
            assert np.array_equal(chosen, want_chosen)
            assert np.allclose(scores, want_scores, rtol=1e-10, atol=1e-12)
            # arms drawn at random, not routed, so every arm's update sees mixed rows
            arms, rewards = rng.integers(0, n_arms, b), rng.standard_normal(b)
            state = observe_arrays(state, contexts, arms, rewards)
            ridge.update(contexts, arms, rewards)
        ridge.assert_posterior_matches(state)

    def test_fresh_state_ties_to_arm_zero(self):
        state = init_router(3, 2)
        decisions = route_linucb(state, embeddings_of([[1.0, 0.0]] * 4), alpha=1.0)
        assert all(dec.chosen_arm == 0 for dec in decisions)

    def test_alpha_zero_is_greedy(self):
        state = init_router(2, 2)
        h = np.array([1.0, 0.0])
        dec = [RoutingDecision("p", 1, np.array([0.0, 1.0]), h)]
        state = update_linucb(state, dec, {"p": 2.0})
        decisions = route_linucb(state, embeddings_of([[1.0, 0.0]]), alpha=0.0)
        # A = I + h h^T = diag(2, 1) and b = 2 h, so theta = A^-1 b = (1, 0)
        assert decisions[0].chosen_arm == 1
        assert decisions[0].sampled_scores[1] == pytest.approx(1.0)

    def test_batch_mode_single_arm_for_all(self):
        state = init_router(3, 2)
        rng = np.random.default_rng(8)
        decisions = route_linucb(state, embeddings_of(rng.standard_normal((16, 2))), alpha=1.0)
        assert len({dec.chosen_arm for dec in decisions}) == 1

    def test_converges_to_better_arm(self):
        rng = np.random.default_rng(9)
        state = init_router(2, 2)
        chosen_log = []
        for _ in range(300):
            batch = embeddings_of(rng.standard_normal((4, 2)) * 0.1 + [1.0, 0.0])
            decisions = route_linucb(state, batch, alpha=0.5)
            chosen = decisions[0].chosen_arm
            chosen_log.append(chosen)
            mean = 0.8 if chosen == 0 else 0.2
            rewards = {pid: float(rng.normal(mean, 0.1)) for pid, _ in batch}
            state = update_linucb(state, decisions, rewards)
        final_share = np.mean([c == 0 for c in chosen_log[-100:]])
        assert final_share >= 0.95

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            route_linucb(init_router(2, 2), embeddings_of([[1.0, 0.0]]), alpha=-0.1)

    def test_per_pair_mode_scores_each_context(self):
        state = init_router(2, 2)
        h = np.array([1.0, 0.0])
        dec = [RoutingDecision("p", 1, np.array([0.0, 1.0]), h)]
        state = update_linucb(state, dec, {"p": 2.0})
        batch = embeddings_of([[1.0, 0.0], [0.0, 1.0]])
        decisions = route_linucb(state, batch, alpha=0.0, per_pair=True)
        # greedy: the trained direction routes to arm 1, the orthogonal one
        # falls back to the arm-0 tie-break
        assert [d.chosen_arm for d in decisions] == [1, 0]

    def test_non_finite_raw_context_rejected(self):
        with pytest.raises(InputError):
            route_linucb(init_router(2, 2), [("p", np.array([np.nan, 1.0]))], alpha=1.0)


class TestWeightedScore:
    def make_offline(self, rng, n_arms=3, d=4):
        return OfflineRouterModel(
            fusion=None,
            bt_embeddings=rng.standard_normal((n_arms, d)),
            cls_embeddings=np.zeros((n_arms, d)),
            lam=0.0,
            n_arms=n_arms,
        )

    def test_alpha_one_equals_offline_route(self):
        rng = np.random.default_rng(10)
        model = self.make_offline(rng)
        state = init_router(3, 4)
        for _ in range(20):
            h = PairEmbedding.of(rng.standard_normal(4))
            assert route_weighted_score(model, state, h, 1.0, rng) == route_offline(model, h)

    def test_alpha_zero_equals_thompson_single(self):
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        model = self.make_offline(np.random.default_rng(12))
        state = init_router(3, 4)
        h = PairEmbedding.of(np.random.default_rng(13).standard_normal(4))
        chosen_mix = route_weighted_score(model, state, h, 0.0, rng_a)
        decisions = route_batch(state, [("p", h)], rng_b)
        assert chosen_mix == decisions[0].chosen_arm

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            probs = softmax(rng.standard_normal(int(rng.integers(2, 9))) * 10)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_alpha_range_checked(self):
        rng = np.random.default_rng(15)
        model = self.make_offline(rng)
        state = init_router(3, 4)
        with pytest.raises(ConfigError):
            route_weighted_score(model, state, PairEmbedding.of(np.zeros(4)), 1.5, rng)

    def test_non_finite_raw_context_rejected(self):
        rng = np.random.default_rng(16)
        model = self.make_offline(rng, d=2)
        state = init_router(3, 2)
        with pytest.raises(InputError):
            route_weighted_score(model, state, np.array([np.nan, 1.0]), 0.5, rng)
        with pytest.raises(InputError):
            route_weighted_batch(model, state, np.array([[0.0, 1.0], [np.inf, 1.0]]), 0.5, rng)

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
        model = self.make_offline(rng, n_arms, d)
        state = init_router(n_arms, d)
        batch = embeddings_of(rng.standard_normal((b, d)))
        state = observe_feedback(
            state, route_batch(state, batch, rng), {pid: float(rng.normal()) for pid, _ in batch}
        )
        contexts = rng.standard_normal((b, d))
        thompson = route_batch(state, embeddings_of(contexts), np.random.default_rng(seed))
        mix_online = route_weighted_batch(model, state, contexts, 0.0, np.random.default_rng(seed))
        mix_offline = route_weighted_batch(model, state, contexts, 1.0, np.random.default_rng(seed))
        assert list(mix_online) == [dec.chosen_arm for dec in thompson]
        assert list(mix_offline) == [route_offline(model, h) for h in contexts]


class TestStatePersistence:
    def test_round_trip_byte_identical(self):
        rng = np.random.default_rng(16)
        state = init_router(3, 2, prior_mode="injected", offline_prior=rng.standard_normal((3, 2)))
        batch = embeddings_of(rng.standard_normal((8, 2)))
        decisions = route_batch(state, batch, rng)
        state = observe_feedback(state, decisions, {pid: 0.5 for pid, _ in batch})
        first = dumps_doc(state_to_dict(state))
        second = dumps_doc(state_to_dict(state_from_dict(state_to_dict(state))))
        assert first == second

    def test_version_mismatch_rejected(self):
        state = init_router(2, 2)
        doc = state_to_dict(state)
        doc["version"] = 3
        with pytest.raises(ConfigError):
            state_from_dict(doc)

    def test_selection_counts_persist(self):
        state = init_router(2, 2)
        decisions = [
            RoutingDecision("p0", 1, np.array([0.0, 1.0]), np.array([1.0, 0.0])),
        ]
        state = observe_feedback(state, decisions, {"p0": 1.0})
        back = state_from_dict(state_to_dict(state))
        assert list(back.selection_counts) == [0, 1]
        assert back.step == 1
