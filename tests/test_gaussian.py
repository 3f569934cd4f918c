import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from rmrouter import gaussian
from rmrouter.errors import ConfigError, DimError, InputError, NonPSDError, NumericalError
from rmrouter.gaussian import (
    GAIN_ROWS,
    ArmPosterior,
    Beliefs,
    make_prior,
    posterior_from_dict,
    posterior_to_dict,
    posterior_update,
    robust_cholesky,
    sample_scores,
    sample_weight,
    sample_weights,
    score_moments,
)
from rmrouter.serialize import dumps_doc

import per_arm


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


def naive_single_update(mean, cov, noise, h, r):
    """Independent oracle: one-observation update via plain matrix inversion."""
    prec = np.linalg.inv(cov)
    prec_new = prec + np.outer(h, h) / noise
    cov_new = np.linalg.inv(prec_new)
    mean_new = cov_new @ (prec @ mean + r * h / noise)
    return mean_new, cov_new


def information_form(mean0, prior_variance, noise, contexts, rewards):
    """Closed form: P = I / v0 + H^T H / sigma^2 and P mean = mean0 / v0 + H^T r / sigma^2."""
    precision = np.eye(len(mean0)) / prior_variance + contexts.T @ contexts / noise
    mean = np.linalg.solve(precision, mean0 / prior_variance + contexts.T @ rewards / noise)
    return mean, precision


def symmetrized_reference_update(post, contexts, rewards):
    """The Kalman step formed as before the in-place innovation: sigma^2 I via
    np.eye, a symmetrized innovation, np.linalg.cholesky and cho_solve."""
    mean, cov = post.mean, post.covariance
    for start in range(0, len(rewards), GAIN_ROWS):
        h = contexts[start : start + GAIN_ROWS]
        h_cov = h @ cov
        innovation = post.noise_variance * np.eye(len(h)) + h_cov @ h.T
        low = np.linalg.cholesky(0.5 * (innovation + innovation.T))
        gain_t = cho_solve((low, True), h_cov)
        mean = mean + gain_t.T @ (rewards[start : start + GAIN_ROWS] - h @ mean)
        cov = cov - h_cov.T @ gain_t
    return mean, 0.5 * (cov + cov.T)


def random_batch(rng, d, repeated):
    """(contexts, rewards) of k in [0, 16] rows; with ``repeated``, rows are drawn
    from k // 4 + 1 contexts."""
    k = int(rng.integers(0, 17))
    contexts = rng.standard_normal((k, d))
    if repeated:
        contexts = contexts[rng.integers(0, k // 4 + 1, size=k)]
    return contexts.reshape(k, d), rng.standard_normal(k)


class TestMakePrior:
    def test_identity_scaling(self):
        prior = make_prior(2, np.zeros(2), prior_variance=1.0, noise_variance=1.0)
        assert np.array_equal(prior.covariance, np.eye(2))
        assert np.array_equal(prior.mean, np.zeros(2))

    def test_injected_prior_variance(self):
        prior = make_prior(3, np.zeros(3), prior_variance=0.02, noise_variance=1.0)
        assert np.array_equal(prior.covariance, 0.02 * np.eye(3))

    def test_zero_prior_variance_rejected(self):
        with pytest.raises(ConfigError):
            make_prior(2, np.zeros(2), prior_variance=0.0)
        with pytest.raises(ConfigError):
            make_prior(2, np.zeros(2), prior_variance=1.0, noise_variance=-1.0)

    def test_mean_shape_checked(self):
        with pytest.raises(DimError):
            make_prior(2, np.zeros(3))

    def test_dimension_zero_rejected(self):
        with pytest.raises(DimError, match="length >= 1"):
            ArmPosterior(mean=np.zeros(0), covariance=np.zeros((0, 0)), noise_variance=1.0)


class TestSampling:
    def test_zero_covariance_rejected(self):
        # the floor alone would factor it, so the constructor checks it first
        with pytest.raises(NonPSDError, match="zero"):
            ArmPosterior(mean=np.array([0.5]), covariance=np.zeros((1, 1)), noise_variance=1.0)
        doc = posterior_to_dict(make_prior(2))
        doc["covariance"] = [0.0] * 4
        with pytest.raises(NonPSDError):
            posterior_from_dict(doc)

    def test_monte_carlo_mean(self):
        post = make_prior(2, np.zeros(2), 1.0, 1.0)
        draws = sample_weights(post, np.random.default_rng(7), 10_000)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.05)

    def test_monte_carlo_variance(self):
        post = ArmPosterior(
            mean=np.array([1.0]), covariance=np.array([[4.0]]), noise_variance=1.0
        )
        draws = sample_weights(post, np.random.default_rng(11), 10_000)
        assert abs(draws.var() - 4.0) < 0.4

    def test_seed_reproducible_bitwise(self):
        post = make_prior(4, np.arange(4.0), 0.7, 1.0)
        a = sample_weight(post, np.random.default_rng(123))
        b = sample_weight(post, np.random.default_rng(123))
        assert np.array_equal(a, b)

    @settings(deadline=None, max_examples=60)
    @given(d=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_factor_is_lower_and_matches_numpy(self, d, seed):
        mat = random_spd(np.random.default_rng(seed), d)
        low = robust_cholesky(mat)
        assert np.all(np.triu(low, 1) == 0.0)
        expected = np.linalg.cholesky(mat)
        assert np.max(np.abs(low - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_non_psd_names_pivot(self):
        bad = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NonPSDError) as exc:
            robust_cholesky(bad)
        assert exc.value.pivot == 1
        assert "pivot 1" in str(exc.value)


class TestSampleScores:
    @settings(deadline=None, max_examples=30)
    @given(d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_monte_carlo_matches_score_moments(self, d, seed):
        # h.w for w ~ N(mean, cov) has mean h.mean and variance h.cov.h
        rng = np.random.default_rng(seed)
        post = ArmPosterior(
            mean=rng.standard_normal(d),
            covariance=random_spd(rng, d, scale=1.0 / d),
            noise_variance=1.0,
        )
        contexts = rng.standard_normal((3, d))
        n = 20_000
        draws = sample_scores(post, np.repeat(contexts, n, axis=0), rng).reshape(3, n)
        mean = contexts @ post.mean
        var = np.einsum("ij,jk,ik->i", contexts, post.covariance, contexts)
        assert np.all(np.abs(draws.mean(axis=1) - mean) < 6.0 * np.sqrt(var / n))
        assert np.all(np.abs(draws.var(axis=1) / var - 1.0) < 6.0 * np.sqrt(2.0 / n))

    def test_context_dimension_checked(self):
        post = make_prior(3)
        with pytest.raises(DimError):
            sample_scores(post, np.zeros((2, 4)), np.random.default_rng(0))
        with pytest.raises(DimError):
            sample_scores(post, np.zeros(3), np.random.default_rng(0))

    def test_indefinite_direction_raises_and_rounding_reads_as_zero(self):
        # an update result skips the full check, so scoring checks the routed directions
        bad = ArmPosterior._updated(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0, 3)
        with pytest.raises(NumericalError, match="indefinite"):
            sample_scores(bad, np.array([[1.0, 1.0], [1.0, -1.0]]), np.random.default_rng(0))
        assert score_moments(bad, np.array([[1.0, 1.0]]))[1][0] == 6.0
        near = -1.0 - 1e-12  # h.cov.h = -2e-12 along (1, 1): rounding, within the bound
        post = ArmPosterior._updated(np.zeros(2), np.array([[1.0, near], [near, 1.0]]), 1.0, 3)
        assert score_moments(post, np.array([[1.0, 1.0]]))[1][0] == 0.0
        assert sample_scores(post, np.array([[1.0, 1.0]]), np.random.default_rng(0))[0] == 0.0


class TestPosteriorUpdate:
    def test_hand_worked_single_observation(self):
        post = make_prior(1, np.zeros(1), 1.0, 1.0)
        updated = posterior_update(post, [[1.0]], [1.0])
        assert abs(updated.mean[0] - 0.5) < 1e-12
        assert abs(updated.covariance[0, 0] - 0.5) < 1e-12
        assert updated.update_count == 1

    def test_empty_batch_is_identity(self):
        post = make_prior(3, np.zeros(3), 1.0, 1.0)
        updated = posterior_update(post, np.zeros((0, 3)), np.zeros(0))
        assert updated is post

    def test_batch_equals_two_sequential(self):
        rng = np.random.default_rng(5)
        post = make_prior(2, np.zeros(2), 1.0, 1.0)
        h = rng.standard_normal(2)
        together = posterior_update(post, [h, h], [0.3, -0.7])
        one = posterior_update(post, [h], [0.3])
        two = posterior_update(one, [h], [-0.7])
        assert np.allclose(together.mean, two.mean, atol=1e-8)
        assert np.allclose(together.covariance, two.covariance, atol=1e-8)

    def test_batch_matches_naive_inversion_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            cov = random_spd(rng, d)
            mean = rng.standard_normal(d)
            noise = float(rng.uniform(0.3, 2.0))
            post = ArmPosterior(mean=mean, covariance=cov, noise_variance=noise)
            k = int(rng.integers(1, 6))
            contexts = rng.standard_normal((k, d))
            rewards = rng.standard_normal(k)
            updated = posterior_update(post, contexts, rewards)
            m, c = mean.copy(), cov.copy()
            for i in range(k):
                m, c = naive_single_update(m, c, noise, contexts[i], rewards[i])
            assert np.allclose(updated.mean, m, atol=1e-8)
            assert np.allclose(updated.covariance, c, atol=1e-8)

    def test_covariance_shrinks_in_loewner_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            post = ArmPosterior(
                mean=rng.standard_normal(d),
                covariance=random_spd(rng, d),
                noise_variance=1.0,
            )
            k = int(rng.integers(1, 8))
            updated = posterior_update(post, rng.standard_normal((k, d)), rng.standard_normal(k))
            gap_eigs = np.linalg.eigvalsh(post.covariance - updated.covariance)
            assert np.all(gap_eigs >= -1e-10)

    def test_consistency_recovers_true_weight(self):
        rng = np.random.default_rng(21)
        d = 3
        w_true = rng.standard_normal(d)
        post = make_prior(d, np.zeros(d), 1.0, 1.0)
        contexts = rng.standard_normal((5000, d))
        rewards = contexts @ w_true + rng.normal(0, 1.0, size=5000)
        post = posterior_update(post, contexts, rewards)
        assert np.all(np.abs(post.mean - w_true) < 0.05)

    def test_dim_mismatch_rejected(self):
        post = make_prior(2, np.zeros(2), 1.0, 1.0)
        with pytest.raises(DimError):
            posterior_update(post, [[1.0, 2.0, 3.0]], [1.0])

    def test_mismatched_lengths_rejected(self):
        post = make_prior(1, np.zeros(1), 1.0, 1.0)
        with pytest.raises(DimError):
            posterior_update(post, [[1.0], [2.0]], [1.0])
        with pytest.raises(DimError):
            posterior_update(post, [[1.0]], 1.0)

    @pytest.mark.parametrize(
        "arms", [[1.7, 1.2], [True, True], np.ones(2), np.ones(2, dtype=bool), [None, None]]
    )
    def test_non_integer_arms_rejected(self, arms, monkeypatch):
        # a cast to int64 would truncate each of these to arm 1; nothing is
        # factorized before the refusal
        stack = Beliefs.stack([make_prior(2, np.zeros(2), 1.0, 1.0)] * 3)
        monkeypatch.setattr(gaussian, "dpotrf", None)
        with pytest.raises(InputError, match="chosen arms must be integers"):
            posterior_update(stack, np.ones((2, 2)), np.zeros(2), arms)

    def test_integer_arm_dtypes_update_alike(self):
        rng = np.random.default_rng(6)
        stack = Beliefs.stack([make_prior(2, np.zeros(2), 1.0, 1.0)] * 3)
        contexts, rewards = rng.standard_normal((6, 2)), rng.standard_normal(6)
        arms = [2, 0, 1, 2, 2, 0]
        want = posterior_update(stack, contexts, rewards, np.array(arms, dtype=np.int64))
        for chosen in (arms, np.array(arms, np.uint8), np.array(arms, np.int32)):
            got = posterior_update(stack, contexts, rewards, chosen)
            assert got.means.tobytes() == want.means.tobytes()
            assert got.covariances.tobytes() == want.covariances.tobytes()

    def test_empty_arm_list_of_an_empty_batch(self):
        # np.asarray([]) is float64; a batch without rows has no arm to misroute
        stack = Beliefs.stack([make_prior(2, np.zeros(2), 1.0, 1.0)] * 2)
        assert posterior_update(stack, np.zeros((0, 2)), [], []) is stack

    def test_non_finite_observations_rejected(self):
        # refused before any arithmetic, so no numpy warning comes first
        post = make_prior(1, np.zeros(1), 1.0, 1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            for contexts, rewards in (([[1.0]], [bad]), ([[bad]], [1.0])):
                with warnings.catch_warnings(), pytest.raises(InputError, match="finite"):
                    warnings.simplefilter("error")
                    posterior_update(post, contexts, rewards)

    def test_shapes_are_checked_before_finiteness(self):
        post = make_prior(2, np.zeros(2), 1.0, 1.0)
        with pytest.raises(DimError):
            posterior_update(post, [[float("nan")]], [float("inf")])


class TestSerialization:
    def test_round_trip_preserves_values(self):
        rng = np.random.default_rng(9)
        post = ArmPosterior(
            mean=rng.standard_normal(3),
            covariance=random_spd(rng, 3),
            noise_variance=0.5,
            update_count=7,
        )
        doc = posterior_to_dict(post)
        back = posterior_from_dict(doc)
        assert np.array_equal(back.mean, post.mean)
        assert np.array_equal(back.covariance, post.covariance)
        assert back.noise_variance == post.noise_variance
        assert back.update_count == 7

    def test_covariance_is_row_major_flat(self):
        post = ArmPosterior(
            mean=np.zeros(2),
            covariance=np.array([[2.0, 0.5], [0.5, 1.0]]),
            noise_variance=1.0,
        )
        doc = posterior_to_dict(post)
        assert doc["covariance"] == [2.0, 0.5, 0.5, 1.0]
        assert doc["version"] == 1

    def test_unsupported_version_rejected(self):
        post = make_prior(1, np.zeros(1))
        doc = posterior_to_dict(post)
        doc["version"] = 99
        with pytest.raises(ConfigError):
            posterior_from_dict(doc)


class TestTwoFieldBelief:
    def test_state_is_mean_and_covariance(self):
        names = [f.name for f in dataclasses.fields(ArmPosterior)]
        assert names == ["mean", "covariance", "noise_variance", "update_count"]

    def test_non_finite_mean_rejected(self):
        with pytest.raises(InputError):
            ArmPosterior(mean=np.array([np.nan, 0.0]), covariance=np.eye(2), noise_variance=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, bad):
        covariance = np.eye(2)
        covariance[1, 1] = bad
        with pytest.raises(InputError):
            ArmPosterior(mean=np.zeros(2), covariance=covariance, noise_variance=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_noise_variance_rejected(self, bad):
        with pytest.raises(InputError):
            ArmPosterior(mean=np.zeros(2), covariance=np.eye(2), noise_variance=bad)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(NonPSDError):
            ArmPosterior(mean=np.zeros(2), covariance=np.diag([1.0, -1.0]), noise_variance=1.0)

    def test_overflowing_update_raises_numerical_error(self):
        post = make_prior(2, np.zeros(2), 1.0, 1.0)
        with pytest.raises(NumericalError), np.errstate(over="ignore"):
            posterior_update(post, [[1e300, 1e300]], [1.0])

    def test_batch_past_gain_rows_matches_information_form(self):
        # four full chunks of GAIN_ROWS rows and one partial chunk
        k = 4 * GAIN_ROWS + 44
        rng = np.random.default_rng(4)
        d, noise, prior_variance = 5, 0.5, 2.0
        mean0 = rng.standard_normal(d)
        contexts = rng.standard_normal((k, d))
        rewards = rng.standard_normal(k)
        post = posterior_update(make_prior(d, mean0, prior_variance, noise), contexts, rewards)
        mean, precision = information_form(mean0, prior_variance, noise, contexts, rewards)
        assert post.update_count == k
        assert np.linalg.norm(post.mean - mean) <= 1e-9 * np.linalg.norm(mean)
        assert np.max(np.abs(post.covariance @ precision - np.eye(d))) <= 1e-9

    @settings(deadline=None, max_examples=60)
    @given(
        d=st.integers(1, 24),
        k=st.integers(1, 80),
        prior_scale=st.floats(0.01, 2.0),
        noise=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_symmetrized_reference(self, d, k, prior_scale, noise, seed):
        # unit-scale contexts and a prior covariance with largest eigenvalue
        # prior_scale: the regime of the replay, where both forms differ by rounding only
        rng = np.random.default_rng(seed)
        cov = random_spd(rng, d)
        cov = prior_scale * (cov + cov.T) / (2 * np.linalg.eigvalsh(cov)[-1])
        post = ArmPosterior(mean=rng.standard_normal(d), covariance=cov, noise_variance=noise)
        contexts = rng.standard_normal((k, d)) / np.sqrt(d)
        rewards = rng.standard_normal(k)
        updated = posterior_update(post, contexts, rewards)
        mean, cov_ref = symmetrized_reference_update(post, contexts, rewards)
        scale = np.linalg.norm(mean) + np.linalg.norm(post.mean)
        assert np.linalg.norm(updated.mean - mean) <= 1e-12 * scale
        assert np.max(np.abs(updated.covariance - cov_ref)) <= 1e-12 * np.max(np.abs(cov_ref))

    @settings(deadline=None, max_examples=40)
    @given(
        d=st.integers(1, 16),
        n_steps=st.integers(1, 200),
        noise=st.floats(0.1, 5.0),
        prior_variance=st.floats(0.01, 2.0),
        repeated=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_update_chain_matches_information_form(
        self, d, n_steps, noise, prior_variance, repeated, seed
    ):
        # Rows repeat inside a batch (H cov H^T is then singular), but across steps the
        # contexts span every direction, so P stays well conditioned and the bounds measure
        # drift of the covariance-form updates, not the cond(P) * eps of any inversion.
        rng = np.random.default_rng(seed)
        mean0 = rng.standard_normal(d)
        post = make_prior(d, mean0, prior_variance, noise)
        batches = [random_batch(rng, d, repeated) for _ in range(n_steps)]
        for batch in batches:
            post = posterior_update(post, *batch)
        contexts = np.concatenate([contexts for contexts, _ in batches])
        rewards = np.concatenate([rewards for _, rewards in batches])
        mean, precision = information_form(mean0, prior_variance, noise, contexts, rewards)
        assert post.update_count == len(rewards)
        assert np.linalg.norm(post.mean - mean) <= 1e-9 * np.linalg.norm(mean)
        assert np.max(np.abs(post.covariance @ precision - np.eye(d))) <= 1e-9

    @settings(deadline=None, max_examples=40)
    @given(
        d=st.integers(1, 16),
        before=st.integers(1, 20),
        after=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_save_load_continue_is_bit_identical(self, d, before, after, seed):
        rng = np.random.default_rng(seed)
        post = make_prior(d, rng.standard_normal(d), rng.uniform(0.01, 2.0), rng.uniform(0.1, 5.0))
        batches = [random_batch(rng, d, repeated=False) for _ in range(before + after)]
        for batch in batches[:before]:
            post = posterior_update(post, *batch)
        loaded = posterior_from_dict(json.loads(dumps_doc(posterior_to_dict(post))))
        for batch in batches[before:]:
            post = posterior_update(post, *batch)
            loaded = posterior_update(loaded, *batch)
        assert np.array_equal(loaded.mean, post.mean)
        assert np.array_equal(loaded.covariance, post.covariance)
        assert loaded.update_count == post.update_count


class TestUncheckedUpdateResult:
    def test_update_factors_only_the_innovation(self, monkeypatch):
        shapes = []
        factor = gaussian.robust_cholesky
        prior, rng = make_prior(5), np.random.default_rng(2)
        monkeypatch.setattr(
            gaussian, "robust_cholesky", lambda mat: shapes.append(mat.shape) or factor(mat)
        )
        posterior_update(prior, rng.standard_normal((3, 5)), rng.standard_normal(3))
        assert shapes == [(3, 3)]

    @settings(deadline=None, max_examples=40)
    @given(
        d=st.integers(1, 16),
        log_noise=st.floats(-8.0, 0.0),
        log_scale=st.floats(0.0, 6.0),
        repeats=st.integers(1, 10_000),
        extra=st.integers(0, GAIN_ROWS),
        prior_variance=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_near_singular_updates_pass_full_check_or_raise(
        self, d, log_noise, log_scale, repeats, extra, prior_variance, seed
    ):
        # noise variance down to 1e-8, one row repeated up to 1e4 times and contexts
        # scaled by up to 1e6: each GAIN_ROWS chunk either raises NumericalError or
        # gives a posterior that passes the full check and equals, bit for bit, the
        # checked constructor's result
        rng = np.random.default_rng(seed)
        post = make_prior(d, rng.standard_normal(d), prior_variance, 10.0**log_noise)
        scale = 10.0**log_scale
        contexts = scale * np.vstack(
            [np.repeat(rng.standard_normal((1, d)), repeats, axis=0),
             rng.standard_normal((extra, d))]
        )
        rewards = rng.standard_normal(len(contexts))
        for start in range(0, len(rewards), GAIN_ROWS):
            rows = slice(start, start + GAIN_ROWS)
            try:
                updated = posterior_update(post, contexts[rows], rewards[rows])
            except NumericalError:
                return
            checked = ArmPosterior(
                updated.mean, updated.covariance, updated.noise_variance, updated.update_count
            )
            for name in ("mean", "covariance", "noise_variance", "update_count"):
                ours, theirs = getattr(updated, name), getattr(checked, name)
                assert type(ours) is type(theirs)
                assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()
            post = updated


def random_beliefs(rng, n_arms, d, noise):
    """A stack of N random beliefs: unit-scale means, covariances with largest
    eigenvalue at most 2."""
    arms = []
    for _ in range(n_arms):
        cov = random_spd(rng, d)
        cov = rng.uniform(0.01, 2.0) * (cov + cov.T) / (2 * np.linalg.eigvalsh(cov)[-1])
        arms.append(ArmPosterior(rng.standard_normal(d), cov, noise, int(rng.integers(0, 5))))
    return Beliefs.stack(arms)


class TestStackedBeliefs:
    """The stacked update and scores against ``per_arm``'s arm-by-arm loops."""

    @settings(deadline=None, max_examples=80)
    @given(
        n_arms=st.integers(1, 6),
        d=st.integers(1, 8),
        k=st.integers(0, 3 * GAIN_ROWS),
        assignment=st.sampled_from(["random", "one arm", "skip arms"]),
        noise=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_update_equals_per_arm_fold(self, n_arms, d, k, assignment, noise, seed):
        # one arm may take every row (more than GAIN_ROWS of them, split over
        # windows), and some arms may get none
        rng = np.random.default_rng(seed)
        beliefs = random_beliefs(rng, n_arms, d, noise)
        contexts = rng.standard_normal((k, d)) / np.sqrt(d)
        rewards = rng.standard_normal(k)
        if assignment == "one arm":
            arms = np.full(k, rng.integers(0, n_arms))
        elif assignment == "skip arms":
            arms = rng.choice(np.arange(0, n_arms, 2), size=k)
        else:
            arms = rng.integers(0, n_arms, k)
        updated = posterior_update(beliefs, contexts, rewards, arms)
        means, covariances = per_arm.fold(
            beliefs.means, beliefs.covariances, noise, contexts, rewards, arms
        )
        counts = np.bincount(arms, minlength=n_arms)
        assert np.array_equal(updated.update_counts, beliefs.update_counts + counts)
        for n in range(n_arms):
            if not counts[n]:  # bit for bit, not re-symmetrized
                assert updated.means[n].tobytes() == beliefs.means[n].tobytes()
                assert updated.covariances[n].tobytes() == beliefs.covariances[n].tobytes()
                continue
            pairs = ((updated.means[n], means[n]), (updated.covariances[n], covariances[n]))
            for ours, want in pairs:
                assert np.max(np.abs(ours - want)) <= 1e-10 * np.max(np.abs(want))

    @settings(deadline=None, max_examples=60)
    @given(
        n_arms=st.integers(2, 6),
        d=st.integers(1, 24),
        extra=st.integers(1, 2 * GAIN_ROWS),
        assignment=st.sampled_from(["one arm", "all arms", "skip arms"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_updated_covariance_is_exactly_symmetric(
        self, n_arms, d, extra, assignment, seed
    ):
        # the downdate cov -= W^T W promises C_ij == C_ji bit for bit, for one arm
        # taking k > GAIN_ROWS rows, rows over every arm and arms with no row
        rng = np.random.default_rng(seed)
        beliefs = random_beliefs(rng, n_arms, d, 1.0)
        k = GAIN_ROWS + extra
        if assignment == "one arm":
            arms = np.full(k, rng.integers(0, n_arms))
        elif assignment == "all arms":
            arms = rng.permutation(np.arange(k) % n_arms)
        else:
            arms = rng.choice(np.arange(0, n_arms, 2), size=k)
        for _ in range(2):  # the second update starts from updated covariances
            contexts = rng.standard_normal((k, d))
            beliefs = posterior_update(beliefs, contexts, rng.standard_normal(k), arms)
            for covariance in beliefs.covariances:
                assert np.array_equal(covariance, covariance.T)

    @settings(deadline=None, max_examples=40)
    @given(
        n_arms=st.integers(1, 6),
        d=st.integers(1, 8),
        b=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_equal_per_arm_scores(self, n_arms, d, b, seed):
        rng = np.random.default_rng(seed)
        beliefs = random_beliefs(rng, n_arms, d, 1.0)
        contexts = rng.standard_normal((b, d))
        means, variances = score_moments(beliefs, contexts)
        want_means, want_variances = per_arm.score_moments(
            beliefs.means, beliefs.covariances, contexts
        )
        assert np.allclose(means, want_means, rtol=1e-12, atol=1e-12)
        assert np.allclose(variances, want_variances, rtol=1e-12, atol=1e-12)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        scores = sample_scores(beliefs, contexts, ours)
        want = per_arm.sample_scores(beliefs.means, beliefs.covariances, contexts, theirs)
        assert np.allclose(scores, want, rtol=1e-12, atol=1e-12)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_views_read_the_stack(self):
        beliefs = random_beliefs(np.random.default_rng(8), 3, 4, 0.5)
        assert beliefs.arms is beliefs.arms  # built once
        for n, arm in enumerate(beliefs.arms):
            assert np.shares_memory(arm.mean, beliefs.means)
            assert np.shares_memory(arm.covariance, beliefs.covariances)
            assert arm.noise_variance == 0.5 and arm.update_count == beliefs.update_counts[n]

    def test_stack_needs_one_dimension_and_noise(self):
        with pytest.raises(ConfigError):
            Beliefs.stack([])
        with pytest.raises(DimError):
            Beliefs.stack([make_prior(2), make_prior(3)])
        with pytest.raises(ConfigError):
            Beliefs.stack([make_prior(2), make_prior(2, noise_variance=0.5)])

    def test_innovation_failure_names_the_arm(self):
        # arm 2's covariance is indefinite along its row (an unchecked belief, as
        # a loaded or corrupted state could hold): its block of the second
        # window's innovation, 1 + h.cov.h = -1, does not factor, and
        # the failing pivot, a sorted row of that window, maps back to arm 2
        good = make_prior(2)
        bad = ArmPosterior._updated(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0, 0)
        beliefs = Beliefs.stack([good, good, bad, good])
        arms = np.array([2] + [0] * 40 + [1] * 30 + [3] * 5)
        contexts = np.random.default_rng(9).standard_normal((len(arms), 2))
        contexts[0] = [1.0, -1.0]
        with pytest.raises(NumericalError, match="innovation of arm 2 does not factor"):
            posterior_update(beliefs, contexts, np.zeros(len(arms)), arms)

    @pytest.mark.parametrize("arm", [0, 2, 3])
    def test_overflowing_mean_of_the_only_updated_arm_raises(self, arm):
        # h.cov.h = sigma^2 = 1 and the solve stays finite, but the gain
        # cov h / 2 = 5e9 takes the mean past the float range; the result check
        # scans the arms that took rows: the lowest, a middle and the highest
        beliefs = Beliefs.stack([make_prior(2, prior_variance=1e20)] * 4)
        with pytest.raises(NumericalError, match="non-finite"), np.errstate(over="ignore"):
            posterior_update(beliefs, [[1e-10, 0.0]], [1e308], [arm])
