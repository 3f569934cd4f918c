import numpy as np
import pytest

from rmrouter.errors import ConfigError, DimError, InputError, NonPSDError, NumericalError
from rmrouter.gaussian import (
    ArmPosterior,
    ObservationBatch,
    make_prior,
    posterior_from_dict,
    posterior_to_dict,
    posterior_update,
    robust_cholesky,
    sample_weight,
    sample_weights,
)


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


class TestSampling:
    def test_degenerate_returns_mean(self):
        post = ArmPosterior(
            mean=np.array([0.5]), covariance=np.zeros((1, 1)), noise_variance=1.0, degenerate=True
        )
        w = sample_weight(post, np.random.default_rng(0))
        assert np.array_equal(w, np.array([0.5]))

    def test_degenerate_needs_flag(self):
        with pytest.raises(NonPSDError):
            ArmPosterior(mean=np.array([0.5]), covariance=np.zeros((1, 1)), noise_variance=1.0)

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

    def test_non_psd_names_pivot(self):
        bad = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NonPSDError) as exc:
            robust_cholesky(bad)
        assert exc.value.pivot == 1
        assert "pivot 1" in str(exc.value)


class TestPosteriorUpdate:
    def test_hand_worked_single_observation(self):
        post = make_prior(1, np.zeros(1), 1.0, 1.0)
        updated = posterior_update(post, ObservationBatch([[1.0]], [1.0]))
        assert abs(updated.mean[0] - 0.5) < 1e-12
        assert abs(updated.covariance[0, 0] - 0.5) < 1e-12
        assert updated.update_count == 1

    def test_empty_batch_is_identity(self):
        post = make_prior(3, np.zeros(3), 1.0, 1.0)
        updated = posterior_update(post, ObservationBatch.empty(3))
        assert updated is post

    def test_batch_equals_two_sequential(self):
        rng = np.random.default_rng(5)
        post = make_prior(2, np.zeros(2), 1.0, 1.0)
        h = rng.standard_normal(2)
        batch = ObservationBatch([h, h], [0.3, -0.7])
        together = posterior_update(post, batch)
        one = posterior_update(post, ObservationBatch([h], [0.3]))
        two = posterior_update(one, ObservationBatch([h], [-0.7]))
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
            updated = posterior_update(post, ObservationBatch(contexts, rewards))
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
            batch = ObservationBatch(rng.standard_normal((k, d)), rng.standard_normal(k))
            updated = posterior_update(post, batch)
            gap_eigs = np.linalg.eigvalsh(post.covariance - updated.covariance)
            assert np.all(gap_eigs >= -1e-10)

    def test_consistency_recovers_true_weight(self):
        rng = np.random.default_rng(21)
        d = 3
        w_true = rng.standard_normal(d)
        post = make_prior(d, np.zeros(d), 1.0, 1.0)
        contexts = rng.standard_normal((5000, d))
        rewards = contexts @ w_true + rng.normal(0, 1.0, size=5000)
        post = posterior_update(post, ObservationBatch(contexts, rewards))
        assert np.all(np.abs(post.mean - w_true) < 0.05)

    def test_dim_mismatch_rejected(self):
        post = make_prior(2, np.zeros(2), 1.0, 1.0)
        with pytest.raises(DimError):
            posterior_update(post, ObservationBatch([[1.0, 2.0, 3.0]], [1.0]))

    def test_degenerate_cannot_update(self):
        post = ArmPosterior(
            mean=np.zeros(1), covariance=np.zeros((1, 1)), noise_variance=1.0, degenerate=True
        )
        with pytest.raises(NumericalError):
            posterior_update(post, ObservationBatch([[1.0]], [1.0]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimError):
            ObservationBatch([[1.0], [2.0]], [1.0])

    def test_non_finite_observations_rejected(self):
        with pytest.raises(InputError):
            ObservationBatch([[1.0]], [float("nan")])
        with pytest.raises(InputError):
            ObservationBatch([[float("inf")]], [1.0])


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
