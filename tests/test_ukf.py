import math

import numpy as np
import pytest

from navfuse.errors import DecompositionFailure, InvalidScaling, SingularInnovationCov
from navfuse.ukf import (
    GaussianBelief,
    SigmaParams,
    cholesky_sqrt,
    compute_weights,
    generate_sigma_points,
    sigma_offsets,
    unscented_measurement,
    unscented_predict,
    unscented_update,
)

from oracles import LinearKalmanFilter


def random_psd(rng, n, scale=1.0):
    b = rng.standard_normal((n, n))
    return scale * (b @ b.T + n * np.eye(n))


class TestSigmaParams:
    def test_kappa_formula(self):
        p = SigmaParams(3, alpha=0.5, gamma=2.0)
        assert p.kappa == pytest.approx(0.25 * 5 - 3)

    def test_rejects_degenerate_scaling(self):
        with pytest.raises(InvalidScaling):
            SigmaParams(1, alpha=0.0)
        with pytest.raises(InvalidScaling):
            SigmaParams(2, alpha=1.0, gamma=-3.0)
        for kwargs in ({"alpha": math.nan}, {"gamma": math.nan}, {"beta": math.inf}):
            with pytest.raises(InvalidScaling, match="must be finite"):
                SigmaParams(15, **kwargs)

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidScaling):
            SigmaParams(0)


class TestWeights:
    def test_hand_computed_case(self):
        # n=1, alpha=1, gamma=1 gives kappa=1.
        w_mean, w_cov = compute_weights(SigmaParams(1, alpha=1.0, beta=2.0, gamma=1.0))
        assert w_mean[0] == pytest.approx(0.5)
        assert w_mean[1] == w_mean[2] == pytest.approx(0.25)
        assert w_cov[0] == pytest.approx(0.5 + 2.0)
        assert w_cov[1] == pytest.approx(0.25)

    def test_beta_zero_makes_center_weights_equal(self):
        w_mean, w_cov = compute_weights(SigmaParams(4, alpha=1.0, beta=0.0, gamma=1.0))
        assert w_cov[0] == pytest.approx(w_mean[0])

    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
    def test_mean_weights_sum_to_one(self, alpha, gamma, n):
        w_mean, _ = compute_weights(SigmaParams(n, alpha=alpha, gamma=gamma))
        # Tolerance scales with the weight magnitude: tiny alpha yields
        # +-1e6 weights whose sum cannot cancel below ~1e-10 in float64.
        tol = 1e-12 * max(1.0, float(np.max(np.abs(w_mean))))
        assert abs(np.sum(w_mean) - 1.0) <= tol
        assert len(w_mean) == 2 * n + 1


class TestSigmaPoints:
    def test_scalar_case_with_kappa_two(self):
        # kappa=2 via alpha=1, gamma=2 at n=1: points at 0, +-sqrt(3).
        params = SigmaParams(1, alpha=1.0, gamma=2.0)
        sp = generate_sigma_points(GaussianBelief([0.0], [[1.0]]), params)
        assert sp.points[:, 0] == pytest.approx([0.0, np.sqrt(3), -np.sqrt(3)])

    def test_zero_covariance_collapses_to_mean(self):
        params = SigmaParams(3)
        mean = np.array([1.0, -2.0, 0.5])
        sp = generate_sigma_points(GaussianBelief(mean, np.zeros((3, 3))), params)
        assert np.array_equal(sp.points, np.tile(mean, (7, 1)))

    def test_moment_reconstruction(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 6):
            params = SigmaParams(n)
            mean = rng.standard_normal(n)
            cov = random_psd(rng, n)
            sp = generate_sigma_points(GaussianBelief(mean, cov), params)
            rec_mean = sp.w_mean @ sp.points
            dev = sp.points - rec_mean
            rec_cov = (dev * sp.w_cov[:, None]).T @ dev
            np.testing.assert_allclose(rec_mean, mean, atol=1e-10)
            np.testing.assert_allclose(rec_cov, cov, rtol=1e-10, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generate_sigma_points(GaussianBelief([0.0], [[1.0]]), SigmaParams(2))

    def test_offsets_are_the_points_about_the_mean(self):
        rng = np.random.default_rng(8)
        params = SigmaParams(4, alpha=0.5)
        mean = rng.standard_normal(4)
        cov = random_psd(rng, 4)
        offsets = sigma_offsets(cov, params)
        assert offsets.shape == (4, 9)
        assert not offsets[:, 0].any()
        assert np.array_equal(offsets[:, 5:], -offsets[:, 1:5])
        sp = generate_sigma_points(GaussianBelief(mean, cov), params)
        assert np.array_equal(sp.points, mean + offsets.T)


class TestCholeskySqrt:
    def test_reproduces_matrix(self):
        rng = np.random.default_rng(2)
        cov = random_psd(rng, 5)
        s = cholesky_sqrt(cov)
        np.testing.assert_allclose(s @ s.T, cov, rtol=1e-12, atol=1e-12)

    def test_jitter_recovers_semidefinite(self):
        cov = np.diag([2.0, -5e-10])
        s = cholesky_sqrt(cov)
        assert np.all(np.isfinite(s))

    def test_indefinite_raises(self):
        with pytest.raises(DecompositionFailure):
            cholesky_sqrt(np.diag([1.0, -1.0]))


class TestPredict:
    def test_identity_transition_is_noop(self):
        rng = np.random.default_rng(9)
        belief = GaussianBelief(rng.standard_normal(3), random_psd(rng, 3))
        out = unscented_predict(belief, lambda x: x, np.zeros((3, 3)), SigmaParams(3))
        np.testing.assert_allclose(out.mean, belief.mean, atol=1e-12)
        np.testing.assert_allclose(out.cov, belief.cov, atol=1e-12)

    def test_exact_on_linear_maps(self):
        rng = np.random.default_rng(21)
        n = 3
        params = SigmaParams(n)
        for _ in range(20):
            a = rng.standard_normal((n, n))
            belief = GaussianBelief(rng.standard_normal(n), random_psd(rng, n))
            q = random_psd(rng, n, scale=0.1)
            out = unscented_predict(belief, lambda x: a @ x, q, params)
            np.testing.assert_allclose(out.mean, a @ belief.mean, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(
                out.cov, a @ belief.cov @ a.T + q, rtol=1e-10, atol=1e-9
            )

    def test_scalar_quadratic_mean(self):
        # kappa=2 at n=1; E[x^2] for a standard normal is 1 and the
        # symmetric point set reproduces it exactly.
        params = SigmaParams(1, alpha=1.0, gamma=2.0)
        belief = GaussianBelief([0.0], [[1.0]])
        out = unscented_predict(belief, lambda x: x**2, np.zeros((1, 1)), params)
        assert out.mean[0] == pytest.approx(1.0, abs=1e-12)


class TestUpdate:
    def test_zero_innovation_keeps_mean_and_contracts(self):
        rng = np.random.default_rng(31)
        n, m = 4, 2
        params = SigmaParams(n)
        belief = GaussianBelief(rng.standard_normal(n), random_psd(rng, n))
        h = np.vstack([np.eye(m), np.zeros((n - m, m))]).T
        r = np.eye(m)
        y = h @ belief.mean
        posterior, innovation = unscented_update(belief, lambda x: h @ x, r, y, params)
        np.testing.assert_allclose(innovation, 0.0, atol=1e-10)
        np.testing.assert_allclose(posterior.mean, belief.mean, atol=1e-10)
        assert np.trace(posterior.cov) < np.trace(belief.cov)

    def test_huge_noise_leaves_belief_unchanged(self):
        rng = np.random.default_rng(37)
        n = 3
        params = SigmaParams(n)
        belief = GaussianBelief(rng.standard_normal(n), random_psd(rng, n))
        r = 1e12 * np.eye(n)
        y = belief.mean + 5.0
        posterior, _ = unscented_update(belief, lambda x: x, r, y, params)
        np.testing.assert_allclose(posterior.mean, belief.mean, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(posterior.cov, belief.cov, rtol=1e-6)

    def test_matches_closed_form_kalman_filter(self):
        rng = np.random.default_rng(41)
        n, m = 4, 2
        a = rng.standard_normal((n, n))
        a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
        h = rng.standard_normal((m, n))
        q = random_psd(rng, n, scale=0.01)
        r = random_psd(rng, m, scale=0.5)
        mean0 = rng.standard_normal(n)
        cov0 = random_psd(rng, n)

        params = SigmaParams(n)
        belief = GaussianBelief(mean0, cov0)
        oracle = LinearKalmanFilter(mean0, cov0)
        for _ in range(100):
            y = rng.standard_normal(m)
            belief = unscented_predict(belief, lambda x: a @ x, q, params)
            oracle.predict(a, q)
            belief, _ = unscented_update(belief, lambda x: h @ x, r, y, params)
            oracle.update(h, r, y)
            np.testing.assert_allclose(belief.mean, oracle.mean, rtol=1e-8, atol=1e-9)
            np.testing.assert_allclose(belief.cov, oracle.cov, rtol=1e-8, atol=1e-10)

    def test_posterior_trace_never_exceeds_prior(self):
        rng = np.random.default_rng(47)
        params = SigmaParams(3)
        for _ in range(50):
            belief = GaussianBelief(rng.standard_normal(3), random_psd(rng, 3))
            r = random_psd(rng, 3, scale=rng.uniform(0.01, 10.0))
            y = rng.standard_normal(3) * 5.0
            posterior, _ = unscented_update(belief, lambda x: x, r, y, params)
            assert np.trace(posterior.cov) <= np.trace(belief.cov) + 1e-12

    def test_singular_innovation_rejected(self):
        params = SigmaParams(2)
        belief = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(SingularInnovationCov):
            # Constant measurement function with zero noise: P_y = 0.
            unscented_update(belief, lambda x: np.zeros(1), np.zeros((1, 1)), [0.0], params)

    def test_measurement_prediction_moments(self):
        rng = np.random.default_rng(43)
        n = 5
        params = SigmaParams(n)
        cov = random_psd(rng, n)
        belief = GaussianBelief(np.zeros(n), cov)
        r = np.eye(3)
        mp = unscented_measurement(belief, lambda x: x[:3], r, params)
        np.testing.assert_allclose(mp.cov, cov[:3, :3] + r, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(mp.cross_cov, cov[:, :3], rtol=1e-10, atol=1e-10)


class TestBeliefValidation:
    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 1e-6], [0.0, 1.0]])
        with pytest.raises(ValueError):
            GaussianBelief(np.zeros(2), cov)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianBelief(np.zeros(2), np.diag([1.0, -1e-3]))

    def test_small_negative_eigenvalue_tolerated(self):
        belief = GaussianBelief(np.zeros(2), np.diag([1.0, -5e-10]))
        assert belief.cov.shape == (2, 2)
