import math

import numpy as np
import pytest

from navfuse.errors import (
    DecompositionFailure,
    InvalidCovariance,
    InvalidScaling,
    SingularInnovationCov,
)
from navfuse.ukf import (
    GaussianBelief,
    SigmaParams,
    cholesky_sqrt,
    compute_weights,
    kalman_correct,
    sigma_offsets,
    unscented_predict,
    unscented_transform,
    unscented_update,
    validate_cov,
)

from oracles import LinearKalmanFilter


def random_psd(rng, n, scale=1.0):
    b = rng.standard_normal((n, n))
    return scale * (b @ b.T + n * np.eye(n))


def measurement_moments(belief, h, params):
    """The predicted measurement, its covariance without noise and the
    state-measurement cross covariance: the blocks of the one transform
    of the stacked columns [x; h(x)] that ``unscented_update`` makes."""
    n = params.n
    mean, cov = unscented_transform(
        belief.mean, belief.cov, lambda x: np.vstack([x, np.column_stack([h(c) for c in x.T])]),
        params,
    )
    return mean[n:], cov[n:, n:], cov[:n, n:]


def sigma_points(mean, cov, params):
    """The (n, 2n+1) columns that ``unscented_transform`` hands to its map."""
    seen = []

    def identity(x):
        seen.append(x)
        return x

    unscented_transform(np.asarray(mean, float), np.asarray(cov, float), identity, params)
    return seen[0]


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
        # 1e200 squares to inf; 1e154 squares to 1e308, and kappa =
        # 1e308 * 16 - 15 overflows.  A numpy scalar warns of nothing.
        for bad in (1e200, np.float64(1e200), 1e154):
            with pytest.raises(InvalidScaling, match="overflows"):
                SigmaParams(15, alpha=bad)
        assert math.isfinite(SigmaParams(15, alpha=1e150).kappa)

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

    def test_computed_once_per_params_and_read_only(self):
        w_mean, w_cov = compute_weights(SigmaParams(15, alpha=0.5))
        again = compute_weights(SigmaParams(15, alpha=0.5))
        assert again[0] is w_mean and again[1] is w_cov
        for w in (w_mean, w_cov):
            with pytest.raises(ValueError):
                w[0] = 1.0


class TestSigmaPoints:
    def test_scalar_case_with_kappa_two(self):
        # kappa=2 via alpha=1, gamma=2 at n=1: points at 0, +-sqrt(3).
        params = SigmaParams(1, alpha=1.0, gamma=2.0)
        points = sigma_points([0.0], [[1.0]], params)
        assert points[0] == pytest.approx([0.0, np.sqrt(3), -np.sqrt(3)])

    def test_zero_covariance_collapses_to_mean(self):
        params = SigmaParams(3)
        mean = np.array([1.0, -2.0, 0.5])
        points = sigma_points(mean, np.zeros((3, 3)), params)
        assert np.array_equal(points, np.tile(mean[:, None], (1, 7)))

    def test_moment_reconstruction(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 6):
            params = SigmaParams(n)
            mean = rng.standard_normal(n)
            cov = random_psd(rng, n)
            points = sigma_points(mean, cov, params)
            w_mean, w_cov = compute_weights(params)
            rec_mean = points @ w_mean
            dev = points - rec_mean[:, None]
            rec_cov = (dev * w_cov) @ dev.T
            np.testing.assert_allclose(rec_mean, mean, atol=1e-10)
            np.testing.assert_allclose(rec_cov, cov, rtol=1e-10, atol=1e-10)
            # The transform's own mean and covariance of the identity map.
            out_mean, out_cov = unscented_transform(mean, cov, lambda x: x, params)
            np.testing.assert_allclose(out_mean, mean, atol=1e-10)
            np.testing.assert_allclose(out_cov, cov, rtol=1e-10, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        # A covariance that is not (n, n) is rejected, not broadcast.
        one = GaussianBelief([0.0], [[1.0]])
        cases = [
            lambda: sigma_offsets(4.0 * np.eye(1), SigmaParams(3)),
            lambda: sigma_offsets(np.eye(3)[:, :2], SigmaParams(3)),
            lambda: sigma_points([0.0], [[1.0]], SigmaParams(2)),
            lambda: unscented_predict(one, lambda x: x, np.zeros((1, 1)), SigmaParams(3)),
            lambda: unscented_transform(one.mean, one.cov, lambda x: np.vstack([x, x]),
                                        SigmaParams(3)),
            lambda: unscented_update(one, lambda x: x, np.eye(1), [0.0], SigmaParams(3)),
        ]
        for case in cases:
            with pytest.raises(ValueError, match="does not match params.n"):
                case()

    def test_offsets_are_the_points_about_the_mean(self):
        rng = np.random.default_rng(8)
        params = SigmaParams(4, alpha=0.5)
        mean = rng.standard_normal(4)
        cov = random_psd(rng, 4)
        offsets = sigma_offsets(cov, params)
        assert offsets.shape == (4, 9)
        assert not offsets[:, 0].any()
        assert np.array_equal(offsets[:, 5:], -offsets[:, 1:5])
        points = sigma_points(mean, cov, params)
        assert np.array_equal(points, mean[:, None] + offsets)


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
        # A constant measurement function gives P_y = R: zero, then
        # positive definite with reciprocal condition 1e-15 < 1e-14.
        for r_diag in ([0.0], [1.0, 1e-15]):
            m = len(r_diag)
            with pytest.raises(SingularInnovationCov):
                unscented_update(belief, lambda x: np.zeros(m), np.diag(r_diag), np.zeros(m), params)

    def test_measurement_prediction_moments(self):
        rng = np.random.default_rng(43)
        n = 5
        params = SigmaParams(n)
        cov = random_psd(rng, n)
        belief = GaussianBelief(np.zeros(n), cov)
        _, hph, cross = measurement_moments(belief, lambda x: x[:3], params)
        np.testing.assert_allclose(hph, cov[:3, :3], rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(cross, cov[:, :3], rtol=1e-10, atol=1e-10)

    def test_nonlinear_measurement_moments_match_row_sums(self):
        # The stacked transform of [x; h(x)] against the explicit sums
        # over the points X_i and Y_i = h(X_i).
        rng = np.random.default_rng(59)
        n = 3
        params = SigmaParams(n, alpha=0.5)
        belief = GaussianBelief(rng.standard_normal(n), random_psd(rng, n, scale=0.2))

        def h(x):
            return np.array([x[0] ** 2, np.sin(x[1]), x[0] * x[2]])

        y_mean, hph, cross_cov = measurement_moments(belief, h, params)
        w_mean, w_cov = compute_weights(params)
        xs = (belief.mean[:, None] + sigma_offsets(belief.cov, params)).T
        ys = np.array([h(x) for x in xs])
        y_bar = w_mean @ ys
        cross = sum(w * np.outer(x - belief.mean, y - y_bar) for w, x, y in zip(w_cov, xs, ys))
        y_cov = sum(w * np.outer(y - y_bar, y - y_bar) for w, y in zip(w_cov, ys))
        np.testing.assert_allclose(y_mean, y_bar, rtol=1e-10)
        np.testing.assert_allclose(cross_cov, cross, rtol=1e-10)
        np.testing.assert_allclose(hph, y_cov, rtol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurement_rejected(self, bad):
        # The message that ``fuse`` gives for a non-finite fix.
        belief = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidCovariance, match="^innovation is not finite$"):
            unscented_update(belief, lambda x: x[:1], np.eye(1), [bad], SigmaParams(2))

    def test_non_finite_predicted_measurement_rejected(self):
        # The message that ``fuse`` gives for a non-finite S.
        belief = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidCovariance, match="^innovation covariance is not finite$"):
            unscented_update(belief, lambda x: np.array([np.nan]), np.eye(1), [0.0], SigmaParams(2))


class TestInnovationInverse:
    def test_matches_numpy_inverse(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            s = random_psd(rng, 3, scale=rng.uniform(1e-3, 1e3))
            # With cross = I and v the unit vectors, K v is column k of S^-1.
            s_inv = np.column_stack([
                kalman_correct(np.zeros((3, 3)), np.eye(3), s, np.zeros((3, 3)), e)[0]
                for e in np.eye(3)
            ])
            np.testing.assert_allclose(s_inv, np.linalg.inv(s), rtol=1e-12)


class TestBeliefValidation:
    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 1e-6], [0.0, 1.0]])
        with pytest.raises(ValueError):
            GaussianBelief(np.zeros(2), cov)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianBelief(np.zeros(2), np.diag([1.0, -1e-3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="^mean is not finite$"):
            GaussianBelief([bad, 0.0], np.eye(2))

    def test_small_negative_eigenvalue_tolerated(self):
        belief = GaussianBelief(np.zeros(2), np.diag([1.0, -5e-10]))
        assert belief.cov.shape == (2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, bad):
        cov = np.eye(3)
        cov[1, 2] = cov[2, 1] = bad
        with pytest.raises(InvalidCovariance, match="not finite"):
            validate_cov(cov)
