"""The fused prediction kernel against an independent sigma-point recursion.

``oracles.reference_predict`` retracts, propagates, averages and takes
deviations with ``scipy.spatial.transform.Rotation``, using no quaternion
or strapdown code of navfuse; ``fusion._predict`` must give the same
mean and covariance to 1e-11 relative.  A sigma-point mean is a sum of
terms of about one standard deviation that cancel, so "relative" is
taken against |value| plus that standard deviation for the state, and
against sqrt(P_ii P_jj) for the covariance entry P_ij.
"""

import numpy as np
import pytest
from oracles import reference_iterated_mean, reference_predict

import navfuse.fusion as fusion
import navfuse.ukf as ukf
from navfuse.errors import DecompositionFailure
from navfuse.fusion import FusionConfig, run_fusion
from navfuse.simulate import SensorCorruption, TrajectoryProfile, corrupt, generate_truth
from navfuse.strapdown import ImuStream, process_noise_diag
from navfuse.ukf import compute_weights

RTOL = 1e-11
CFG = FusionConfig()
PARAMS = CFG.sigma_params()
W_MEAN, W_COV = compute_weights(PARAMS)
DT = 0.01
# Gyro and accelerometer readings of a turning, accelerating vehicle.
TURNING = (np.array([0.2, 0.1, -0.4]), np.array([1.0, -0.5, 9.7]))


def assert_within(diff, scale):
    ratio = diff / np.maximum(scale, 1e-300)
    assert np.all(diff <= RTOL * scale), f"worst relative difference {ratio.max():.3e}"


def assert_matches(kernel, oracle):
    (mean_k, cov_k), (mean_o, cov_o) = kernel, oracle
    sd = np.sqrt(np.diag(cov_o))
    # State layout [p, v, q, bg, ba] against error layout [dp, dv, dtheta, dbg, dba].
    sd_state = np.concatenate([sd[0:6], np.full(4, sd[6:9].max()), sd[9:15]])
    assert_within(np.abs(mean_k - mean_o), np.abs(mean_o) + sd_state)
    assert_within(np.abs(cov_k - cov_o), np.outer(sd, sd))


def predict_both(state, cov, gyro, accel):
    q_diag = process_noise_diag(CFG.imu_noise, DT)
    kernel = fusion._predict(state, cov, gyro, accel, DT, PARAMS, q_diag)
    oracle = reference_predict(
        state, cov, gyro, accel, DT, PARAMS, W_MEAN, W_COV, np.diag(q_diag)
    )
    return kernel, oracle


def nominal(q=(1.0, 0.0, 0.0, 0.0)):
    return np.concatenate([np.zeros(6), q, np.zeros(6)])


@pytest.fixture(scope="module")
def circ90():
    """The first 10 s (1001 IMU samples, 11 fixes) of the 90 s circular
    drive at seed 42."""
    truth, ideal = generate_truth(TrajectoryProfile("circular", duration=90.0))
    imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=1.0)
    return imu.take(slice(0, 1001)), gnss.take(gnss.t <= 10.0)


def run_checked(monkeypatch, imu, gnss):
    """Run the filter, checking every prediction against the oracle on the
    filter's own states (GNSS updates included); returns the step lengths."""
    kernel = fusion._predict
    steps = []

    def checked(state, cov, gyro, accel, dt, params, q_diag):
        out = kernel(state, cov, gyro, accel, dt, params, q_diag)
        oracle = reference_predict(
            state, cov, gyro, accel, dt, params, *compute_weights(params), np.diag(q_diag)
        )
        assert_matches(out, oracle)
        steps.append(dt)
        return out

    monkeypatch.setattr(fusion, "_predict", checked)
    result = run_fusion(imu, gnss, CFG)
    assert len(result.updates) == len(gnss)
    return steps


class TestAgainstOracle:
    def test_circ90_stream(self, monkeypatch, circ90):
        steps = run_checked(monkeypatch, *circ90)
        assert len(steps) == 1000

    def test_jittered_dt_stream(self, monkeypatch, circ90):
        imu, gnss = circ90
        jitter = np.random.default_rng(7).uniform(-0.003, 0.003, len(imu))
        jitter[0] = 0.0  # keep the first fix (t = 0) anchored to the first sample
        jittered = ImuStream(imu.t + jitter, imu.gyro, imu.accel)
        steps = run_checked(monkeypatch, jittered, gnss)
        assert len(steps) == 1000
        assert len(set(steps)) == 1000

    def test_zero_covariance(self):
        # cholesky_sqrt short-circuits to a zero factor: 31 identical points.
        gyro, accel = np.array([0.1, -0.2, 0.3]), np.array([0.5, 0.0, 9.8])
        kernel, oracle = predict_both(nominal(), np.zeros((15, 15)), gyro, accel)
        assert_matches(kernel, oracle)
        np.testing.assert_allclose(np.diag(kernel[1]), process_noise_diag(CFG.imu_noise, DT))

    @pytest.mark.parametrize("variance", [0.0, 1e-30])
    def test_zero_gyro_and_attitude_covariance(self, variance):
        # At 1e-30 every attitude offset and every turn omega * dt is far
        # below 1e-8, where quat_exp is exactly (1, r/2), and quat_log
        # meets vector parts near 1e-15.  Exactly zero makes cholesky_sqrt
        # take its jitter retry.
        cov = CFG.initial_covariance()
        cov[6:12, 6:12] = variance * np.eye(6)
        kernel, oracle = predict_both(nominal(), cov, np.zeros(3), np.array([0.0, 0.0, 9.80665]))
        assert_matches(kernel, oracle)

    def test_nominal_quaternion_with_negative_w(self):
        q = np.array([-0.8, 0.1, -0.3, 0.5])
        state = nominal(q / np.linalg.norm(q))
        kernel, oracle = predict_both(state, CFG.initial_covariance(), *TURNING)
        assert kernel[0][6] < 0.0
        assert_matches(kernel, oracle)

    def test_wide_correlated_spread(self):
        # Attitude offsets up to 4 rad, past pi, so some residuals about the
        # mean have w < 0, far from the small spread where the eigenvector
        # mean and the rotation-vector mean agree.
        rng = np.random.default_rng(3)
        b = rng.standard_normal((15, 15))
        corr = b @ b.T + 15.0 * np.eye(15)
        corr /= np.sqrt(np.outer(np.diag(corr), np.diag(corr)))
        sd = np.repeat([10.0, 3.0, 1.0, 0.05, 0.1], 3)
        kernel, oracle = predict_both(nominal(), corr * np.outer(sd, sd), *TURNING)
        assert_matches(kernel, oracle)

    def test_indefinite_covariance_raises(self):
        cov = CFG.initial_covariance()
        cov[0, 0] = -1.0
        with pytest.raises(DecompositionFailure):
            fusion._predict(nominal(), cov, np.zeros(3), np.zeros(3), DT, PARAMS, np.zeros(15))

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_non_positive_dt_rejected(self, dt):
        with pytest.raises(ValueError):
            fusion._predict(
                nominal(), CFG.initial_covariance(), np.zeros(3), np.zeros(3), dt, PARAMS,
                np.zeros(15),
            )


def test_one_unscented_transform_per_imu_step(monkeypatch, circ90):
    """The prediction is the generic UKF's transform on the navigation
    state's hooks, called once per IMU step after the first."""
    hooks = []

    def counted(*args):
        hooks.append(args[4:])
        return ukf.unscented_transform(*args)

    assert fusion.unscented_transform is ukf.unscented_transform
    monkeypatch.setattr(fusion, "unscented_transform", counted)
    run_fusion(*circ90, CFG)
    assert hooks == [(fusion._retract, fusion._deviations, fusion._mean)] * 1000


def averaged(monkeypatch, imu, gnss, cfg):
    """The (points, w) of every attitude mean of a filter run."""
    calls = []
    mean = fusion._mean

    def recorded(points, w):
        calls.append((points.copy(), w))
        return mean(points, w)

    with monkeypatch.context() as patch:
        patch.setattr(fusion, "_mean", recorded)
        run_fusion(imu, gnss, cfg)
    return calls


class TestAttitudeMean:
    """``fusion._mean``'s attitude is the top eigenvector of
    sum_i w_i q_i q_i^T, signed into the highest-weight point's hemisphere."""

    def test_antipodal_points_give_the_same_bits(self, monkeypatch, circ90):
        # q and -q are one rotation: negating any point but the
        # highest-weight one leaves the mean's bits, negating that one
        # negates the mean quaternion and nothing else.
        for points, w in averaged(monkeypatch, *circ90, CFG)[::100]:
            top = int(w.argmax())
            mean = fusion._mean(points, w)
            flipped = points.copy()
            flipped[6:10, np.arange(points.shape[1]) != top] *= -1.0
            assert fusion._mean(flipped, w).tobytes() == mean.tobytes()
            flipped = points.copy()
            flipped[6:10, top] *= -1.0
            expected = mean.copy()
            expected[6:10] *= -1.0
            assert fusion._mean(flipped, w).tobytes() == expected.tobytes()

    def test_small_alpha_matches_iterated_mean(self, monkeypatch, circ90):
        # At alpha = 1e-3 the centre weight is about -9.4e5, so
        # sum_i w_i q_i q_i^T can be indefinite and Rotation.mean, which
        # takes no negative weight, cannot be the reference.
        cfg = FusionConfig(alpha=1e-3)
        calls = averaged(monkeypatch, *circ90, cfg)
        assert len(calls) == 1000
        assert calls[0][1][0] < -9e5
        worst = 0.0
        for points, w in calls:
            expected = reference_iterated_mean(points[6:10].T, w)
            worst = max(worst, np.abs(fusion._mean(points, w)[6:10] - expected).max())
        assert worst <= 1e-9

    def test_near_tie_of_top_eigenvalues(self):
        # Half the weight near one attitude, half near one turned by pi about
        # an axis (orthogonal quaternions): the top two eigenvalues differ
        # only by the small scatter.
        rng = np.random.default_rng(11)
        qa = np.array([0.6, 0.0, 0.8, 0.0])
        qb = np.array([0.0, 0.6, 0.0, -0.8])
        points = rng.standard_normal((16, 31))
        q = np.where(np.arange(31) < 15, qa[:, None], qb[:, None])
        q = q + 1e-9 * rng.standard_normal((4, 31))
        points[6:10] = q / np.linalg.norm(q, axis=0)
        mean = fusion._mean(points, W_MEAN)
        eigs = np.linalg.eigvalsh((points[6:10] * W_MEAN) @ points[6:10].T)
        assert eigs[-1] - eigs[-2] < 1e-8
        mean_q = mean[6:10]
        assert np.isfinite(mean).all()
        assert abs(np.linalg.norm(mean_q) - 1.0) < 1e-12
        assert mean_q @ points[6:10, W_MEAN.argmax()] >= 0.0
        assert fusion._mean(points, W_MEAN).tobytes() == mean.tobytes()
