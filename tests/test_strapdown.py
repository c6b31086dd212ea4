import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import navfuse.fusion as fusion
from navfuse.fusion import FusionConfig
from navfuse.simulate import TrajectoryProfile, generate_truth
from navfuse.strapdown import (
    CONJ,
    GRAVITY,
    ImuNoiseParams,
    ImuStream,
    process_noise_diag,
    propagate,
    quat_exp,
    quat_identity,
    quat_left,
    quat_log,
    quat_products,
)
from navfuse.errors import NonMonotonicTime

from helpers import nav_state

LEVEL_ACCEL = np.array([0.0, 0.0, GRAVITY])
STILL = (np.zeros(3), LEVEL_ACCEL)


def exp(r):
    """quat_exp of one rotation vector, as a (4,) array."""
    return quat_exp(np.asarray(r, dtype=float)[:, None])[:, 0]


def rotate(q, v):
    """v rotated by the unit quaternion q, as q * (0, v) * conj(q)."""
    f = np.concatenate([[0.0], v])[:, None]
    return quat_products(quat_products(q[:, None], f), (q * CONJ)[:, None])[1:, 0]


def reference_step(state, gyro, accel, dt):
    """One strapdown step on scipy rotations: (p, v, q) after ``dt``."""
    p, v, q, bg, ba = np.split(state, [3, 6, 10, 13])
    attitude = Rotation.from_quat(q, scalar_first=True)
    a_nav = attitude.apply(accel - ba) + np.array([0.0, 0.0, -GRAVITY])
    turn = Rotation.from_rotvec((gyro - bg) * dt)
    return (
        p + v * dt + 0.5 * a_nav * dt * dt,
        v + a_nav * dt,
        (attitude * turn).as_quat(scalar_first=True),
    )


class TestQuaternions:
    def test_zero_rotvec_is_identity(self):
        np.testing.assert_array_equal(exp(np.zeros(3)), quat_identity())

    def test_half_turn_about_z(self):
        q = exp([0.0, 0.0, math.pi])
        np.testing.assert_allclose(rotate(q, [1.0, 0.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-12)

    def test_quarter_turn_about_z(self):
        q = exp([0.0, 0.0, math.pi / 2])
        np.testing.assert_allclose(rotate(q, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_small_angle_series_branch(self):
        # Below |r| = 1e-8 the trigonometric form is the first-order
        # series (1, r/2) to the last bit, so no branch is needed.
        rng = np.random.default_rng(29)
        r = rng.standard_normal((3, 1000))
        r *= 10.0 ** rng.uniform(-150.0, -8.0, 1000) / np.sqrt(np.sum(r * r, axis=0))
        q = quat_exp(r)
        assert np.array_equal(q[0], np.ones(1000))
        assert np.array_equal(q[1:], r / 2.0)

        r = np.array([[3e-9], [-4e-9], [0.0]])
        q = quat_exp(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-15
        np.testing.assert_allclose(quat_log(q), r, rtol=1e-9, atol=1e-20)

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(-1.5, 1.5, (3, 50))
        np.testing.assert_allclose(quat_log(quat_exp(r)), r, atol=1e-12)

    def test_log_picks_shortest_arc(self):
        q = quat_exp(np.array([[0.1], [0.0], [0.0]]))
        np.testing.assert_allclose(quat_log(-q)[:, 0], [0.1, 0.0, 0.0], atol=1e-12)

    def test_multiply_composes(self):
        a = exp([0.0, 0.0, 0.3])[:, None]
        b = exp([0.0, 0.0, 0.4])[:, None]
        composed = exp([0.0, 0.0, 0.7])[:, None]
        np.testing.assert_allclose(quat_products(a, b), composed, atol=1e-12)
        np.testing.assert_allclose(quat_left(*a[:, 0]) @ b, composed, atol=1e-12)


class TestPropagate:
    def test_gravity_compensated_fixed_point(self):
        state = nav_state()
        out = propagate(state, *STILL, 0.01)
        np.testing.assert_array_equal(out, state)

    def test_fixed_point_over_1000_steps(self):
        state = reference = nav_state()
        for _ in range(1000):
            state = propagate(state, *STILL, 0.01)
            assert np.max(np.abs(state - reference)) <= 1e-12

    def test_constant_forward_acceleration(self):
        state = nav_state()
        accel = np.array([1.0, 0.0, GRAVITY])
        for _ in range(100):
            state = propagate(state, np.zeros(3), accel, 0.01)
        np.testing.assert_allclose(state[3:6], [1.0, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(state[0:3], [0.5, 0.0, 0.0], atol=1e-9)

    def test_yaw_rate_integration(self):
        state = nav_state()
        gyro = np.array([0.0, 0.0, math.pi / 2])
        for _ in range(100):
            state = propagate(state, gyro, np.zeros(3), 0.01)
        yaw = 2.0 * math.atan2(state[9], state[6])
        assert yaw == pytest.approx(math.pi / 2, abs=1e-6)

    def test_bias_correction_applied(self):
        bias = np.array([0.0, 0.0, 0.1])
        state = nav_state(bg=bias)
        out = propagate(state, bias, LEVEL_ACCEL, 0.01)
        np.testing.assert_allclose(out[6:10], quat_identity(), atol=1e-15)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            propagate(nav_state(), *STILL, 0.0)

    def test_quaternion_stays_normalized(self):
        rng = np.random.default_rng(11)
        state = nav_state()
        for _ in range(500):
            gyro, accel = rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3) + LEVEL_ACCEL
            state = propagate(state, gyro, accel, 0.01)
            assert abs(np.linalg.norm(state[6:10]) - 1.0) <= 1e-9

    def test_deterministic(self):
        gyro, accel = np.array([0.1, -0.2, 0.3]), np.array([0.5, 0.1, 9.9])
        a = propagate(nav_state(), gyro, accel, 0.01)
        b = propagate(nav_state(), gyro, accel, 0.01)
        np.testing.assert_array_equal(a, b)

    def test_matches_scipy_reference_step(self):
        # Random states with nonzero biases; every other attitude has w < 0,
        # which the step must keep (no hemisphere flip).
        rng = np.random.default_rng(13)
        for k in range(8):
            q = rng.standard_normal(4)
            q *= (-1) ** k * np.sign(q[0]) / np.linalg.norm(q)
            state = nav_state(rng.standard_normal(3), rng.standard_normal(3), q,
                              0.01 * rng.standard_normal(3), 0.1 * rng.standard_normal(3))
            gyro, accel = rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3) + LEVEL_ACCEL
            out = propagate(state, gyro, accel, 0.02)
            p, v, q_ref = reference_step(state, gyro, accel, 0.02)
            np.testing.assert_allclose(out[0:3], p, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out[3:6], v, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out[6:10], q_ref, rtol=0, atol=1e-12)
            assert (out[6] < 0) == (k % 2 == 1)
            np.testing.assert_array_equal(out[10:13], state[10:13])
            np.testing.assert_array_equal(out[13:16], state[13:16])

    def test_columns_match_single_states(self):
        # m states as the columns of one (16, m) call agree with m calls on
        # one (16,) state each.  Not bit for bit: the BLAS product in
        # quat_products picks its summation order by the column count.
        rng = np.random.default_rng(23)
        gyro, accel = rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3) + LEVEL_ACCEL
        columns = np.empty((16, 31))
        for k in range(31):
            q = rng.standard_normal(4)
            columns[:, k] = nav_state(rng.standard_normal(3), rng.standard_normal(3),
                                      q / np.linalg.norm(q), 0.01 * rng.standard_normal(3),
                                      0.1 * rng.standard_normal(3))
        out = propagate(columns, gyro, accel, 0.01)
        assert out.shape == (16, 31)
        for k in range(31):
            single = propagate(columns[:, k].copy(), gyro, accel, 0.01)
            np.testing.assert_allclose(out[:, k], single, rtol=1e-14, atol=1e-15)

    def test_halving_dt_improves_endpoint(self):
        # Integration error must shrink at least first order in dt.
        errors = {}
        for rate in (100.0, 200.0):
            profile = TrajectoryProfile("circular", duration=10.0, imu_rate=rate,
                                        radius=20.0, speed=5.0)
            truth, ideal = generate_truth(profile)
            state = nav_state(truth.position[0], truth.velocity[0], truth.orientation[0])
            for k in range(1, len(ideal)):
                state = propagate(state, ideal.gyro[k], ideal.accel[k],
                                  ideal.t[k] - ideal.t[k - 1])
            errors[rate] = np.linalg.norm(state[0:3] - truth.position[-1])
        assert errors[100.0] / errors[200.0] >= 2.0


class TestProcessNoise:
    def test_zero_dt_gives_zero_matrix(self):
        assert not process_noise_diag(ImuNoiseParams(), 0.0).any()

    def test_zero_params_give_zero_matrix(self):
        assert not process_noise_diag(ImuNoiseParams(0.0, 0.0, 0.0, 0.0), 0.01).any()

    def test_attitude_block_at_default_rates(self):
        d = process_noise_diag(ImuNoiseParams(), 0.01)
        np.testing.assert_allclose(d[6:9], (0.01 * 0.01) ** 2)

    def test_block_layout(self):
        noise = ImuNoiseParams(gyro_std=2.0, accel_std=3.0, gyro_bias_rw=4.0, accel_bias_rw=5.0)
        d = process_noise_diag(noise, 0.5)
        assert d.shape == (15,)
        np.testing.assert_allclose(d[0:3], 0.25 * 9.0 * 0.5**4)
        np.testing.assert_allclose(d[3:6], 9.0 * 0.25)
        np.testing.assert_allclose(d[6:9], 4.0 * 0.25)
        np.testing.assert_allclose(d[9:12], 16.0 * 0.25)
        np.testing.assert_allclose(d[12:15], 25.0 * 0.25)

    def test_array_of_steps_bit_identical_to_per_step_calls(self):
        # +-3 ms jitter about 10 ms and 100 ms steps: the (n, 15) result of
        # one call equals the per-dt calls, and those equal the scalar
        # Python-float formula, bit for bit.
        rng = np.random.default_rng(61)
        noise = ImuNoiseParams()
        for nominal in (0.01, 0.1):
            dts = nominal + rng.uniform(-0.003, 0.003, 2000)
            table = process_noise_diag(noise, dts)
            assert table.shape == (2000, 15)
            for dt, row in zip(dts.tolist(), table):
                assert np.array_equal(row, process_noise_diag(noise, dt))
                blocks = [
                    0.25 * noise.accel_std**2 * dt**4,
                    noise.accel_std**2 * dt**2,
                    noise.gyro_std**2 * dt**2,
                    noise.gyro_bias_rw**2 * dt**2,
                    noise.accel_bias_rw**2 * dt**2,
                ]
                assert np.array_equal(row, np.repeat(blocks, 3))
        assert process_noise_diag(noise, np.empty(0)).shape == (0, 15)
        with pytest.raises(ValueError):
            process_noise_diag(noise, np.array([0.01, -0.01]))

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            ImuNoiseParams(gyro_std=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="accel_bias_rw"):
                ImuNoiseParams(accel_bias_rw=bad)
        # A finite magnitude whose square overflows, as a float or numpy
        # scalar, without an overflow warning; 1e150 squares to 1e300.
        for name in ("gyro_std", "accel_std", "gyro_bias_rw", "accel_bias_rw"):
            for bad in (1e160, np.float64(1e200)):
                with pytest.raises(ValueError, match=name):
                    ImuNoiseParams(**{name: bad})
            ImuNoiseParams(**{name: 1e150})


def predict_still(state, variances):
    """The fusion kernel's prediction over 10 ms with zero rates and level
    specific force, from a diagonal covariance and no process noise."""
    params = FusionConfig().sigma_params()
    return fusion._predict(state, np.diag(variances), *STILL, 0.01, params, np.zeros(15))


class TestErrorStateRetraction:
    def test_apply_then_extract_round_trips(self):
        # The kernel's retraction, additive parts and q * exp(dtheta), and
        # its deviation, differences and log(conj(q) * q'), on columns.
        rng = np.random.default_rng(17)
        state = nav_state(rng.standard_normal(3), rng.standard_normal(3),
                          exp(rng.uniform(-1, 1, 3)), rng.standard_normal(3),
                          rng.standard_normal(3))
        deltas = rng.uniform(-0.5, 0.5, (15, 9))
        points = fusion._retract(state, deltas)
        np.testing.assert_allclose(np.linalg.norm(points[6:10], axis=0), 1.0, atol=1e-15)
        np.testing.assert_allclose(fusion._deviations(points, state), deltas, atol=1e-12)

    def test_weighted_quat_mean_of_symmetric_pairs(self):
        # Attitude sigma points ref * exp(+-r_i) with equal pair weights
        # average back to ref.
        ref = exp([0.2, -0.1, 0.4])
        state = np.concatenate([np.zeros(6), ref, np.zeros(6)])
        variances = np.full(15, 1e-30)
        variances[6:9] = [0.01, 0.04, 0.02]
        mean, _ = predict_still(state, variances)
        np.testing.assert_allclose(mean[6:10], ref, atol=1e-12)

    def test_weighted_state_mean_additive_parts(self):
        # Position and velocity points symmetric about the nominal state
        # average back to it, moved by v * dt; one attitude averages to itself.
        rng = np.random.default_rng(19)
        p0, v0 = rng.standard_normal(3), rng.standard_normal(3)
        state = np.concatenate([p0, v0, quat_identity(), np.zeros(6)])
        variances = np.full(15, 1e-30)
        variances[0:6] = rng.uniform(0.5, 2.0, 6)
        mean, _ = predict_still(state, variances)
        np.testing.assert_allclose(mean[0:3], p0 + v0 * 0.01, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mean[3:6], v0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mean[6:10], quat_identity(), rtol=0, atol=1e-14)


class TestImuStream:
    def test_columns_are_read_only_copies(self):
        t = np.array([0.0, 0.01, 0.02])
        gyro = np.zeros((3, 3))
        imu = ImuStream(t, gyro, np.tile(LEVEL_ACCEL, (3, 1)))
        assert len(imu) == 3
        assert imu.take([0, 2]).t.tolist() == [0.0, 0.02]
        t[0] = -1.0
        gyro[0, 0] = 1.0
        assert imu.t[0] == 0.0 and imu.gyro[0, 0] == 0.0
        with pytest.raises(ValueError):
            imu.accel[0, 0] = 1.0
        assert len(ImuStream(np.empty(0), np.empty((0, 3)), np.empty((0, 3)))) == 0

    @pytest.mark.parametrize(
        "row, column, value, message",
        [
            (1, "t", math.nan, "row 1: timestamp must be finite"),
            (2, "gyro", math.inf, "row 2: vector components must be finite"),
            (1, "accel", math.nan, "row 1: vector components must be finite"),
        ],
    )
    def test_rejects_non_finite_rows(self, row, column, value, message):
        columns = {"t": np.arange(4) * 0.01, "gyro": np.zeros((4, 3)),
                   "accel": np.tile(LEVEL_ACCEL, (4, 1))}
        columns[column][row] = value
        columns[column][3] = value  # a later bad row is not the one named
        with pytest.raises(ValueError, match=message):
            ImuStream(**columns)

    @pytest.mark.parametrize(
        "t, gyro, accel, message",
        [
            ([0.0, 0.01], np.zeros((3, 3)), np.zeros((2, 3)), r"gyro has shape \(3, 3\)"),
            ([0.0, 0.01], np.zeros((2, 3)), np.zeros((2, 2)), r"accel has shape \(2, 2\)"),
            (0.0, np.zeros((1, 3)), np.zeros((1, 3)), r"t has shape \(\)"),
        ],
    )
    def test_rejects_mismatched_shapes(self, t, gyro, accel, message):
        with pytest.raises(ValueError, match=message):
            ImuStream(t, gyro, accel)

    @pytest.mark.parametrize("t, index", [([0.0, 0.01, 0.01], 2), ([0.0, 0.02, 0.01, 0.0], 2)])
    def test_time_must_increase_strictly(self, t, index):
        n = len(t)
        with pytest.raises(NonMonotonicTime) as info:
            ImuStream(t, np.zeros((n, 3)), np.zeros((n, 3)))
        assert info.value.index == index
