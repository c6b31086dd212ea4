import math

import numpy as np
import pytest

from navfuse.simulate import TrajectoryProfile, generate_truth
from navfuse.strapdown import (
    GRAVITY,
    ImuNoiseParams,
    ImuSample,
    NavState,
    apply_state_delta,
    process_noise_cov,
    process_noise_diag,
    propagate,
    propagate_batch,
    quat_from_rotvec,
    quat_identity,
    quat_multiply,
    quat_rotate,
    rotation_matrix,
    rotvec_from_quat,
    state_delta,
    weighted_quat_mean,
    weighted_state_mean,
)

LEVEL_ACCEL = np.array([0.0, 0.0, GRAVITY])


def stationary_sample(t=0.0):
    return ImuSample(t, np.zeros(3), LEVEL_ACCEL.copy())


class TestQuaternions:
    def test_zero_rotvec_is_identity(self):
        np.testing.assert_array_equal(quat_from_rotvec(np.zeros(3)), quat_identity())

    def test_half_turn_about_z(self):
        q = quat_from_rotvec(np.array([0.0, 0.0, math.pi]))
        np.testing.assert_allclose(quat_rotate(q, [1.0, 0.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-12)

    def test_quarter_turn_about_z(self):
        q = quat_from_rotvec(np.array([0.0, 0.0, math.pi / 2]))
        np.testing.assert_allclose(quat_rotate(q, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_small_angle_series_branch(self):
        r = np.array([3e-9, -4e-9, 0.0])
        q = quat_from_rotvec(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-15
        np.testing.assert_allclose(rotvec_from_quat(q), r, rtol=1e-9, atol=1e-20)

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(-1.5, 1.5, (50, 3))
        np.testing.assert_allclose(rotvec_from_quat(quat_from_rotvec(r)), r, atol=1e-12)

    def test_log_picks_shortest_arc(self):
        q = quat_from_rotvec(np.array([0.1, 0.0, 0.0]))
        np.testing.assert_allclose(rotvec_from_quat(-q), [0.1, 0.0, 0.0], atol=1e-12)

    def test_rotation_matrix_matches_quat_rotate(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = quat_from_rotvec(rng.uniform(-2, 2, 3))
            v = rng.standard_normal(3)
            np.testing.assert_allclose(rotation_matrix(q) @ v, quat_rotate(q, v), atol=1e-12)

    def test_multiply_composes(self):
        a = quat_from_rotvec(np.array([0.0, 0.0, 0.3]))
        b = quat_from_rotvec(np.array([0.0, 0.0, 0.4]))
        np.testing.assert_allclose(
            quat_multiply(a, b), quat_from_rotvec(np.array([0.0, 0.0, 0.7])), atol=1e-12
        )


class TestPropagate:
    def test_gravity_compensated_fixed_point(self):
        state = NavState.identity()
        out = propagate(state, stationary_sample(), 0.01)
        np.testing.assert_array_equal(out.as_vector(), state.as_vector())

    def test_fixed_point_over_1000_steps(self):
        state = NavState.identity()
        reference = state.as_vector()
        for _ in range(1000):
            state = propagate(state, stationary_sample(), 0.01)
            assert np.max(np.abs(state.as_vector() - reference)) <= 1e-12

    def test_constant_forward_acceleration(self):
        state = NavState.identity()
        sample = ImuSample(0.0, np.zeros(3), np.array([1.0, 0.0, GRAVITY]))
        for _ in range(100):
            state = propagate(state, sample, 0.01)
        np.testing.assert_allclose(state.velocity, [1.0, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(state.position, [0.5, 0.0, 0.0], atol=1e-9)

    def test_yaw_rate_integration(self):
        state = NavState.identity()
        sample = ImuSample(0.0, np.array([0.0, 0.0, math.pi / 2]), np.zeros(3))
        for _ in range(100):
            state = propagate(state, sample, 0.01)
        yaw = 2.0 * math.atan2(state.orientation[3], state.orientation[0])
        assert yaw == pytest.approx(math.pi / 2, abs=1e-6)

    def test_bias_correction_applied(self):
        bias = np.array([0.0, 0.0, 0.1])
        state = NavState(np.zeros(3), np.zeros(3), quat_identity(), bias, np.zeros(3))
        sample = ImuSample(0.0, bias, LEVEL_ACCEL)
        out = propagate(state, sample, 0.01)
        np.testing.assert_allclose(out.orientation, quat_identity(), atol=1e-15)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            propagate(NavState.identity(), stationary_sample(), 0.0)

    def test_quaternion_stays_normalized(self):
        rng = np.random.default_rng(11)
        state = NavState.identity()
        for k in range(500):
            sample = ImuSample(k * 0.01, rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3) + LEVEL_ACCEL)
            state = propagate(state, sample, 0.01)
            assert abs(np.linalg.norm(state.orientation) - 1.0) <= 1e-9

    def test_deterministic(self):
        sample = ImuSample(0.0, np.array([0.1, -0.2, 0.3]), np.array([0.5, 0.1, 9.9]))
        a = propagate(NavState.identity(), sample, 0.01)
        b = propagate(NavState.identity(), sample, 0.01)
        np.testing.assert_array_equal(a.as_vector(), b.as_vector())

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        states = []
        for _ in range(7):
            q = quat_from_rotvec(rng.uniform(-1, 1, 3))
            states.append(
                NavState(rng.standard_normal(3), rng.standard_normal(3), q,
                         0.01 * rng.standard_normal(3), 0.1 * rng.standard_normal(3))
            )
        packed = np.array([s.as_vector() for s in states])
        gyro = rng.uniform(-1, 1, 3)
        accel = rng.uniform(-2, 2, 3) + LEVEL_ACCEL
        batch = propagate_batch(packed, gyro, accel, 0.02)
        for row, s in zip(batch, states):
            single = propagate(s, ImuSample(0.0, gyro, accel), 0.02)
            np.testing.assert_array_equal(row, single.as_vector())

    def test_halving_dt_improves_endpoint(self):
        # Integration error must shrink at least first order in dt.
        errors = {}
        for rate in (100.0, 200.0):
            profile = TrajectoryProfile("circular", duration=10.0, imu_rate=rate,
                                        radius=20.0, speed=5.0)
            truth, ideal = generate_truth(profile)
            state = NavState(truth[0].position.as_array(), truth[0].velocity,
                             truth[0].orientation, np.zeros(3), np.zeros(3))
            for k in range(1, len(ideal)):
                state = propagate(state, ideal[k], ideal[k].t - ideal[k - 1].t)
            errors[rate] = np.linalg.norm(state.position - truth[-1].position.as_array())
        assert errors[100.0] / errors[200.0] >= 2.0


class TestProcessNoise:
    def test_zero_dt_gives_zero_matrix(self):
        q = process_noise_cov(ImuNoiseParams(), 0.0)
        assert not q.any()

    def test_zero_params_give_zero_matrix(self):
        q = process_noise_cov(ImuNoiseParams(0.0, 0.0, 0.0, 0.0), 0.01)
        assert not q.any()

    def test_attitude_block_at_default_rates(self):
        q = process_noise_cov(ImuNoiseParams(), 0.01)
        np.testing.assert_allclose(np.diag(q)[6:9], (0.01 * 0.01) ** 2)

    def test_block_layout(self):
        noise = ImuNoiseParams(gyro_std=2.0, accel_std=3.0, gyro_bias_rw=4.0, accel_bias_rw=5.0)
        q = process_noise_cov(noise, 0.5)
        d = np.diag(q)
        np.testing.assert_allclose(d[0:3], 0.25 * 9.0 * 0.5**4)
        np.testing.assert_allclose(d[3:6], 9.0 * 0.25)
        np.testing.assert_allclose(d[6:9], 4.0 * 0.25)
        np.testing.assert_allclose(d[9:12], 16.0 * 0.25)
        np.testing.assert_allclose(d[12:15], 25.0 * 0.25)
        assert np.array_equal(q, np.diag(d))

    def test_dense_matrix_is_the_diagonal(self):
        noise = ImuNoiseParams(gyro_std=2.0, accel_std=3.0, gyro_bias_rw=4.0, accel_bias_rw=5.0)
        for dt in (0.0, 0.01, 0.0097, 0.5):
            d = process_noise_diag(noise, dt)
            assert d.shape == (15,)
            assert np.array_equal(process_noise_cov(noise, dt), np.diag(d))

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


class TestErrorStateRetraction:
    def test_apply_then_extract_round_trips(self):
        rng = np.random.default_rng(17)
        state = NavState(
            rng.standard_normal(3), rng.standard_normal(3),
            quat_from_rotvec(rng.uniform(-1, 1, 3)),
            rng.standard_normal(3) * 0.01, rng.standard_normal(3) * 0.1,
        ).as_vector()
        deltas = rng.uniform(-0.5, 0.5, (9, 15))
        perturbed = apply_state_delta(state[None, :], deltas)
        np.testing.assert_allclose(state_delta(perturbed, state), deltas, atol=1e-12)

    def test_weighted_quat_mean_of_symmetric_pairs(self):
        ref = quat_from_rotvec(np.array([0.2, -0.1, 0.4]))
        offsets = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [-0.1, 0.0, 0.0],
                            [0.0, 0.2, 0.0], [0.0, -0.2, 0.0]])
        quats = quat_multiply(ref[None, :], quat_from_rotvec(offsets))
        weights = np.array([0.6, 0.1, 0.1, 0.1, 0.1])
        mean = weighted_quat_mean(quats, weights)
        np.testing.assert_allclose(mean, ref, atol=1e-9)

    def test_weighted_state_mean_additive_parts(self):
        rng = np.random.default_rng(19)
        states = np.array([NavState.identity().as_vector() for _ in range(5)])
        states[:, 0:6] = rng.standard_normal((5, 6))
        weights = np.full(5, 0.2)
        mean = weighted_state_mean(states, weights)
        np.testing.assert_allclose(mean[0:6], weights @ states[:, 0:6], atol=1e-15)
        np.testing.assert_allclose(mean[6:10], quat_identity(), atol=1e-15)


class TestNavState:
    def test_vector_round_trip(self):
        rng = np.random.default_rng(23)
        state = NavState(
            rng.standard_normal(3), rng.standard_normal(3),
            quat_from_rotvec(rng.uniform(-1, 1, 3)),
            rng.standard_normal(3), rng.standard_normal(3),
        )
        np.testing.assert_array_equal(NavState.from_vector(state.as_vector()).as_vector(),
                                      state.as_vector())

    def test_rejects_unnormalized_quaternion(self):
        with pytest.raises(ValueError):
            NavState(np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 0.0, 1e-4]),
                     np.zeros(3), np.zeros(3))

    def test_rejects_non_finite_fields(self):
        with pytest.raises(ValueError):
            NavState(np.array([np.nan, 0, 0]), np.zeros(3), quat_identity(),
                     np.zeros(3), np.zeros(3))
