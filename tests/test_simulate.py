import math

import numpy as np
import pytest

from navfuse.errors import UnknownProfileKind
from navfuse.fusion import run_gnss_only
from navfuse.gnss import GnssNoise
from navfuse.simulate import (
    SCENARIO_ORIGIN,
    SensorCorruption,
    TrajectoryProfile,
    corrupt,
    generate_truth,
)
from navfuse.strapdown import GRAVITY, ImuNoiseParams, propagate

from helpers import nav_state

QUIET = ImuNoiseParams(0.0, 0.0, 0.0, 0.0)


def reintegrate(truth, ideal):
    state = nav_state(truth.position[0], truth.velocity[0], truth.orientation[0])
    errs = []
    for k in range(1, len(ideal)):
        state = propagate(state, ideal.gyro[k], ideal.accel[k], ideal.t[k] - ideal.t[k - 1])
        errs.append(np.linalg.norm(state[0:3] - truth.position[k]))
    return np.array(errs)


class TestGenerateTruth:
    def test_stationary(self):
        truth, ideal = generate_truth(TrajectoryProfile("stationary", duration=10.0))
        assert len(truth.t) == len(ideal) == 1000
        assert not truth.position.any()
        assert not ideal.gyro.any()
        assert (ideal.accel == [0.0, 0.0, GRAVITY]).all()

    def test_straight_constant_accel(self):
        profile = TrajectoryProfile("straight-constant-accel", duration=10.0, accel=1.0)
        truth, _ = generate_truth(profile)
        # Last sample sits at t = duration - dt.
        t_last = truth.t[-1]
        assert truth.position[-1, 0] == pytest.approx(0.5 * t_last**2, abs=1e-9)
        assert truth.velocity[-1, 0] == pytest.approx(t_last, abs=1e-12)
        # Endpoint of the motion law itself.
        assert 0.5 * 1.0 * 10.0**2 == 50.0

    def test_circular_lateral_specific_force(self):
        # Increment sampling replaces the arc by the chord, a relative
        # (w dt)^2 / 24 ~ 3e-7 effect at these rates.
        profile = TrajectoryProfile("circular", duration=30.0, radius=20.0, speed=5.0)
        _, ideal = generate_truth(profile)
        horizontal = np.hypot(ideal.accel[1:, 0], ideal.accel[1:, 1])
        np.testing.assert_allclose(horizontal, 5.0**2 / 20.0, rtol=0, atol=1e-5)
        np.testing.assert_allclose(ideal.accel[1:, 2], GRAVITY, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ideal.gyro[1:, 2], 5.0 / 20.0, rtol=0, atol=1e-9)

    def test_circular_closes_loop(self):
        # The period lands between samples; the nearest grid point is at
        # most half a step (speed * dt / 2) from the start.
        period = 2 * math.pi * 20.0 / 5.0
        profile = TrajectoryProfile("circular", duration=period + 0.5,
                                    radius=20.0, speed=5.0)
        truth, ideal = generate_truth(profile)
        k = int(round(period * profile.imu_rate))
        assert np.linalg.norm(truth.position[k]) <= 5.0 * 0.01
        # Strapdown re-integration agrees with the analytic loop.
        errs = reintegrate(truth, ideal)
        assert errs.max() < 1e-3

    @pytest.mark.parametrize(
        "kind", ["stationary", "straight-constant-accel", "circular", "figure-eight"]
    )
    def test_reintegration_consistency(self, kind):
        profile = TrajectoryProfile(kind, duration=90.0)
        truth, ideal = generate_truth(profile)
        errs = reintegrate(truth, ideal)
        assert np.sqrt(np.mean(errs**2)) <= 0.1

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownProfileKind):
            generate_truth(TrajectoryProfile("spiral", duration=1.0))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            TrajectoryProfile("circular", duration=0.0)
        with pytest.raises(ValueError):
            TrajectoryProfile("circular", duration=1.0, imu_rate=1.0, gnss_rate=10.0)
        for bad in (math.nan, math.inf):
            for field in ("duration", "imu_rate", "gnss_rate", "speed", "radius", "accel"):
                kwargs = {"duration": 1.0, field: bad}
                with pytest.raises(ValueError, match=field):
                    TrajectoryProfile("circular", **kwargs)
        for kind, field in [("circular", "radius"), ("figure-eight", "radius"),
                            ("figure-eight", "speed")]:
            with pytest.raises(ValueError, match=field):
                TrajectoryProfile(kind, duration=1.0, **{field: 0.0})
        with pytest.raises(UnknownProfileKind):
            TrajectoryProfile("bogus", duration=1.0)
        # Finite values whose kinematics overflow: speed * speed / radius
        # on both turning profiles, and on the figure-eight the turn rate
        # squared and speed**2 times the turn rate.
        for kind, speed, radius in [("circular", 1e200, 20.0), ("figure-eight", 1e200, 20.0),
                                    ("figure-eight", 1e120, 20.0),
                                    ("figure-eight", 3.16e152, 0.01)]:
            with pytest.raises(ValueError, match="speed"):
                TrajectoryProfile(kind, duration=1.0, speed=speed, radius=radius)
        TrajectoryProfile("circular", duration=1.0, speed=1e150)


class TestCorrupt:
    def test_zero_noise_reproduces_ideal(self):
        profile = TrajectoryProfile("circular", duration=5.0)
        truth, ideal = generate_truth(profile)
        corr = SensorCorruption(seed=1, imu=QUIET, gnss=GnssNoise(0.0))
        imu, gnss = corrupt(truth, ideal, corr, gnss_rate=profile.gnss_rate)
        np.testing.assert_array_equal(imu.gyro, ideal.gyro)
        np.testing.assert_array_equal(imu.accel, ideal.accel)
        k = np.round(gnss.t * profile.imu_rate).astype(int)
        _, local = run_gnss_only(gnss, SCENARIO_ORIGIN)
        np.testing.assert_allclose(local, truth.position[k], atol=1e-6)

    def test_gnss_sample_std_calibration(self):
        profile = TrajectoryProfile("stationary", duration=300.0)
        truth, ideal = generate_truth(profile)
        corr = SensorCorruption(seed=42, imu=QUIET)
        _, gnss = corrupt(truth, ideal, corr, gnss_rate=profile.gnss_rate)
        assert len(gnss) == 300
        _, residuals = run_gnss_only(gnss, SCENARIO_ORIGIN)
        stds = residuals.std(axis=0, ddof=1)
        np.testing.assert_allclose(stds, 13.0, rtol=0.10)

    def test_imu_noise_calibration(self):
        profile = TrajectoryProfile("stationary", duration=10.0)
        truth, ideal = generate_truth(profile)
        corr = SensorCorruption(seed=3, imu=ImuNoiseParams(0.01, 0.05, 0.0, 0.0))
        imu, _ = corrupt(truth, ideal, corr, gnss_rate=profile.gnss_rate)
        gyro = imu.gyro
        accel = imu.accel - [0.0, 0.0, GRAVITY]
        assert gyro.std(ddof=1) == pytest.approx(0.01, rel=0.10)
        assert accel.std(ddof=1) == pytest.approx(0.05, rel=0.10)

    def test_bias_random_walk_scale(self):
        profile = TrajectoryProfile("stationary", duration=100.0)
        truth, ideal = generate_truth(profile)
        walk = 1e-3
        corr = SensorCorruption(seed=5, imu=ImuNoiseParams(0.0, 0.0, walk, 0.0))
        imu, _ = corrupt(truth, ideal, corr, gnss_rate=profile.gnss_rate)
        bias = imu.gyro
        # Wiener process: variance grows like walk^2 * t.
        final = bias[-1]
        assert np.all(np.abs(final) < 6 * walk * math.sqrt(100.0))
        assert bias.std() > 0

    def test_deterministic_for_fixed_seed(self):
        profile = TrajectoryProfile("figure-eight", duration=10.0)
        truth, ideal = generate_truth(profile)
        corr = SensorCorruption(seed=1234)
        imu_a, gnss_a = corrupt(truth, ideal, corr, gnss_rate=profile.gnss_rate)
        imu_b, gnss_b = corrupt(truth, ideal, corr, gnss_rate=profile.gnss_rate)
        np.testing.assert_array_equal(imu_a.gyro, imu_b.gyro)
        np.testing.assert_array_equal(imu_a.accel, imu_b.accel)
        for name in ("t", "lat", "lon", "alt"):
            assert np.array_equal(getattr(gnss_a, name), getattr(gnss_b, name))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SensorCorruption(seed=-1)

    def test_gnss_rate_decimation(self):
        profile = TrajectoryProfile("stationary", duration=10.0, gnss_rate=2.0)
        truth, ideal = generate_truth(profile)
        corr = SensorCorruption(seed=8)
        _, gnss = corrupt(truth, ideal, corr, gnss_rate=profile.gnss_rate)
        assert len(gnss) == 20
