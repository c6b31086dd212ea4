import math

import numpy as np
import pytest

from navfuse.errors import EmptyImuStream, EmptyStream, InvalidScaling, NonMonotonicTime
from navfuse.evaluate import align_and_diff, rmse
from navfuse.fusion import FusionConfig, run_fusion, run_gnss_only
from navfuse.geodesy import enu_to_geodetic
from navfuse.gnss import GnssNoise, GnssStream
from navfuse.simulate import (
    SCENARIO_ORIGIN,
    SensorCorruption,
    TrajectoryProfile,
    corrupt,
    generate_truth,
)
from navfuse.strapdown import GRAVITY, ImuNoiseParams, ImuStream

from helpers import NO_FIXES, truth_fixes

QUIET = ImuNoiseParams(0.0, 0.0, 0.0, 0.0)
ORIGIN_FIX = GnssStream([0.0], [SCENARIO_ORIGIN.lat], [SCENARIO_ORIGIN.lon],
                        [SCENARIO_ORIGIN.height])


def stationary_imu(n, dt=0.01, t0=0.0):
    level = np.tile([0.0, 0.0, GRAVITY], (n, 1))
    return ImuStream(t0 + np.arange(n) * dt, np.zeros((n, 3)), level)


class TestRunFusion:
    def test_empty_imu_rejected(self):
        with pytest.raises(EmptyImuStream):
            run_fusion(stationary_imu(0), NO_FIXES, FusionConfig())

    def test_non_monotonic_imu_reports_index(self):
        imu = stationary_imu(3)
        t = imu.t.copy()
        t[2] = t[1]
        with pytest.raises(NonMonotonicTime) as info:
            ImuStream(t, imu.gyro, imu.accel)
        assert info.value.index == 2

    def test_dead_reckoning_without_gnss(self):
        imu = stationary_imu(500)
        result = run_fusion(imu, NO_FIXES, FusionConfig())
        assert len(result.t) == len(imu)
        assert result.state.shape == (len(imu), 16)
        assert result.origin is None
        traces = result.cov_diag.sum(axis=1)
        assert np.all(np.diff(traces) >= 0)

    def test_timestamps_preserved_exactly(self):
        profile = TrajectoryProfile("circular", duration=5.0)
        truth, ideal = generate_truth(profile)
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=2), gnss_rate=1.0)
        result = run_fusion(imu, gnss, FusionConfig())
        assert result.t.tolist() == imu.t.tolist()

    def test_stationary_beats_measurement_noise(self):
        # Perfect IMU (and a filter model that says so), 1 m GNSS noise:
        # the filter must average below the raw noise floor after ten
        # updates.
        profile = TrajectoryProfile("stationary", duration=30.0)
        truth, ideal = generate_truth(profile)
        corr = SensorCorruption(seed=11, imu=QUIET, gnss=GnssNoise(1.0, 1.0, 1.0))
        imu, gnss = corrupt(truth, ideal, corr, gnss_rate=1.0)
        cfg = FusionConfig(
            imu_noise=ImuNoiseParams(1e-6, 1e-6, 1e-9, 1e-9),
            gnss_noise=GnssNoise(1.0, 1.0, 1.0),
        )
        result = run_fusion(imu, gnss, cfg)
        truth_local = run_gnss_only(truth_fixes(truth), result.origin)
        t, err = align_and_diff(result.track, truth_local)
        late = t >= 10.0
        for channel in err.T:
            assert np.sqrt(np.mean(channel[late] ** 2)) < 1.0

    def test_zero_corruption_self_consistency(self):
        # Noiseless streams and a matching filter model: tracking error
        # reduces to integration error once the (deliberately unknown)
        # initial velocity has been observed from the first few fixes.
        noiseless = SensorCorruption(
            seed=1, imu=QUIET, gnss=GnssNoise(0.0, 0.0, 0.0)
        )
        cfg = FusionConfig(
            imu_noise=ImuNoiseParams(1e-9, 1e-9, 1e-12, 1e-12),
            gnss_noise=GnssNoise(1e-3, 1e-3, 1e-3),
        )
        for kind, skip in (("stationary", 0.0), ("circular", 5.0)):
            profile = TrajectoryProfile(kind, duration=90.0)
            truth, ideal = generate_truth(profile)
            imu, gnss = corrupt(truth, ideal, noiseless, gnss_rate=1.0)
            result = run_fusion(imu, gnss, cfg)
            truth_local = run_gnss_only(truth_fixes(truth), result.origin)
            t, err = align_and_diff(result.track, truth_local)
            rms = np.sqrt(np.mean(np.sum(err[t >= skip] ** 2, axis=1)))
            assert rms <= 0.1

    def test_fused_beats_gnss_only_per_axis(self):
        profile = TrajectoryProfile("circular", duration=90.0)
        truth, ideal = generate_truth(profile)
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=1.0)
        result = run_fusion(imu, gnss, FusionConfig())
        truth_local = run_gnss_only(truth_fixes(truth), result.origin)
        fused = rmse(align_and_diff(result.track, truth_local), "GNSS-IMU")
        baseline = rmse(
            align_and_diff(run_gnss_only(gnss, result.origin), truth_local), "GNSS"
        )
        assert fused.rmse_x < baseline.rmse_x
        assert fused.rmse_y < baseline.rmse_y
        assert fused.rmse_z < baseline.rmse_z

    def test_update_contraction_and_covariance_health(self):
        profile = TrajectoryProfile("circular", duration=30.0)
        truth, ideal = generate_truth(profile)
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=6), gnss_rate=1.0)
        result = run_fusion(imu, gnss, FusionConfig())
        assert len(result.updates) == len(gnss)
        for event in result.updates:
            assert event.accepted
            assert event.trace_after < event.trace_before
            assert event.cov_min_eig >= -1e-9
            assert event.cov_asymmetry <= 1e-12

    def test_outage_continuity(self):
        profile = TrajectoryProfile("circular", duration=60.0)
        truth, ideal = generate_truth(profile)
        corr = SensorCorruption(seed=9, outages=((20.0, 35.0),))
        imu, gnss = corrupt(truth, ideal, corr, gnss_rate=1.0)
        result = run_fusion(imu, gnss, FusionConfig())
        assert len(result.t) == len(imu)
        t = result.t
        traces = result.cov_diag.sum(axis=1)
        gap = (t > 19.0) & (t < 35.0)
        assert np.all(np.diff(traces[gap]) >= 0)

    def test_determinism(self):
        profile = TrajectoryProfile("figure-eight", duration=10.0)
        truth, ideal = generate_truth(profile)
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=3), gnss_rate=1.0)
        a = run_fusion(imu, gnss, FusionConfig())
        b = run_fusion(imu, gnss, FusionConfig())
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.cov_diag, b.cov_diag)
        assert np.array_equal(a.nis, b.nis, equal_nan=True)

    def test_divergence_flag_instead_of_crash(self):
        imu = stationary_imu(50)
        cfg = FusionConfig(trace_ceiling=1e-6)
        result = run_fusion(imu, NO_FIXES, cfg)
        assert result.diverged.dtype == bool
        assert result.diverged.all()

    def test_innovation_gate_rejects_outlier(self):
        profile = TrajectoryProfile("stationary", duration=6.0)
        truth, ideal = generate_truth(profile)
        corr = SensorCorruption(seed=4, imu=QUIET, gnss=GnssNoise(1.0, 1.0, 1.0))
        imu, gnss = corrupt(truth, ideal, corr, gnss_rate=1.0)
        # Shift one fix far off-track.
        far = enu_to_geodetic([[500.0, 0.0, 0.0]], SCENARIO_ORIGIN)
        columns = [gnss.lat.copy(), gnss.lon.copy(), gnss.alt.copy()]
        for column, value in zip(columns, far):
            column[3] = value[0]
        gnss = GnssStream(gnss.t, *columns)
        cfg = FusionConfig(gnss_noise=GnssNoise(1.0, 1.0, 1.0), gnss_gate=16.27)
        result = run_fusion(imu, gnss, cfg)
        rejected = [u for u in result.updates if not u.accepted]
        assert len(rejected) == 1
        assert rejected[0].t == gnss.t[3]
        assert rejected[0].trace_after == rejected[0].trace_before

    def test_fix_before_first_imu_sample_skipped(self):
        result = run_fusion(stationary_imu(10, t0=10.0), ORIGIN_FIX, FusionConfig())
        assert result.updates == []

    def test_nis_recorded_on_update_estimates(self):
        profile = TrajectoryProfile("stationary", duration=3.0)
        truth, ideal = generate_truth(profile)
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=12), gnss_rate=1.0)
        result = run_fusion(imu, gnss, FusionConfig())
        traces = result.cov_diag.sum(axis=1)
        for event in result.updates:
            assert result.nis[event.imu_index] == pytest.approx(event.nis)
            assert traces[event.imu_index] == event.trace_after
        applied = np.zeros(len(result.t), dtype=bool)
        applied[[event.imu_index for event in result.updates]] = True
        assert np.isnan(result.nis[~applied]).all()

    def test_gnss_track_is_the_baseline(self):
        profile = TrajectoryProfile("circular", duration=10.0)
        truth, ideal = generate_truth(profile)
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=5), gnss_rate=1.0)
        result = run_fusion(imu, gnss, FusionConfig())
        t, positions = result.gnss_track
        baseline_t, baseline = run_gnss_only(gnss, result.origin)
        assert np.array_equal(t, baseline_t)
        assert np.array_equal(positions, baseline)


class TestFusionConfig:
    def test_rejects_bad_gate_and_ceiling(self):
        for kwargs in ({"gnss_gate": math.nan}, {"gnss_gate": 0.0}, {"gnss_gate": -1.0},
                       {"trace_ceiling": math.nan}, {"trace_ceiling": 0.0}):
            with pytest.raises(ValueError, match="must be positive"):
                FusionConfig(**kwargs)
        assert FusionConfig(gnss_gate=None, trace_ceiling=math.inf).gnss_gate is None

    def test_rejects_bad_sigma_scaling(self):
        for kwargs in ({"alpha": math.nan}, {"gamma": math.nan}, {"alpha": 0.0}):
            with pytest.raises(InvalidScaling):
                FusionConfig(**kwargs)


class TestRunGnssOnly:
    def test_single_fix_at_origin(self):
        t, positions = run_gnss_only(ORIGIN_FIX, SCENARIO_ORIGIN)
        assert t.tolist() == [0.0]
        assert positions.shape == (1, 3)
        assert np.linalg.norm(positions[0]) < 1e-9

    def test_truth_fixes_give_zero_rmse(self):
        profile = TrajectoryProfile("circular", duration=10.0)
        truth, _ = generate_truth(profile)
        fixes = truth_fixes(truth)
        out = run_gnss_only(fixes, SCENARIO_ORIGIN)
        err = align_and_diff(out, run_gnss_only(fixes, SCENARIO_ORIGIN))
        report = rmse(err, "GNSS")
        assert report.rmse_x == report.rmse_y == report.rmse_z == 0.0

    def test_noise_scale_reproduced(self):
        profile = TrajectoryProfile("stationary", duration=300.0)
        truth, ideal = generate_truth(profile)
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=1.0)
        baseline = run_gnss_only(gnss, SCENARIO_ORIGIN)
        truth_local = run_gnss_only(truth_fixes(truth), SCENARIO_ORIGIN)
        report = rmse(align_and_diff(baseline, truth_local), "GNSS")
        for value in (report.rmse_x, report.rmse_y, report.rmse_z):
            assert value == pytest.approx(13.0, rel=0.10)

    def test_empty_stream_rejected(self):
        with pytest.raises(EmptyStream):
            run_gnss_only(NO_FIXES, SCENARIO_ORIGIN)
