"""Acceptance suite.

Each test prints one ``criterion N (<name>): PASS`` line on success (run
with ``pytest -s`` to see them) and enforces the stated runtime budget
where one applies.
"""

import math
import time

import numpy as np
import pytest

from navfuse.cli import main as cli_main
from navfuse.errors import MalformedRecord, MissingTimestamps, RecordCountMismatch
from navfuse.evaluate import align_and_diff, rmse
from navfuse.fusion import FusionConfig, run_fusion, run_gnss_only
from navfuse.geodesy import (
    WGS84,
    GeodeticCoord,
    ecef_to_geodetic,
    enu_rotation,
    geodetic_to_ecef,
)
from navfuse.kitti import load_sequence, parse_oxts_record
from navfuse.simulate import SensorCorruption, TrajectoryProfile, corrupt, generate_truth
from navfuse.strapdown import GRAVITY, NavState, propagate
from navfuse.ukf import GaussianBelief, SigmaParams, unscented_predict, unscented_update

from helpers import truth_fixes
from oracles import LinearKalmanFilter


def report(number, name):
    print(f"criterion {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# Shared scenario runs (criteria 4, 5, 6 share these)
# ---------------------------------------------------------------------------

def _table1_streams(outages=()):
    profile = TrajectoryProfile("circular", duration=90.0, imu_rate=100.0, gnss_rate=1.0)
    truth, ideal = generate_truth(profile)
    corruption = SensorCorruption(seed=42, outages=outages)
    imu, gnss = corrupt(truth, ideal, corruption, gnss_rate=profile.gnss_rate)
    return truth, imu, gnss


@pytest.fixture(scope="module")
def table1_run():
    start = time.perf_counter()
    truth, imu, gnss = _table1_streams()
    result = run_fusion(imu, gnss, FusionConfig())
    elapsed = time.perf_counter() - start
    truth_local = run_gnss_only(truth_fixes(truth), result.origin)
    fused = rmse(align_and_diff(result.track, truth_local), "GNSS-IMU")
    baseline = rmse(
        align_and_diff(run_gnss_only(gnss, result.origin), truth_local), "GNSS"
    )
    return dict(result=result, fused=fused, baseline=baseline, elapsed=elapsed,
                truth_local=truth_local, imu=imu)


@pytest.fixture(scope="module")
def outage_run():
    start = time.perf_counter()
    truth, imu, gnss = _table1_streams(outages=((30.0, 40.0),))
    result = run_fusion(imu, gnss, FusionConfig())
    elapsed = time.perf_counter() - start
    truth_local = run_gnss_only(truth_fixes(truth), result.origin)
    return dict(result=result, imu=imu, truth_local=truth_local, elapsed=elapsed)


# ---------------------------------------------------------------------------
# Criterion 1: linear-oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_linear_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n, m = 4, 2
    a = rng.standard_normal((n, n))
    a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
    h = rng.standard_normal((m, n))
    b = rng.standard_normal((n, n))
    q = 0.01 * (b @ b.T + n * np.eye(n))
    c = rng.standard_normal((m, m))
    r = 0.5 * (c @ c.T + m * np.eye(m))
    mean0 = rng.standard_normal(n)
    d = rng.standard_normal((n, n))
    cov0 = d @ d.T + n * np.eye(n)

    params = SigmaParams(n)
    belief = GaussianBelief(mean0, cov0)
    oracle = LinearKalmanFilter(mean0, cov0)
    for _ in range(100):
        y = rng.standard_normal(m)
        belief = unscented_predict(belief, lambda x: a @ x, q, params)
        oracle.predict(a, q)
        belief, _ = unscented_update(belief, lambda x: h @ x, r, y, params)
        oracle.update(h, r, y)
        np.testing.assert_allclose(belief.mean, oracle.mean, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(belief.cov, oracle.cov, rtol=1e-8, atol=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "linear-oracle equivalence")


# ---------------------------------------------------------------------------
# Criterion 2: unscented-transform exactness
# ---------------------------------------------------------------------------

def test_criterion_2_transform_exactness():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        params = SigmaParams(n)
        a = rng.standard_normal((n, n))
        c = rng.standard_normal(n)
        b = rng.standard_normal((n, n))
        cov = b @ b.T + n * np.eye(n)
        mean = rng.standard_normal(n)
        d = rng.standard_normal((n, n))
        q = 0.1 * (d @ d.T + n * np.eye(n))
        out = unscented_predict(
            GaussianBelief(mean, cov), lambda x: a @ x + c, q, params
        )
        np.testing.assert_allclose(out.mean, a @ mean + c, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(out.cov, a @ cov @ a.T + q, rtol=1e-10, atol=1e-9)

    # Scalar quadratic with kappa = 2 (alpha=1, gamma=2 at n=1).
    params = SigmaParams(1, alpha=1.0, gamma=2.0)
    out = unscented_predict(
        GaussianBelief([0.0], [[1.0]]), lambda x: x**2, np.zeros((1, 1)), params
    )
    assert abs(out.mean[0] - 1.0) <= 1e-12
    report(2, "unscented-transform exactness")


# ---------------------------------------------------------------------------
# Criterion 3: geodesy suite
# ---------------------------------------------------------------------------

def test_criterion_3_geodesy_suite():
    start = time.perf_counter()
    equator, pole = geodetic_to_ecef([0.0, math.pi / 2], [0.0, 0.0], [0.0, 0.0])
    assert abs(equator[0] - WGS84.a) <= 1e-9
    assert abs(equator[1]) <= 1e-9 and abs(equator[2]) <= 1e-9
    assert abs(pole[2] - WGS84.b) <= 1e-9
    assert math.hypot(pole[0], pole[1]) <= 1e-9
    lat, lon, height = ecef_to_geodetic([[WGS84.a, 0.0, 0.0]])
    assert abs(lat[0]) <= 1e-12 and abs(lon[0]) <= 1e-12 and abs(height[0]) <= 1e-9

    # The 1000 points of drawing lat, lon and height point by point.
    rng = np.random.default_rng(99)
    points = rng.uniform([-math.pi / 2, -math.pi, -1000.0], [math.pi / 2, math.pi, 10000.0],
                         (1000, 3))
    p = geodetic_to_ecef(*points.T)
    q = geodetic_to_ecef(*ecef_to_geodetic(p))
    assert np.abs(p - q).max() <= 1e-6
    worst_ortho = 0.0
    for g in points:
        r = enu_rotation(GeodeticCoord(*g))
        worst_ortho = max(worst_ortho, float(np.max(np.abs(r @ r.T - np.eye(3)))))
    assert worst_ortho <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, "geodesy suite")


# ---------------------------------------------------------------------------
# Criterion 4: Table-1 direction and scale
# ---------------------------------------------------------------------------

def test_criterion_4_fusion_direction_and_scale(table1_run):
    baseline = table1_run["baseline"]
    fused = table1_run["fused"]
    for value in (baseline.rmse_x, baseline.rmse_y, baseline.rmse_z):
        assert 11.7 <= value <= 14.3
    assert fused.rmse_x <= 0.5 * baseline.rmse_x
    assert fused.rmse_y <= 0.5 * baseline.rmse_y
    assert fused.rmse_z <= baseline.rmse_z
    assert table1_run["elapsed"] < 10.0
    report(4, "Table-1 direction and scale")


# ---------------------------------------------------------------------------
# Criterion 5: outage robustness
# ---------------------------------------------------------------------------

def test_criterion_5_outage_robustness(outage_run):
    result = outage_run["result"]
    imu = outage_run["imu"]
    assert len(result.t) == len(imu)
    assert result.t.tolist() == imu.t.tolist()

    t = result.t
    traces = result.cov_diag.sum(axis=1)
    in_gap = (t > 29.0) & (t < 40.0)
    assert np.all(np.diff(traces[in_gap]) >= 0)

    _, err = align_and_diff(result.track, outage_run["truth_local"])
    norm = np.sqrt(np.sum(err**2, axis=1))
    pre = t < 30.0
    pre_rmse = float(np.sqrt(np.mean(norm[pre] ** 2)))
    recovery_updates = [u for u in result.updates if u.t >= 40.0][:5]
    assert recovery_updates
    assert any(norm[u.imu_index] < 2.0 * pre_rmse for u in recovery_updates)
    assert outage_run["elapsed"] < 10.0
    report(5, "outage robustness")


# ---------------------------------------------------------------------------
# Criterion 6: covariance health
# ---------------------------------------------------------------------------

def test_criterion_6_covariance_health(table1_run, outage_run):
    events = table1_run["result"].updates + outage_run["result"].updates
    assert events
    for event in events:
        assert event.cov_asymmetry <= 1e-12
        assert event.cov_min_eig >= -1e-9
        if event.accepted:
            assert event.trace_after < event.trace_before
    for result in (table1_run["result"], outage_run["result"]):
        assert np.all(result.cov_diag >= -1e-9)
    report(6, "covariance health")


# ---------------------------------------------------------------------------
# Criterion 7: determinism of the Table-1 command
# ---------------------------------------------------------------------------

def test_criterion_7_byte_identical_reruns(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main([
        "simulate", "--profile", "circular", "--duration", "90",
        "--seed", "42", "--out", str(sim),
    ]) == 0
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli_main([
            "fuse", "--imu", str(sim / "imu.csv"), "--gnss", str(sim / "gnss.csv"),
            "--truth", str(sim / "truth.csv"), "--out", str(out),
        ]) == 0
        outputs.append(out)
    a, b = outputs
    assert (a / "estimate.csv").read_bytes() == (b / "estimate.csv").read_bytes()
    assert (a / "rmse.csv").read_bytes() == (b / "rmse.csv").read_bytes()
    report(7, "byte-identical reruns")


# ---------------------------------------------------------------------------
# Criterion 8: strapdown fixed point
# ---------------------------------------------------------------------------

def test_criterion_8_strapdown_fixed_point():
    state = NavState.identity()
    reference = state.as_vector()
    gyro, accel = np.zeros(3), np.array([0.0, 0.0, GRAVITY])
    for _ in range(1000):
        state = propagate(state, gyro, accel, 0.01)
        assert np.max(np.abs(state.as_vector() - reference)) <= 1e-12
    report(8, "strapdown fixed point")


# ---------------------------------------------------------------------------
# Criterion 9: KITTI format fidelity
# ---------------------------------------------------------------------------

def test_criterion_9_kitti_format_fidelity(kitti_drive, tmp_path):
    imu, gnss = load_sequence(kitti_drive)
    assert len(imu) == 3 and len(gnss) == 1
    assert imu.t[0] == 0.0
    np.testing.assert_allclose(imu.gyro[0], [0.0011, -0.0021, 0.0101])
    np.testing.assert_allclose(imu.accel[0], [0.31, -0.21, 9.81])
    np.testing.assert_allclose(imu.gyro[2], [0.0015, -0.0025, 0.0105])
    assert gnss.lat[0] == pytest.approx(math.radians(49.0), abs=1e-15)
    assert gnss.alt[0] == 115.0

    record = parse_oxts_record(
        "49.0 8.43 115.0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
    )
    assert (record.lat, record.lon, record.alt) == (49.0, 8.43, 115.0)

    with pytest.raises(MalformedRecord):
        parse_oxts_record("")
    with pytest.raises(MalformedRecord, match="29"):
        parse_oxts_record(" ".join(["1.0"] * 29))
    with pytest.raises(MissingTimestamps):
        load_sequence(tmp_path)
    (tmp_path / "oxts" / "data").mkdir(parents=True)
    (tmp_path / "oxts" / "timestamps.txt").write_text("2011-09-26 13:02:25.9\n")
    with pytest.raises(RecordCountMismatch):
        load_sequence(tmp_path)
    report(9, "KITTI format fidelity")
