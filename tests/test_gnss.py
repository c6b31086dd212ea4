import math

import numpy as np
import pytest

from oracles import reference_ecef

from navfuse.errors import InvalidNoise
from navfuse.geodesy import WGS84, EnuFrame, GeodeticCoord, enu_rotation, geodetic_to_ecef
from navfuse.gnss import (
    GnssFix,
    GnssNoise,
    decimate_indices,
    fix_to_local,
    measurement_cov,
    measurement_covs,
    outage_mask,
    stack_fixes,
)
from navfuse.fusion import run_gnss_only
from navfuse.ukf import GaussianBelief, SigmaParams, unscented_measurement

ORIGIN = GeodeticCoord(math.radians(49.0), math.radians(8.43), 115.0)


class TestFixToLocal:
    def test_fix_at_origin(self):
        fix = GnssFix(0.0, ORIGIN.lat, ORIGIN.lon, ORIGIN.height)
        local = fix_to_local(fix, ORIGIN)
        assert np.linalg.norm(local.as_array()) < 1e-9

    def test_vertical_offset(self):
        fix = GnssFix(0.0, ORIGIN.lat, ORIGIN.lon, ORIGIN.height + 5.0)
        local = fix_to_local(fix, ORIGIN)
        assert local.up == pytest.approx(5.0, abs=1e-6)
        assert abs(local.east) < 1e-6
        assert abs(local.north) < 1e-6

    def test_longitude_offset_at_equator(self):
        equator = GeodeticCoord(0.0, 0.0, 0.0)
        fix = GnssFix(0.0, 0.0, 1e-5, 0.0)
        local = fix_to_local(fix, equator)
        assert local.east == pytest.approx(WGS84.a * 1e-5, abs=1e-3)
        assert abs(local.north) < 1e-3

    def test_metric_consistency_with_ecef_chord(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = GnssFix(0.0, ORIGIN.lat + rng.uniform(-1e-3, 1e-3),
                        ORIGIN.lon + rng.uniform(-1e-3, 1e-3),
                        ORIGIN.height + rng.uniform(-50, 50))
            b = GnssFix(1.0, ORIGIN.lat + rng.uniform(-1e-3, 1e-3),
                        ORIGIN.lon + rng.uniform(-1e-3, 1e-3),
                        ORIGIN.height + rng.uniform(-50, 50))
            local = np.linalg.norm(
                fix_to_local(a, ORIGIN).as_array() - fix_to_local(b, ORIGIN).as_array()
            )
            chord = np.linalg.norm(
                geodetic_to_ecef(a.geodetic()).as_array()
                - geodetic_to_ecef(b.geodetic()).as_array()
            )
            assert local == pytest.approx(chord, rel=1e-9)


    def test_frame_bit_identical_to_origin(self):
        # Random fixes within ~10 km of random origins: a frame built once
        # per run, and the array conversion of a whole run's fixes, map
        # each fix to the same bits as the per-fix formula.
        rng = np.random.default_rng(43)
        for _ in range(200):
            origin = GeodeticCoord(rng.uniform(-1.5, 1.5), rng.uniform(-3.1, 3.1),
                                   rng.uniform(-100.0, 3000.0))
            frame = EnuFrame(origin)
            fixes = []
            expected = []
            for k in range(5):
                fix = GnssFix(float(k), origin.lat + rng.uniform(-1e-3, 1e-3),
                              origin.lon + rng.uniform(-1e-3, 1e-3),
                              origin.height + rng.uniform(-50.0, 50.0))
                want = enu_rotation(origin) @ (
                    reference_ecef(fix.lat, fix.lon, fix.alt)
                    - reference_ecef(origin.lat, origin.lon, origin.height)
                )
                assert np.array_equal(fix_to_local(fix, frame).as_array(), want)
                assert np.array_equal(fix_to_local(fix, origin).as_array(), want)
                fixes.append(fix)
                expected.append(want)
            for anchor in (frame, origin):
                t, positions = run_gnss_only(fixes, anchor)
                assert np.array_equal(t, np.arange(5.0))
                assert np.array_equal(positions, np.array(expected))


class TestMeasurementCov:
    def test_unit_sigmas_give_identity(self):
        np.testing.assert_array_equal(measurement_cov(GnssNoise(1, 1, 1)), np.eye(3))

    def test_squares_on_diagonal(self):
        np.testing.assert_array_equal(
            measurement_cov(GnssNoise(2, 3, 4)), np.diag([4.0, 9.0, 16.0])
        )

    def test_doubling_sigmas_quadruples_entries(self):
        base = measurement_cov(GnssNoise(2, 3, 4))
        np.testing.assert_allclose(measurement_cov(GnssNoise(4, 6, 8)), 4 * base)

    def test_zero_sigma_rejected_by_cov(self):
        with pytest.raises(InvalidNoise):
            measurement_cov(GnssNoise(0.0, 1.0, 1.0))

    def test_negative_sigma_rejected_at_construction(self):
        with pytest.raises(InvalidNoise):
            GnssNoise(-1.0, 1.0, 1.0)

    def test_per_fix_sigma_overrides_default(self):
        fix = GnssFix(0.0, 0.0, 0.0, 0.0, std=(1.0, 2.0, 3.0))
        plain = GnssFix(0.0, 0.0, 0.0, 0.0)
        covs = measurement_covs([fix, plain], GnssNoise())
        np.testing.assert_array_equal(covs[0], np.diag([1.0, 4.0, 9.0]))
        np.testing.assert_array_equal(covs[1], 169.0 * np.eye(3))

    def test_array_covs_bit_identical_to_per_fix_formula(self):
        # The R of every fix at once equals, bit for bit, the per-fix
        # measurement_cov(GnssNoise(*std)) or the default.
        # Half the sigmas are ones whose square by libm pow (Python's **)
        # and by multiplication differ in the last bit.
        rng = np.random.default_rng(47)
        candidates = rng.uniform(0.1, 30.0, 1_000_000).tolist()
        split = [s for s in candidates if s**2 != s * s][:450]
        assert len(split) == 450
        sigmas = np.concatenate([split, rng.uniform(0.1, 30.0, 450)])
        rng.shuffle(sigmas)
        default = GnssNoise(13.0, 7.3, 2.9)
        fixes = []
        for k in range(600):
            std = tuple(sigmas[3 * (k // 2): 3 * (k // 2) + 3]) if k % 2 else None
            fixes.append(GnssFix(float(k), 0.0, 0.0, 0.0, std=std))
        covs = measurement_covs(fixes, default)
        assert covs.shape == (600, 3, 3)
        for fix, cov in zip(fixes, covs):
            noise = default if fix.std is None else GnssNoise(*fix.std)
            assert np.array_equal(cov, measurement_cov(noise))

    def test_array_covs_reject_bad_sigmas(self):
        good = GnssFix(0.0, 0.0, 0.0, 0.0, std=(1.0, 1.0, 1.0))
        for std in ((1.0, 0.0, 1.0), (1.0, -2.0, 1.0), (math.nan, 1.0, 1.0)):
            with pytest.raises(InvalidNoise):
                measurement_covs([good, GnssFix(1.0, 0.0, 0.0, 0.0, std=std)], GnssNoise())
        plain = GnssFix(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidNoise):
            measurement_covs([good, plain], GnssNoise(0.0, 1.0, 1.0))
        # The default is only needed by a fix without receiver sigmas.
        assert measurement_covs([good], GnssNoise(0.0, 1.0, 1.0)).shape == (1, 3, 3)
        assert measurement_covs([], GnssNoise(0.0, 1.0, 1.0)).shape == (0, 3, 3)


class TestStreams:
    def test_stack_fixes(self):
        fixes = [GnssFix(0.5, 0.1, 0.2, 3.0), GnssFix(1.5, -0.1, -0.2, 4.0)]
        t, lat, lon, alt = stack_fixes(fixes)
        assert t.tolist() == [0.5, 1.5]
        assert lat.tolist() == [0.1, -0.1]
        assert lon.tolist() == [0.2, -0.2]
        assert alt.tolist() == [3.0, 4.0]
        assert all(column.shape == (0,) for column in stack_fixes([]))

    def test_outage_mask_half_open_windows(self):
        times = np.array([0.0, 1.0, 1.5, 2.0, 5.0, 6.0, 7.0])
        mask = outage_mask(times, [(1.0, 2.0), (5.0, 7.0)])
        assert mask.tolist() == [False, True, True, False, True, True, False]
        assert not outage_mask(times, []).any()

    def test_decimate_keeps_first_of_each_bucket(self):
        # Absolute buckets: 0.95 and 1.02 fall in different 1 s buckets,
        # and the early 1.98 shares bucket 1 with 1.02 and is dropped.
        times = np.array([0.0, 0.5, 0.95, 1.02, 1.98, 2.0, 4.1])
        assert decimate_indices(times, 1.0).tolist() == [0, 3, 5, 6]
        assert decimate_indices(times, 10.0).tolist() == list(range(7))
        for rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                decimate_indices(times, rate)


class TestLinearityThroughTransform:
    def test_position_block_reproduced_exactly(self):
        # Position extraction is linear in the error state, so the
        # projected covariance must equal the position block.
        rng = np.random.default_rng(31)
        b = rng.standard_normal((15, 15))
        cov = b @ b.T + 15 * np.eye(15)
        belief = GaussianBelief(np.zeros(15), cov)
        r = np.eye(3)
        mp = unscented_measurement(belief, lambda d: d[:3], r, SigmaParams(15))
        np.testing.assert_allclose(mp.cov - r, cov[:3, :3], rtol=1e-10, atol=1e-10)
