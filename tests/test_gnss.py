import math

import numpy as np
import pytest

from navfuse.errors import InvalidNoise
from navfuse.geodesy import WGS84, EnuFrame, GeodeticCoord, enu_rotation, geodetic_to_ecef
from navfuse.gnss import GnssFix, GnssNoise, cov_for_fix, fix_to_local, measurement_cov, measurement_fn
from navfuse.strapdown import NavState, quat_from_rotvec
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
        # per run maps each fix to the same bits as the per-fix formula.
        rng = np.random.default_rng(43)
        for _ in range(200):
            origin = GeodeticCoord(rng.uniform(-1.5, 1.5), rng.uniform(-3.1, 3.1),
                                   rng.uniform(-100.0, 3000.0))
            frame = EnuFrame(origin)
            for _ in range(5):
                fix = GnssFix(0.0, origin.lat + rng.uniform(-1e-3, 1e-3),
                              origin.lon + rng.uniform(-1e-3, 1e-3),
                              origin.height + rng.uniform(-50.0, 50.0))
                expected = enu_rotation(origin) @ (
                    geodetic_to_ecef(fix.geodetic()).as_array()
                    - geodetic_to_ecef(origin).as_array()
                )
                assert np.array_equal(fix_to_local(fix, frame).as_array(), expected)
                assert np.array_equal(fix_to_local(fix, origin).as_array(), expected)


class TestMeasurementFn:
    def test_extracts_position(self):
        state = NavState(np.array([1.0, 2.0, 3.0]), np.zeros(3),
                         np.array([1.0, 0, 0, 0]), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(measurement_fn(state), [1.0, 2.0, 3.0])

    def test_zero_state(self):
        np.testing.assert_array_equal(measurement_fn(NavState.identity()), np.zeros(3))

    def test_insensitive_to_other_fields(self):
        pos = np.array([1.0, 2.0, 3.0])
        a = NavState(pos, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3), np.zeros(3))
        b = NavState(pos, np.array([9.0, 9.0, 9.0]),
                     quat_from_rotvec(np.array([0.3, 0.1, -0.2])),
                     np.array([0.01, 0.02, 0.03]), np.array([0.1, 0.2, 0.3]))
        np.testing.assert_array_equal(measurement_fn(a), measurement_fn(b))

    def test_returns_copy(self):
        state = NavState.identity()
        out = measurement_fn(state)
        out[0] = 99.0
        assert state.position[0] == 0.0


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
        np.testing.assert_array_equal(cov_for_fix(fix, GnssNoise()), np.diag([1.0, 4.0, 9.0]))
        plain = GnssFix(0.0, 0.0, 0.0, 0.0)
        np.testing.assert_array_equal(cov_for_fix(plain, GnssNoise()), 169.0 * np.eye(3))


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
