import math

import numpy as np
import pytest

from navfuse.errors import NearSingularity
from navfuse.geodesy import (
    WGS84,
    EcefCoord,
    EnuFrame,
    GeodeticCoord,
    LocalEnu,
    ecef_to_enu,
    ecef_to_geodetic,
    enu_rotation,
    enu_to_ecef,
    geodetic_to_ecef,
    geodetic_to_enu,
    normal_radius,
)

from oracles import hp_geodetic_to_ecef, hp_normal_radius, reference_ecef

# Frozen 50-digit reference values (see oracles.py).
POLAR_RADIUS = 6399593.625803977
RN_AT_0_7 = 6387015.622584316
KARLSRUHE = (4147213.2808052665, 614626.1743086122, 4790645.539025034)


def random_geodetics(n, seed=0, h_low=-1000.0, h_high=10000.0):
    rng = np.random.default_rng(seed)
    lats = rng.uniform(-math.pi / 2, math.pi / 2, n)
    lons = rng.uniform(-math.pi, math.pi, n)
    heights = rng.uniform(h_low, h_high, n)
    return [GeodeticCoord(*args) for args in zip(lats, lons, heights)]


class TestNormalRadius:
    def test_equator_is_semi_major(self):
        assert normal_radius(0.0) == WGS84.a

    def test_pole_limit(self):
        assert normal_radius(math.pi / 2) == pytest.approx(POLAR_RADIUS, abs=1e-6)

    def test_mid_latitude_against_high_precision(self):
        assert normal_radius(0.7) == pytest.approx(RN_AT_0_7, abs=1e-6)
        assert normal_radius(0.7) == pytest.approx(hp_normal_radius(0.7), abs=1e-7)

    def test_monotone_in_absolute_latitude(self):
        lats = np.linspace(0.0, math.pi / 2, 500)
        values = np.array([normal_radius(l) for l in lats])
        assert np.all(np.diff(values) >= 0)
        assert np.all(values >= WGS84.a)
        assert np.all(values <= POLAR_RADIUS + 1e-6)


class TestGeodeticToEcef:
    def test_equator_prime_meridian(self):
        p = geodetic_to_ecef(GeodeticCoord(0.0, 0.0, 0.0))
        assert (p.x, p.y, p.z) == (WGS84.a, 0.0, 0.0)

    def test_north_pole(self):
        p = geodetic_to_ecef(GeodeticCoord(math.pi / 2, 0.0, 0.0))
        assert p.z == pytest.approx(WGS84.b, abs=1e-9)
        assert math.hypot(p.x, p.y) < 1e-9

    def test_karlsruhe_fixture(self):
        g = GeodeticCoord(math.radians(49.0), math.radians(8.43), 115.0)
        p = geodetic_to_ecef(g)
        assert p.x == pytest.approx(KARLSRUHE[0], abs=1e-7)
        assert p.y == pytest.approx(KARLSRUHE[1], abs=1e-7)
        assert p.z == pytest.approx(KARLSRUHE[2], abs=1e-7)

    def test_matches_high_precision_oracle(self):
        for g in random_geodetics(50, seed=3):
            p = geodetic_to_ecef(g)
            hx, hy, hz = hp_geodetic_to_ecef(g.lat, g.lon, g.height)
            assert p.x == pytest.approx(hx, abs=1e-6)
            assert p.y == pytest.approx(hy, abs=1e-6)
            assert p.z == pytest.approx(hz, abs=1e-6)


def one_point_inverse(points):
    """ecef_to_geodetic called on one EcefCoord per point, as the arrays
    (lat, lon, height)."""
    coords = [ecef_to_geodetic(EcefCoord(*p)) for p in np.asarray(points, dtype=float)]
    return tuple(np.array([getattr(g, name) for g in coords]) for name in ("lat", "lon", "height"))


def array_inverse(points):
    """ecef_to_geodetic called once on all points."""
    return ecef_to_geodetic(np.asarray(points, dtype=float))


# Each inverse test runs both forms of the call.
INVERSES = (one_point_inverse, array_inverse)


def ecef_points(geodetics):
    return np.array([geodetic_to_ecef(g).as_array() for g in geodetics])


class TestEcefToGeodetic:
    def test_equator_inverse(self):
        g = ecef_to_geodetic(EcefCoord(WGS84.a, 0.0, 0.0))
        assert g.lat == pytest.approx(0.0, abs=1e-12)
        assert g.lon == pytest.approx(0.0, abs=1e-12)
        assert g.height == pytest.approx(0.0, abs=1e-7)

    def test_pole_longitude_convention(self):
        for inverse in INVERSES:
            lat, lon, height = inverse([[0.0, 0.0, WGS84.b], [0.0, 0.0, -WGS84.b - 5.0]])
            np.testing.assert_allclose(lat, [math.pi / 2, -math.pi / 2], rtol=0, atol=1e-12)
            assert lon.tolist() == [0.0, 0.0], inverse.__name__
            np.testing.assert_allclose(height, [0.0, 5.0], rtol=0, atol=1e-7)

    def test_round_trip_over_terrestrial_shell(self):
        geodetics = random_geodetics(1000, seed=7)
        for inverse in INVERSES:
            lat, lon, height = inverse(ecef_points(geodetics))
            for k, g in enumerate(geodetics):
                back = GeodeticCoord(lat[k], lon[k], height[k])
                assert back.lat == pytest.approx(g.lat, abs=1e-9)
                assert back.height == pytest.approx(g.height, abs=1e-6)
                # longitude is degenerate at the poles
                if abs(g.lat) < math.pi / 2 - 1e-6:
                    assert back.lon == pytest.approx(g.lon, abs=1e-9)
                p = geodetic_to_ecef(back)
                q = geodetic_to_ecef(g)
                assert abs(p.x - q.x) < 1e-6
                assert abs(p.y - q.y) < 1e-6
                assert abs(p.z - q.z) < 1e-6

    def test_near_center_rejected(self):
        for inverse in INVERSES:
            with pytest.raises(NearSingularity):
                inverse([[WGS84.a, 0.0, 0.0], [100.0, 50.0, 10.0]])

    def test_matches_high_precision_oracle(self):
        # ECEF points of random geodetic points at 50 digits invert back
        # to the geodetic point to the resolution of the ECEF doubles.
        geodetics = random_geodetics(50, seed=3)
        points = [hp_geodetic_to_ecef(g.lat, g.lon, g.height) for g in geodetics]
        for inverse in INVERSES:
            lat, lon, height = inverse(points)
            np.testing.assert_allclose(lat, [g.lat for g in geodetics], rtol=0, atol=1e-14)
            np.testing.assert_allclose(lon, [g.lon for g in geodetics], rtol=0, atol=1e-14)
            np.testing.assert_allclose(height, [g.height for g in geodetics], rtol=0, atol=1e-8)

    def test_karlsruhe_fixture(self):
        for inverse in INVERSES:
            lat, lon, height = inverse([KARLSRUHE])
            assert lat[0] == pytest.approx(math.radians(49.0), abs=1e-14)
            assert lon[0] == pytest.approx(math.radians(8.43), abs=1e-14)
            assert height[0] == pytest.approx(115.0, abs=1e-8)

    def test_array_call_gives_one_point_bits(self):
        # The polar axis (exactly on it, and within the 1e-9 m of the
        # convention), the equator, and points whose fixed point converges
        # after one, two and three refinements (the height sets the count).
        geodetics = [
            GeodeticCoord(0.0, 0.0, 0.0),
            GeodeticCoord(math.radians(49.0), math.radians(8.43), 115.0),
            GeodeticCoord(-1.2, 3.0, 4e5),
            GeodeticCoord(0.3, 1.0, 2e7),
            GeodeticCoord(1.0, 2.0, 1e6),
            GeodeticCoord(-0.01, 0.2, -900.0),
        ]
        points = np.vstack([
            [[0.0, 0.0, WGS84.b], [0.0, 0.0, -WGS84.b], [3e-10, -2e-10, 7e6]],
            ecef_points(geodetics),
            ecef_points(random_geodetics(200, seed=61, h_high=4e7)),
        ])
        one = one_point_inverse(points)
        for got, want in zip(array_inverse(points), one):
            assert np.array_equal(got, want)
        assert one[0][2] == math.pi / 2 and one[1][2] == 0.0


class TestEnu:
    def test_self_origin_is_zero(self):
        origin = GeodeticCoord(0.3, -1.1, 250.0)
        local = ecef_to_enu(geodetic_to_ecef(origin), origin)
        assert abs(local.east) < 1e-9
        assert abs(local.north) < 1e-9
        assert abs(local.up) < 1e-9

    def test_axis_alignment_at_equator(self):
        # At lat=lon=0 the ECEF z axis points north and x points up.
        origin = GeodeticCoord(0.0, 0.0, 0.0)
        local = ecef_to_enu(EcefCoord(WGS84.a, 0.0, 1.0), origin)
        assert (local.east, local.north, local.up) == (0.0, 1.0, 0.0)

    def test_small_longitude_offset_maps_east(self):
        origin = GeodeticCoord(0.0, 0.0, 0.0)
        p = geodetic_to_ecef(GeodeticCoord(0.0, 1e-6, 0.0))
        local = ecef_to_enu(p, origin)
        assert local.east == pytest.approx(WGS84.a * 1e-6, abs=1e-3)
        assert abs(local.north) < 1e-3
        assert abs(local.up) < 1e-3

    def test_enu_to_ecef_inverse_of_origin(self):
        origin = GeodeticCoord(0.8, 0.1, 30.0)
        p = enu_to_ecef(LocalEnu(0.0, 0.0, 0.0), origin)
        q = geodetic_to_ecef(origin)
        assert (p.x, p.y, p.z) == (q.x, q.y, q.z)

    def test_round_trip_random_offsets(self):
        rng = np.random.default_rng(11)
        for origin in random_geodetics(100, seed=13):
            local = LocalEnu(*rng.uniform(-5e4, 5e4, 3))
            back = ecef_to_enu(enu_to_ecef(local, origin), origin)
            assert back.east == pytest.approx(local.east, abs=1e-9)
            assert back.north == pytest.approx(local.north, abs=1e-9)
            assert back.up == pytest.approx(local.up, abs=1e-9)

    def test_rotation_orthonormal_for_1000_origins(self):
        worst = 0.0
        for origin in random_geodetics(1000, seed=17):
            r = enu_rotation(origin)
            worst = max(worst, float(np.max(np.abs(r @ r.T - np.eye(3)))))
        assert worst <= 1e-12

    def test_norm_preservation(self):
        rng = np.random.default_rng(19)
        for origin in random_geodetics(100, seed=23):
            p = geodetic_to_ecef(origin).as_array() + rng.uniform(-1e4, 1e4, 3)
            local = ecef_to_enu(EcefCoord(*p), origin)
            chord = np.linalg.norm(p - geodetic_to_ecef(origin).as_array())
            assert np.linalg.norm(local.as_array()) == pytest.approx(chord, rel=1e-9)


class TestEnuFrame:
    def test_bit_identical_to_per_call_formulas(self):
        # The origin's ECEF position and rotation, computed once, give the
        # same bits as recomputing them for every conversion.
        rng = np.random.default_rng(37)
        for origin in random_geodetics(200, seed=41):
            frame = EnuFrame(origin)
            base = geodetic_to_ecef(origin).as_array()
            rot = enu_rotation(origin)
            p = EcefCoord(*(base + rng.uniform(-5e4, 5e4, 3)))
            expected = rot @ (p.as_array() - base)
            for got in (frame.to_local(p), ecef_to_enu(p, frame), ecef_to_enu(p, origin)):
                assert np.array_equal(got.as_array(), expected)
            local = LocalEnu(*rng.uniform(-5e4, 5e4, 3))
            expected = base + rot.T @ local.as_array()
            for got in (frame.to_ecef(local), enu_to_ecef(local, frame), enu_to_ecef(local, origin)):
                assert np.array_equal(got.as_array(), expected)


class TestGeodeticToEnu:
    def test_bit_identical_to_per_point_formula(self):
        # One array call over 1000 points near each of 50 random origins
        # gives every point the bits of rotation @ (ecef - origin_ecef)
        # with the scalar math ECEF formula.
        rng = np.random.default_rng(53)
        for origin in random_geodetics(50, seed=59):
            lat = np.clip(origin.lat + rng.uniform(-1e-2, 1e-2, 1000), -math.pi / 2, math.pi / 2)
            lon = np.clip(origin.lon + rng.uniform(-1e-2, 1e-2, 1000), -math.pi, math.pi)
            height = origin.height + rng.uniform(-500.0, 500.0, 1000)
            base = reference_ecef(origin.lat, origin.lon, origin.height)
            rot = enu_rotation(origin)
            expected = np.array([
                rot @ (reference_ecef(a, b, c) - base) for a, b, c in zip(lat, lon, height)
            ])
            for anchor in (origin, EnuFrame(origin)):
                assert np.array_equal(geodetic_to_enu(lat, lon, height, anchor), expected)
            assert np.array_equal(geodetic_to_ecef(origin).as_array(), base)

    def test_scalar_point(self):
        origin = GeodeticCoord(0.8, 0.1, 30.0)
        out = geodetic_to_enu(0.8, 0.1, 35.0, origin)
        assert out.shape == (1, 3)
        assert out[0, 2] == pytest.approx(5.0, abs=1e-6)

    def test_range_checks_name_the_first_bad_point(self):
        # Each case breaks point 1 (and point 2, in the first): the array
        # check raises the GeodeticCoord error of that point.
        origin = GeodeticCoord(0.8, 0.1, 30.0)
        ok = np.array([0.8, 0.8, 0.8])
        assert geodetic_to_enu(ok, ok, ok, origin).shape == (3, 3)
        cases = [
            ((np.array([0.8, 1.6, 2.0]), ok, ok), "latitude 1.6 outside"),
            ((np.array([0.8, math.nan, 0.8]), ok, ok), "latitude nan outside"),
            ((ok, np.array([0.8, -3.5, 0.8]), ok), "longitude -3.5 outside"),
            ((ok, ok, np.array([0.8, math.inf, 0.8])), "height must be finite"),
        ]
        for (lat, lon, height), message in cases:
            with pytest.raises(ValueError, match=message):
                geodetic_to_enu(lat, lon, height, origin)
            with pytest.raises(ValueError, match=message):
                GeodeticCoord(lat[1], lon[1], height[1])

    def test_non_finite_offset_rejected(self):
        with pytest.raises(ValueError, match="ENU components must be finite"):
            EnuFrame(GeodeticCoord(0.8, 0.1, 30.0)).points_to_local(
                np.array([[0.0, 0.0, 0.0], [math.inf, 0.0, 0.0]])
            )


class TestValidation:
    def test_latitude_bounds(self):
        with pytest.raises(ValueError):
            GeodeticCoord(2.0, 0.0, 0.0)

    def test_longitude_bounds(self):
        with pytest.raises(ValueError):
            GeodeticCoord(0.0, 4.0, 0.0)

    def test_height_finite(self):
        with pytest.raises(ValueError):
            GeodeticCoord(0.0, 0.0, math.inf)

    def test_e2_derived_from_axes(self):
        assert WGS84.e2 == pytest.approx((WGS84.a**2 - WGS84.b**2) / WGS84.a**2, rel=1e-15)
