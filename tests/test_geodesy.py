import math

import numpy as np
import pytest

from navfuse.errors import NearSingularity
from navfuse.geodesy import (
    WGS84,
    GeodeticCoord,
    ecef_to_geodetic,
    enu_rotation,
    enu_to_geodetic,
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
    """Arrays (lat, lon, height) of ``n`` random geodetic points."""
    rng = np.random.default_rng(seed)
    lats = rng.uniform(-math.pi / 2, math.pi / 2, n)
    lons = rng.uniform(-math.pi, math.pi, n)
    heights = rng.uniform(h_low, h_high, n)
    return lats, lons, heights


def random_origins(n, seed):
    return [GeodeticCoord(*g) for g in zip(*random_geodetics(n, seed))]


def origin_ecef(origin):
    return geodetic_to_ecef(origin.lat, origin.lon, origin.height)[0]


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
        assert geodetic_to_ecef(0.0, 0.0, 0.0).tolist() == [[WGS84.a, 0.0, 0.0]]

    def test_north_pole(self):
        x, y, z = geodetic_to_ecef(math.pi / 2, 0.0, 0.0)[0]
        assert z == pytest.approx(WGS84.b, abs=1e-9)
        assert math.hypot(x, y) < 1e-9

    def test_karlsruhe_fixture(self):
        p = geodetic_to_ecef(math.radians(49.0), math.radians(8.43), 115.0)
        np.testing.assert_allclose(p, [KARLSRUHE], rtol=0, atol=1e-7)

    def test_matches_high_precision_oracle(self):
        lat, lon, height = random_geodetics(50, seed=3)
        expected = [hp_geodetic_to_ecef(*g) for g in zip(lat, lon, height)]
        np.testing.assert_allclose(geodetic_to_ecef(lat, lon, height), expected, rtol=0, atol=1e-6)


class TestEcefToGeodetic:
    def test_equator_inverse(self):
        lat, lon, height = ecef_to_geodetic([[WGS84.a, 0.0, 0.0]])
        assert lat[0] == pytest.approx(0.0, abs=1e-12)
        assert lon[0] == pytest.approx(0.0, abs=1e-12)
        assert height[0] == pytest.approx(0.0, abs=1e-7)

    def test_pole_longitude_convention(self):
        # On the polar axis, and within the 1e-9 m of the convention.
        lat, lon, height = ecef_to_geodetic(
            [[0.0, 0.0, WGS84.b], [0.0, 0.0, -WGS84.b - 5.0], [3e-10, -2e-10, 7e6]]
        )
        np.testing.assert_allclose(lat[:2], [math.pi / 2, -math.pi / 2], rtol=0, atol=1e-12)
        assert lat[2] == math.pi / 2
        assert lon.tolist() == [0.0, 0.0, 0.0]
        np.testing.assert_allclose(height[:2], [0.0, 5.0], rtol=0, atol=1e-7)

    def test_round_trip_over_terrestrial_shell(self):
        g_lat, g_lon, g_height = random_geodetics(1000, seed=7)
        p = geodetic_to_ecef(g_lat, g_lon, g_height)
        lat, lon, height = ecef_to_geodetic(p)
        np.testing.assert_allclose(lat, g_lat, rtol=0, atol=1e-9)
        np.testing.assert_allclose(height, g_height, rtol=0, atol=1e-6)
        # longitude is degenerate at the poles
        off_pole = np.abs(g_lat) < math.pi / 2 - 1e-6
        np.testing.assert_allclose(lon[off_pole], g_lon[off_pole], rtol=0, atol=1e-9)
        assert np.abs(geodetic_to_ecef(lat, lon, height) - p).max() < 1e-6

    def test_near_center_rejected(self):
        with pytest.raises(NearSingularity):
            ecef_to_geodetic([[WGS84.a, 0.0, 0.0], [100.0, 50.0, 10.0]])

    def test_matches_high_precision_oracle(self):
        # ECEF points of random geodetic points at 50 digits invert back
        # to the geodetic point to the resolution of the ECEF doubles.
        g_lat, g_lon, g_height = random_geodetics(50, seed=3)
        points = [hp_geodetic_to_ecef(*g) for g in zip(g_lat, g_lon, g_height)]
        lat, lon, height = ecef_to_geodetic(points)
        np.testing.assert_allclose(lat, g_lat, rtol=0, atol=1e-14)
        np.testing.assert_allclose(lon, g_lon, rtol=0, atol=1e-14)
        np.testing.assert_allclose(height, g_height, rtol=0, atol=1e-8)

    def test_karlsruhe_fixture(self):
        lat, lon, height = ecef_to_geodetic([KARLSRUHE])
        assert lat[0] == pytest.approx(math.radians(49.0), abs=1e-14)
        assert lon[0] == pytest.approx(math.radians(8.43), abs=1e-14)
        assert height[0] == pytest.approx(115.0, abs=1e-8)

    def test_array_call_gives_one_point_bits(self):
        # A point gets the same bits whatever else is in the call: the
        # polar axis (exactly on it, and within the 1e-9 m of the
        # convention), the equator, and points whose fixed point converges
        # after one, two and three refinements (the height sets the count).
        points = np.vstack([
            [[0.0, 0.0, WGS84.b], [0.0, 0.0, -WGS84.b], [3e-10, -2e-10, 7e6]],
            geodetic_to_ecef(
                [0.0, math.radians(49.0), -1.2, 0.3, 1.0, -0.01],
                [0.0, math.radians(8.43), 3.0, 1.0, 2.0, 0.2],
                [0.0, 115.0, 4e5, 2e7, 1e6, -900.0],
            ),
            geodetic_to_ecef(*random_geodetics(200, seed=61, h_high=4e7)),
        ])
        alone = np.array([ecef_to_geodetic(p[None]) for p in points])[:, :, 0].T
        for got, want in zip(ecef_to_geodetic(points), alone):
            assert np.array_equal(got, want)


class TestEnu:
    def test_self_origin_is_zero(self):
        origin = GeodeticCoord(0.3, -1.1, 250.0)
        local = geodetic_to_enu(origin.lat, origin.lon, origin.height, origin)
        assert np.abs(local).max() < 1e-9

    def test_axis_alignment_at_equator(self):
        # At lat=lon=0 the ECEF z axis points north and x points up, and
        # y east: each unit ENU offset lands on those ECEF points exactly.
        origin = GeodeticCoord(0.0, 0.0, 0.0)
        a = WGS84.a
        for enu, ecef in (
            ([1.0, 0.0, 0.0], [a, 1.0, 0.0]),
            ([0.0, 1.0, 0.0], [a, 0.0, 1.0]),
            ([0.0, 0.0, 1.0], [a + 1.0, 0.0, 0.0]),
        ):
            expected = ecef_to_geodetic([ecef])
            got = enu_to_geodetic([enu], origin)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)
            back = geodetic_to_enu(*expected, origin)[0]
            np.testing.assert_allclose(back, enu, rtol=0, atol=1e-9)

    def test_small_longitude_offset_maps_east(self):
        origin = GeodeticCoord(0.0, 0.0, 0.0)
        east, north, up = geodetic_to_enu(0.0, 1e-6, 0.0, origin)[0]
        assert east == pytest.approx(WGS84.a * 1e-6, abs=1e-3)
        assert abs(north) < 1e-3
        assert abs(up) < 1e-3

    def test_enu_to_ecef_inverse_of_origin(self):
        # A zero offset is the origin's own ECEF point.
        origin = GeodeticCoord(0.8, 0.1, 30.0)
        got = enu_to_geodetic([[0.0, 0.0, 0.0]], origin)
        for g, e in zip(got, ecef_to_geodetic([origin_ecef(origin)])):
            assert np.array_equal(g, e)
        np.testing.assert_allclose(
            np.concatenate(got), [origin.lat, origin.lon, origin.height], rtol=0, atol=1e-9
        )

    def test_round_trip_random_offsets(self):
        rng = np.random.default_rng(11)
        for origin in random_origins(100, seed=13):
            local = rng.uniform(-5e4, 5e4, (1, 3))
            back = geodetic_to_enu(*enu_to_geodetic(local, origin), origin)
            np.testing.assert_allclose(back, local, rtol=0, atol=1e-6)

    def test_rotation_orthonormal_for_1000_origins(self):
        worst = 0.0
        for origin in random_origins(1000, seed=17):
            r = enu_rotation(origin)
            worst = max(worst, float(np.max(np.abs(r @ r.T - np.eye(3)))))
        assert worst <= 1e-12

    def test_norm_preservation(self):
        rng = np.random.default_rng(19)
        for origin in random_origins(100, seed=23):
            lat = np.clip(origin.lat + rng.uniform(-1e-3, 1e-3, 5), -math.pi / 2, math.pi / 2)
            lon = np.clip(origin.lon + rng.uniform(-1e-3, 1e-3, 5), -math.pi, math.pi)
            height = origin.height + rng.uniform(-1e4, 1e4, 5)
            local = geodetic_to_enu(lat, lon, height, origin)
            chord = geodetic_to_ecef(lat, lon, height) - origin_ecef(origin)
            np.testing.assert_allclose(
                np.linalg.norm(local, axis=1), np.linalg.norm(chord, axis=1), rtol=1e-9
            )


class TestGeodeticToEnu:
    def test_bit_identical_to_per_point_formula(self):
        # One array call over 1000 points near each of 50 random origins
        # gives every point the bits of rotation @ (ecef - origin_ecef)
        # with the scalar math ECEF formula.
        rng = np.random.default_rng(53)
        for origin in random_origins(50, seed=59):
            lat = np.clip(origin.lat + rng.uniform(-1e-2, 1e-2, 1000), -math.pi / 2, math.pi / 2)
            lon = np.clip(origin.lon + rng.uniform(-1e-2, 1e-2, 1000), -math.pi, math.pi)
            height = origin.height + rng.uniform(-500.0, 500.0, 1000)
            base = reference_ecef(origin.lat, origin.lon, origin.height)
            rot = enu_rotation(origin)
            expected = np.array([
                rot @ (reference_ecef(a, b, c) - base) for a, b, c in zip(lat, lon, height)
            ])
            assert np.array_equal(geodetic_to_enu(lat, lon, height, origin), expected)
            assert np.array_equal(origin_ecef(origin), base)

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
        # Finite heights whose offset overflows: 1e308 m above the point
        # and 1e308 m below the origin on the same normal.
        origin = GeodeticCoord(0.8, 0.1, -1e308)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="ENU components must be finite"):
            geodetic_to_enu([0.8, 0.8], [0.1, 0.1], [0.0, 1e308], origin)


class TestEnuToGeodetic:
    def test_bit_identical_to_per_point_formula(self):
        # Random offsets from random origins: each point gets the bits of
        # ecef_to_geodetic of origin_ecef + rotation.T @ offset, with the
        # scalar math ECEF formula for the origin.
        rng = np.random.default_rng(67)
        for origin in random_origins(20, seed=71):
            enu = rng.uniform(-5e4, 5e4, (50, 3))
            base = reference_ecef(origin.lat, origin.lon, origin.height)
            rot = enu_rotation(origin)
            expected = ecef_to_geodetic(np.array([base + rot.T @ d for d in enu]))
            for got, want in zip(enu_to_geodetic(enu, origin), expected):
                assert np.array_equal(got, want)


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
