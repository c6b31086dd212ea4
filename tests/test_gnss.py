import math

import numpy as np
import pytest

from oracles import reference_ecef

from navfuse.errors import InvalidNoise, NonMonotonicTime
from navfuse.geodesy import WGS84, GeodeticCoord, enu_rotation, geodetic_to_ecef
from navfuse.gnss import (
    GnssNoise,
    GnssStream,
    decimate_indices,
    measurement_cov,
    measurement_covs,
    outage_mask,
)
from navfuse.fusion import run_gnss_only
from navfuse.ukf import GaussianBelief, SigmaParams, unscented_measurement

ORIGIN = GeodeticCoord(math.radians(49.0), math.radians(8.43), 115.0)
NAN_ROW = [math.nan] * 3


def fix(lat, lon, alt, t=0.0):
    return GnssStream([t], [lat], [lon], [alt])


def to_local(fixes, origin):
    """The ENU positions of ``fixes`` in the frame anchored at ``origin``."""
    return run_gnss_only(fixes, origin)[1]


class TestFixToLocal:
    def test_fix_at_origin(self):
        local = to_local(fix(ORIGIN.lat, ORIGIN.lon, ORIGIN.height), ORIGIN)[0]
        assert np.linalg.norm(local) < 1e-9

    def test_vertical_offset(self):
        east, north, up = to_local(fix(ORIGIN.lat, ORIGIN.lon, ORIGIN.height + 5.0), ORIGIN)[0]
        assert up == pytest.approx(5.0, abs=1e-6)
        assert abs(east) < 1e-6
        assert abs(north) < 1e-6

    def test_longitude_offset_at_equator(self):
        equator = GeodeticCoord(0.0, 0.0, 0.0)
        east, north, _ = to_local(fix(0.0, 1e-5, 0.0), equator)[0]
        assert east == pytest.approx(WGS84.a * 1e-5, abs=1e-3)
        assert abs(north) < 1e-3

    def test_metric_consistency_with_ecef_chord(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            lat = ORIGIN.lat + rng.uniform(-1e-3, 1e-3, 2)
            lon = ORIGIN.lon + rng.uniform(-1e-3, 1e-3, 2)
            alt = ORIGIN.height + rng.uniform(-50, 50, 2)
            a, b = to_local(GnssStream([0.0, 1.0], lat, lon, alt), ORIGIN)
            p, q = geodetic_to_ecef(lat, lon, alt)
            chord = np.linalg.norm(p - q)
            assert np.linalg.norm(a - b) == pytest.approx(chord, rel=1e-9)

    def test_frame_bit_identical_to_origin(self):
        # Random fixes within ~10 km of random origins: the array
        # conversion of a whole run's fixes maps each fix to the same bits
        # as the per-fix formula and as the fix converted alone.
        rng = np.random.default_rng(43)
        for _ in range(200):
            origin = GeodeticCoord(rng.uniform(-1.5, 1.5), rng.uniform(-3.1, 3.1),
                                   rng.uniform(-100.0, 3000.0))
            fixes = GnssStream(
                np.arange(5.0),
                origin.lat + rng.uniform(-1e-3, 1e-3, 5),
                origin.lon + rng.uniform(-1e-3, 1e-3, 5),
                origin.height + rng.uniform(-50.0, 50.0, 5),
            )
            expected = np.array([
                enu_rotation(origin) @ (
                    reference_ecef(lat, lon, alt)
                    - reference_ecef(origin.lat, origin.lon, origin.height)
                )
                for lat, lon, alt in zip(fixes.lat, fixes.lon, fixes.alt)
            ])
            t, positions = run_gnss_only(fixes, origin)
            assert np.array_equal(t, np.arange(5.0))
            assert np.array_equal(positions, expected)
            for k in range(5):
                assert np.array_equal(to_local(fixes.take([k]), origin)[0], expected[k])


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
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidNoise):
                GnssNoise(1.0, bad, 1.0)

    def test_per_fix_sigma_overrides_default(self):
        covs = measurement_covs(np.array([[1.0, 2.0, 3.0], NAN_ROW]), GnssNoise())
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
        std = np.full((600, 3), math.nan)
        std[1::2] = sigmas.reshape(300, 3)
        covs = measurement_covs(std, default)
        assert covs.shape == (600, 3, 3)
        for row, cov in zip(std.tolist(), covs):
            noise = default if math.isnan(row[0]) else GnssNoise(*row)
            assert np.array_equal(cov, measurement_cov(noise))

    def test_array_covs_reject_bad_sigmas(self):
        good = [1.0, 1.0, 1.0]
        for std in ((1.0, 0.0, 1.0), (1.0, -2.0, 1.0), (math.nan, 1.0, 1.0)):
            with pytest.raises(InvalidNoise):
                measurement_covs(np.array([good, std]), GnssNoise())
        with pytest.raises(InvalidNoise):
            measurement_covs(np.array([good, NAN_ROW]), GnssNoise(0.0, 1.0, 1.0))
        # The default is only needed by a fix without receiver sigmas.
        assert measurement_covs(np.array([good]), GnssNoise(0.0, 1.0, 1.0)).shape == (1, 3, 3)
        assert measurement_covs(np.empty((0, 3)), GnssNoise(0.0, 1.0, 1.0)).shape == (0, 3, 3)


class TestStreams:
    def test_gnss_stream_columns_and_take(self):
        fixes = GnssStream([0.5, 1.5, 1.5], [0.1, -0.1, 0.0], [0.2, -0.2, 0.0], [3.0, 4.0, 5.0],
                           [[1.0, 2.0, 3.0], NAN_ROW, NAN_ROW])
        assert len(fixes) == 3
        assert fixes.t.tolist() == [0.5, 1.5, 1.5]
        assert fixes.lat.tolist() == [0.1, -0.1, 0.0]
        assert fixes.lon.tolist() == [0.2, -0.2, 0.0]
        assert fixes.alt.tolist() == [3.0, 4.0, 5.0]
        assert fixes.std[0].tolist() == [1.0, 2.0, 3.0]
        assert np.isnan(fixes.std[1:]).all()
        for index in ([0, 2], np.array([True, False, True]), slice(0, 3, 2)):
            kept = fixes.take(index)
            assert kept.alt.tolist() == [3.0, 5.0]
            assert kept.std[0].tolist() == [1.0, 2.0, 3.0] and np.isnan(kept.std[1]).all()
        assert np.isnan(GnssStream([0.0], [0.0], [0.0], [0.0]).std).all()
        assert len(GnssStream(*np.empty((4, 0)))) == 0

    def test_gnss_stream_is_a_read_only_copy(self):
        lat = np.array([0.1, 0.2])
        fixes = GnssStream([0.0, 1.0], lat, [0.0, 0.0], [0.0, 0.0])
        lat[0] = 9.0
        assert fixes.lat[0] == 0.1
        with pytest.raises(ValueError):
            fixes.lat[0] = 0.3

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([0.0, 1.0], [0.1], [0.2, 0.2], [3.0, 3.0]), r"lat has shape \(1,\)"),
            (([0.0, 1.0], [0.1, 0.1], [0.2, 0.2], [3.0, 3.0], [[1.0, 1.0, 1.0]]),
             r"std has shape \(1, 3\)"),
            (([0.0, math.nan, 2.0], [0.1] * 3, [0.2] * 3, [3.0] * 3),
             "row 1: timestamp must be finite"),
            (([0.0, 1.0, math.inf], [0.1] * 3, [0.2] * 3, [3.0] * 3),
             "row 2: timestamp must be finite"),
            (([0.0, 1.0, 2.0], [0.1, 1.6, 2.0], [0.2] * 3, [3.0] * 3),
             "row 1: latitude 1.6 outside"),
            (([0.0, 1.0, 2.0], [0.1] * 3, [0.2, 0.2, -3.5], [3.0] * 3),
             "row 2: longitude -3.5 outside"),
            (([0.0, 1.0, 2.0], [0.1] * 3, [0.2] * 3, [3.0, math.nan, 3.0]),
             "row 1: height must be finite"),
        ],
    )
    def test_gnss_stream_rejects_bad_rows(self, columns, message):
        with pytest.raises(ValueError, match=message):
            GnssStream(*columns)

    def test_gnss_stream_time_regression(self):
        with pytest.raises(NonMonotonicTime) as info:
            GnssStream([0.0, 1.0, 1.0, 0.5], [0.1] * 4, [0.2] * 4, [3.0] * 4)
        assert info.value.index == 3

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
