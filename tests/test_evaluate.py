import dataclasses
import math

import numpy as np
import pytest
from oracles import reference_errors_text, reference_estimates_text, reference_track_text

from navfuse.cli import write_estimates_csv
from navfuse.errors import EmptySeries, MalformedRecord, NavFuseError, TimeSpanMismatch
from navfuse.evaluate import (
    ErrorSeries,
    RmseReport,
    _fmt,
    _read_table,
    _write_table,
    align_and_diff,
    atomic_write_text,
    export_errors_csv,
    export_rmse_csv,
    export_track_csv,
    rmse,
)
from navfuse.fusion import FusionConfig, run_fusion
from navfuse.simulate import SensorCorruption, TrajectoryProfile, corrupt, generate_truth


def track(*poses):
    """A track (t, positions) from (t, e, n, u) tuples."""
    rows = np.array(poses, dtype=float).reshape(-1, 4)
    return rows[:, 0], rows[:, 1:4]


class TestAlignAndDiff:
    def test_identical_series_is_zero(self):
        poses = track(*[(t, t * 2.0, -t, 1.0) for t in (0.0, 0.5, 1.0)])
        err = align_and_diff(poses, poses)
        assert not err.ex.any() and not err.ey.any() and not err.ez.any()

    def test_constant_offset(self):
        truth = track(*[(t, 0.0, 0.0, 0.0) for t in (0.0, 1.0, 2.0)])
        est = track(*[(t, 3.0, 0.0, 0.0) for t in (0.0, 1.0, 2.0)])
        err = align_and_diff(est, truth)
        np.testing.assert_array_equal(err.ex, 3.0)

    def test_linear_interpolation_midpoint(self):
        truth = track((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 0.0, 0.0))
        est = track((0.5, 1.0, 0.0, 0.0))
        err = align_and_diff(est, truth)
        assert err.ex[0] == pytest.approx(0.0, abs=1e-15)

    def test_span_mismatch(self):
        truth = track((0.0, 0, 0, 0), (1.0, 0, 0, 0))
        with pytest.raises(TimeSpanMismatch):
            align_and_diff(track((2.0, 0, 0, 0)), truth)

    def test_empty_inputs(self):
        with pytest.raises(EmptySeries):
            align_and_diff(track(), track((0.0, 0, 0, 0)))


class TestRmse:
    def test_zero_series(self):
        series = ErrorSeries(np.arange(3.0), np.zeros(3), np.zeros(3), np.zeros(3))
        report = rmse(series, "m")
        assert (report.rmse_x, report.rmse_y, report.rmse_z) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        series = ErrorSeries(np.arange(5.0), np.full(5, 3.0), np.zeros(5), np.zeros(5))
        assert rmse(series, "m").rmse_x == pytest.approx(3.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        e = rng.standard_normal(20)
        t = np.arange(20.0)
        base = rmse(ErrorSeries(t, e, e, e), "m")
        perm = rng.permutation(20)
        shuffled = rmse(ErrorSeries(t, e[perm], e[perm], e[perm]), "m")
        assert shuffled.rmse_x == pytest.approx(base.rmse_x, rel=1e-12)

    def test_linear_scaling(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal(20)
        t = np.arange(20.0)
        base = rmse(ErrorSeries(t, e, e, e), "m")
        scaled = rmse(ErrorSeries(t, -2.5 * e, -2.5 * e, -2.5 * e), "m")
        assert scaled.rmse_x == pytest.approx(2.5 * base.rmse_x, rel=1e-12)

    def test_empty_series_rejected(self):
        series = ErrorSeries(np.array([]), np.array([]), np.array([]), np.array([]))
        with pytest.raises(EmptySeries):
            rmse(series, "m")

    def test_series_validation(self):
        with pytest.raises(ValueError):
            ErrorSeries(np.arange(3.0), np.zeros(2), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            ErrorSeries(np.array([1.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2))


class TestExport:
    def test_empty_report_writes_header_only(self, tmp_path):
        path = tmp_path / "rmse.csv"
        export_rmse_csv([], path)
        assert path.read_text() == "method,rmse_x,rmse_y,rmse_z\n"

    def test_errors_csv_round_trips_exactly(self, tmp_path):
        series = ErrorSeries(
            np.array([0.0, 1.0 / 3.0]),
            np.array([1.23456789012345678, -2.0]),
            np.array([0.1, 0.2]),
            np.array([-0.3, 1e-17]),
        )
        path = tmp_path / "errors.csv"
        export_errors_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,ex,ey,ez"
        parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 0], series.t)
        np.testing.assert_array_equal(parsed[:, 1], series.ex)
        np.testing.assert_array_equal(parsed[:, 2], series.ey)
        np.testing.assert_array_equal(parsed[:, 3], series.ez)

    def test_seventeen_significant_digits(self, tmp_path):
        series = ErrorSeries(np.array([0.0]), np.array([1.0 / 3.0]),
                             np.array([0.0]), np.array([0.0]))
        path = tmp_path / "errors.csv"
        export_errors_csv(series, path)
        row = path.read_text().splitlines()[1]
        assert "0.33333333333333331" in row
        assert "," in row and ";" not in row

    def test_track_csv_empty_gnss_cells(self, tmp_path):
        t = np.array([0.0, 1.0])
        est = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        truth = est.copy()
        gnss = np.array([[np.nan, np.nan, np.nan], [7.0, 8.0, 9.0]])
        path = tmp_path / "track.csv"
        export_track_csv(t, est, truth, gnss, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,est_e,est_n,est_u,truth_e,truth_n,truth_u,gnss_e,gnss_n,gnss_u"
        assert lines[1].endswith(",,,")
        assert lines[2].endswith("7,8,9")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "payload")
        assert path.read_text() == "payload"
        assert list(tmp_path.iterdir()) == [path]

    def test_write_failure_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "missing" / "out.txt", "payload")


@pytest.fixture(scope="module")
def circular_run():
    """A 20 s circular run: the result, its error series and track cells."""
    profile = TrajectoryProfile("circular", duration=20.0)
    truth, ideal = generate_truth(profile)
    imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=1.0)
    result = run_fusion(imu, gnss, FusionConfig())
    truth_track = (truth.t, truth.position)
    err = align_and_diff(result.track, truth_track)
    t, est = result.track
    cells = np.full((len(t), 3), np.nan)
    fix_t, fix_enu = result.gnss_track
    cells[np.searchsorted(t, fix_t, side="right") - 1] = fix_enu
    return result, err, cells


class TestWriteTable:
    def test_estimates_byte_equal_to_per_cell_writer(self, tmp_path, circular_run):
        result = circular_run[0]
        assert np.isnan(result.nis).any() and not np.isnan(result.nis).all()
        flagged = dataclasses.replace(result, diverged=np.arange(len(result.t)) % 7 == 0)
        for run in (result, flagged):
            path = tmp_path / "estimate.csv"
            write_estimates_csv(run, path)
            assert path.read_text() == reference_estimates_text(run)

    def test_errors_and_track_byte_equal_to_per_cell_writers(self, tmp_path, circular_run):
        result, err, cells = circular_run
        export_errors_csv(err, tmp_path / "errors.csv")
        assert (tmp_path / "errors.csv").read_text() == reference_errors_text(err)
        t, est = result.track
        truth = est - np.column_stack([err.ex, err.ey, err.ez])
        export_track_csv(t, est, truth, cells, tmp_path / "track.csv")
        assert (tmp_path / "track.csv").read_text() == reference_track_text(t, est, truth, cells)

    def test_edge_values(self, tmp_path):
        rows = [
            (-0.0, 5e-324, 1e308),
            (3, -7, 2**53),
            (math.nan, 1.0 / 3.0, -1e-300),
            (math.inf, -math.inf, 0.1),
            (math.nan, math.nan, math.nan),
        ]
        path = tmp_path / "edge.csv"
        _write_table(path, "a,b,c", rows)
        expected = "a,b,c\n" + "".join(
            ",".join("" if math.isnan(v) else _fmt(v) for v in row) + "\n" for row in rows
        )
        assert path.read_text() == expected
        assert path.read_text().splitlines()[1] == "-0,4.9406564584124654e-324,1e+308"
        assert path.read_text().splitlines()[2] == "3,-7,9007199254740992"
        _write_table(path, "a,b", np.empty((0, 2)))
        assert path.read_text() == "a,b\n"

    def test_labelled_rows(self, tmp_path):
        reports = [
            RmseReport("GNSS", 13.1, 1.0 / 3.0, -0.0),
            RmseReport("GNSS-IMU", 1.5, 2.0, 1e-17),
        ]
        path = tmp_path / "rmse.csv"
        export_rmse_csv(reports, path)
        expected = "method,rmse_x,rmse_y,rmse_z\n" + "".join(
            f"{r.method},{_fmt(r.rmse_x)},{_fmt(r.rmse_y)},{_fmt(r.rmse_z)}\n" for r in reports
        )
        assert path.read_text() == expected


class TestReadTable:
    HEADER = "t,a,b"

    def read(self, tmp_path, body, **kwargs):
        path = tmp_path / "table.csv"
        path.write_text(self.HEADER + "\n" + body)
        return _read_table(path, self.HEADER, 3, **kwargs)

    def test_round_trip_of_write_table(self, tmp_path):
        rows = np.random.default_rng(3).standard_normal((50, 3)) * 1e3
        _write_table(tmp_path / "table.csv", self.HEADER, rows)
        assert np.array_equal(_read_table(tmp_path / "table.csv", self.HEADER, 3), rows)

    def test_blank_lines_skipped(self, tmp_path):
        table = self.read(tmp_path, "1,2,3\n\n4,5,6\n")
        assert table.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert self.read(tmp_path, "").shape == (0, 3)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("t,x,y\n1,2,3\n")
        with pytest.raises(NavFuseError, match="expected header"):
            _read_table(path, self.HEADER, 3)

    def test_bad_rows_name_path_and_line(self, tmp_path):
        cases = [
            ("1,2,3\n\n4,5\n", MalformedRecord, ":4: expected 3 cells, got 2"),
            ("1,2,3\n4,5,6,7\n", MalformedRecord, ":3: expected 3 cells, got 4"),
            ("1,2,3\n4,x,6\n", NavFuseError, ":3: non-numeric row"),
            ("1,nan,3\n", MalformedRecord, ":2: non-finite cell"),
            ("1,2,3\n4,5,-inf\n", MalformedRecord, ":3: non-finite cell"),
        ]
        for body, error, message in cases:
            with pytest.raises(error, match=message) as info:
                self.read(tmp_path, body)
            assert "table.csv" in str(info.value)

    def test_valid_rows(self, tmp_path):
        positive = lambda table: table[:, 1] > 0  # noqa: E731
        assert self.read(tmp_path, "1,2,3\n", valid=positive).shape == (1, 3)
        with pytest.raises(MalformedRecord, match=":3: value out of range"):
            self.read(tmp_path, "1,2,3\n4,-5,6\n", valid=positive)
