import dataclasses
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from oracles import (
    reference_errors_text,
    reference_estimates_text,
    reference_read_table,
    reference_rmse_text,
    reference_step_updates,
    reference_track_text,
    reference_truth_at,
)

from navfuse import evaluate
from navfuse.errors import EmptySeries, MalformedRecord, NavFuseError, TimeSpanMismatch
from navfuse.evaluate import (
    _CHUNK_ROWS,
    RmseReport,
    _fmt,
    _read_table,
    _write_table,
    align_and_diff,
    atomic_write_text,
    export_rmse_csv,
    rmse,
    write_run,
)
from navfuse.fusion import UPDATE_DTYPE, FusionConfig, FusionResult, run_fusion
from navfuse.simulate import SensorCorruption, TrajectoryProfile, corrupt, generate_truth


def track(*poses):
    """A track (t, positions) from (t, e, n, u) tuples."""
    rows = np.array(poses, dtype=float).reshape(-1, 4)
    return rows[:, 0], rows[:, 1:4]


def errors(t, ex, ey, ez):
    """An error track (t, errors (n, 3)) from its columns."""
    return t, np.column_stack([ex, ey, ez])


def updates_at(t, steps, fix, nis):
    """Update rows at the ``steps`` of the times ``t``, with the fixes
    ``fix`` (m, 3) and the NIS ``nis`` (m,); the other fields are zero."""
    updates = np.zeros(len(steps), UPDATE_DTYPE)
    updates["t"], updates["imu_index"] = t[steps], steps
    updates["fix"], updates["nis"] = fix, nis
    return updates


def result_of(t, est, updates=None, diverged=None, seed=0):
    """A :class:`FusionResult` with the times ``t``, the estimated
    positions ``est`` (n, 3), random other states and variances, and
    every fix of ``updates`` as its GNSS track; ``updates`` and
    ``diverged`` default to no update and no divergence."""
    n = len(t)
    rng = np.random.default_rng(seed)
    updates = np.zeros(0, UPDATE_DTYPE) if updates is None else updates
    return FusionResult(
        t, np.column_stack([est, rng.standard_normal((n, 13))]), rng.random((n, 15)) * 1e-3,
        np.zeros(n, dtype=bool) if diverged is None else diverged,
        None, updates, (updates["t"], updates["fix"]),
    )


def zero_truth(t):
    """A truth track at the origin, so a row's error is its estimate."""
    return t, np.zeros((len(t), 3))


class TestAlignAndDiff:
    def test_identical_series_is_zero(self):
        poses = track(*[(t, t * 2.0, -t, 1.0) for t in (0.0, 0.5, 1.0)])
        t, err = align_and_diff(poses, poses)
        assert np.array_equal(t, poses[0])
        assert err.shape == (3, 3) and not err.any()

    def test_constant_offset(self):
        truth = track(*[(t, 0.0, 0.0, 0.0) for t in (0.0, 1.0, 2.0)])
        est = track(*[(t, 3.0, 0.0, 0.0) for t in (0.0, 1.0, 2.0)])
        _, err = align_and_diff(est, truth)
        np.testing.assert_array_equal(err[:, 0], 3.0)

    def test_linear_interpolation_midpoint(self):
        truth = track((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 0.0, 0.0))
        est = track((0.5, 1.0, 0.0, 0.0))
        _, err = align_and_diff(est, truth)
        assert err[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_span_mismatch(self):
        truth = track((0.0, 0, 0, 0), (1.0, 0, 0, 0))
        with pytest.raises(TimeSpanMismatch):
            align_and_diff(track((2.0, 0, 0, 0)), truth)

    def test_empty_inputs(self):
        with pytest.raises(EmptySeries):
            align_and_diff(track(), track((0.0, 0, 0, 0)))


class TestRmse:
    def test_zero_series(self):
        report = rmse(errors(np.arange(3.0), np.zeros(3), np.zeros(3), np.zeros(3)), "m")
        assert (report.rmse_x, report.rmse_y, report.rmse_z) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        series = errors(np.arange(5.0), np.full(5, 3.0), np.zeros(5), np.zeros(5))
        assert rmse(series, "m").rmse_x == pytest.approx(3.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        e = rng.standard_normal(20)
        t = np.arange(20.0)
        base = rmse(errors(t, e, e, e), "m")
        perm = rng.permutation(20)
        shuffled = rmse(errors(t, e[perm], e[perm], e[perm]), "m")
        assert shuffled.rmse_x == pytest.approx(base.rmse_x, rel=1e-12)

    def test_linear_scaling(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal(20)
        t = np.arange(20.0)
        base = rmse(errors(t, e, e, e), "m")
        scaled = rmse(errors(t, -2.5 * e, -2.5 * e, -2.5 * e), "m")
        assert scaled.rmse_x == pytest.approx(2.5 * base.rmse_x, rel=1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(EmptySeries):
            rmse((np.array([]), np.empty((0, 3))), "m")


class TestExport:
    def test_empty_report_writes_header_only(self, tmp_path):
        path = tmp_path / "rmse.csv"
        export_rmse_csv([], path)
        assert path.read_text() == "method,rmse_x,rmse_y,rmse_z\n"

    def test_errors_csv_round_trips_exactly(self, tmp_path):
        series = errors(
            np.array([0.0, 1.0 / 3.0]),
            np.array([1.23456789012345678, -2.0]),
            np.array([0.1, 0.2]),
            np.array([-0.3, 1e-17]),
        )
        write_run([result_of(*series)], series[0], zero_truth(series[0]), tmp_path)
        lines = (tmp_path / "errors.csv").read_text().splitlines()
        assert lines[0] == "t,ex,ey,ez"
        parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 0], series[0])
        np.testing.assert_array_equal(parsed[:, 1:], series[1])

    def test_seventeen_significant_digits(self, tmp_path):
        series = errors(np.array([0.0]), np.array([1.0 / 3.0]), np.array([0.0]), np.array([0.0]))
        write_run([result_of(*series)], series[0], zero_truth(series[0]), tmp_path)
        row = (tmp_path / "errors.csv").read_text().splitlines()[1]
        assert "0.33333333333333331" in row
        assert "," in row and ";" not in row

    def test_track_csv_empty_gnss_cells(self, tmp_path):
        t = np.array([0.0, 1.0])
        est = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        updates = updates_at(t, [1], [[7.0, 8.0, 9.0]], [0.5])
        write_run([result_of(t, est, updates)], t, (t, est), tmp_path)
        lines = (tmp_path / "track.csv").read_text().splitlines()
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

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
    def test_new_files_take_the_mode_of_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "manifest", "payload")
            _write_table(tmp_path / "table.csv", "t", [np.zeros(3)])
        finally:
            os.umask(previous)
        for path in tmp_path.iterdir():
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


@pytest.fixture(scope="module")
def circular_run():
    """A 20 s circular run: the result and its truth track."""
    profile = TrajectoryProfile("circular", duration=20.0)
    truth, ideal = generate_truth(profile)
    imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=1.0)
    return run_fusion(imu, gnss, FusionConfig()), (truth.t, truth.position)


def chunked(result, size):
    """``result`` cut into parts of ``size`` steps, each with the updates
    of its steps, as ``fuse_chunks`` yields them (an empty result stays
    one part)."""
    columns = ("t", "state", "cov_diag", "diverged")
    steps = result.updates["imu_index"]
    return [
        dataclasses.replace(
            result, **{c: getattr(result, c)[k : k + size] for c in columns},
            updates=result.updates[(k <= steps) & (steps < k + size)],
        )
        for k in range(0, max(len(result.t), 1), size)
    ]


def has_steps_with_and_without_updates(result):
    steps = np.unique(result.updates["imu_index"])
    return 0 < len(steps) < len(result.t)


class TestWriteTable:
    def test_estimates_byte_equal_to_per_cell_writer(self, tmp_path, circular_run):
        result = circular_run[0]
        assert has_steps_with_and_without_updates(result)
        flagged = dataclasses.replace(result, diverged=np.arange(len(result.t)) % 7 == 0)
        for run in (result, flagged):
            write_run([run], run.t, None, tmp_path)
            assert (tmp_path / "estimate.csv").read_text() == reference_estimates_text(run)

    def test_errors_and_track_byte_equal_to_per_cell_writers(self, tmp_path, circular_run):
        result, truth_track = circular_run
        assert has_steps_with_and_without_updates(result)
        write_run([result], result.t, truth_track, tmp_path)
        err = align_and_diff(result.track, truth_track)
        assert (tmp_path / "errors.csv").read_text() == reference_errors_text(err)
        t, est = result.track
        expected = reference_track_text(
            t, est, reference_truth_at(t, truth_track), result.updates
        )
        assert (tmp_path / "track.csv").read_text() == expected
        gnss_err = align_and_diff(result.gnss_track, truth_track)
        reports = [rmse(gnss_err, "GNSS"), rmse(err, "GNSS-IMU")]
        assert (tmp_path / "rmse.csv").read_text() == reference_rmse_text(reports)

    def test_edge_values(self, tmp_path):
        rows = [
            (-0.0, 5e-324, 1e308),
            (3, -7, 2**53),
            (math.nan, 1.0 / 3.0, -1e-300),
            (math.inf, -math.inf, 0.1),
            (math.nan, math.nan, math.nan),
        ]
        path = tmp_path / "edge.csv"
        _write_table(path, "a,b,c", [np.array(rows)])
        expected = "a,b,c\n" + "".join(
            ",".join("" if math.isnan(v) else _fmt(v) for v in row) + "\n" for row in rows
        )
        assert path.read_text() == expected
        assert path.read_text().splitlines()[1] == "-0,4.9406564584124654e-324,1e+308"
        assert path.read_text().splitlines()[2] == "3,-7,9007199254740992"
        _write_table(path, "a,b", [np.empty((0, 2))])
        assert path.read_text() == "a,b\n"

    def test_labelled_rows(self, tmp_path):
        reports = [
            RmseReport("GNSS", 13.1, 1.0 / 3.0, -0.0),
            RmseReport("GNSS-IMU", 1.5, 2.0, 1e-17),
        ]
        path = tmp_path / "rmse.csv"
        export_rmse_csv(reports, path)
        assert path.read_text() == reference_rmse_text(reports)

    @pytest.mark.parametrize(
        "n", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 7]
    )
    def test_chunk_edges_byte_equal_to_per_cell_writers(self, tmp_path, n):
        rng = np.random.default_rng(n)
        t = np.arange(n) / 100.0
        # 0 to 3 update rows per step, each with its own values: 2 or 3 on
        # the steps either side of every chunk edge and on the last step,
        # so a later row must win there across the edge; none on the
        # steps next to those, so empty cells border the edges too.
        edges = np.arange(n) % _CHUNK_ROWS
        rows = rng.integers(0, 4, n)
        rows[(edges == 1) | (edges == _CHUNK_ROWS - 2)] = 0
        edge = (edges == 0) | (edges == _CHUNK_ROWS - 1)
        rows[edge] = rng.integers(2, 4, edge.sum())
        rows[n - 1 :] = 3
        steps = np.repeat(np.arange(n), rows)
        updates = updates_at(
            t, steps, rng.standard_normal((len(steps), 3)), rng.random(len(steps))
        )
        est, truth = rng.standard_normal((2, n, 3)) * 1e3
        result = result_of(t, est, updates, rng.random(n) < 0.3, seed=n)
        truth_track = (t, truth)
        # The whole run, and the run in chunks of the formatted rows.
        for k, results in enumerate([[result], chunked(result, _CHUNK_ROWS)]):
            out = tmp_path / f"run{k}"
            out.mkdir()
            write_run(results, t, None if n == 0 else truth_track, out)
            assert (out / "estimate.csv").read_text() == reference_estimates_text(result)
            if n == 0:
                # A run has a step; without one there is no error to write.
                with pytest.raises(EmptySeries):
                    write_run(results, t, truth_track, out)
                assert sorted(p.name for p in out.iterdir()) == ["estimate.csv"]
                continue
            err = align_and_diff(result.track, truth_track)
            assert (out / "errors.csv").read_text() == reference_errors_text(err)
            # The truth track's times are the steps', so its cells are the truth.
            expected = reference_track_text(t, est, truth, updates)
            assert (out / "track.csv").read_text() == expected

        gnss = reference_step_updates(updates, n)[1]
        reports = [RmseReport(f"run-{k}", *row) for k, row in enumerate(gnss)]
        export_rmse_csv(reports, tmp_path / "rmse.csv")
        assert (tmp_path / "rmse.csv").read_text() == reference_rmse_text(reports)

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        peaks = []
        for n in (10_000, 100_000):
            columns = [np.arange(n) / 100.0, np.random.default_rng(n).standard_normal(n)]
            tracemalloc.start()
            try:
                _write_table(tmp_path / "table.csv", "t,x", columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # A whole-table writer peaks at over 150 B per row of this table.
        assert peaks[1] < 1.1 * peaks[0] < 1_000_000

    def test_failure_mid_stream_leaves_destination_untouched(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("previous\n")
        # The second chunk fails to stack: the short column ends in it.
        columns = [np.zeros(3 * _CHUNK_ROWS), np.zeros(_CHUNK_ROWS + 5)]
        with pytest.raises(ValueError):
            _write_table(path, "a,b", columns)
        assert path.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [path]
        with pytest.raises(TypeError):
            atomic_write_text(path, None)
        assert path.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [path]


class TestReadTable:
    HEADER = "t,a,b"

    def read(self, tmp_path, body, **kwargs):
        path = tmp_path / "table.csv"
        path.write_text(self.HEADER + "\n" + body)
        return _read_table(path, self.HEADER, 3, **kwargs)

    def test_round_trip_of_write_table(self, tmp_path):
        rows = np.random.default_rng(3).standard_normal((50, 3)) * 1e3
        _write_table(tmp_path / "table.csv", self.HEADER, [rows])
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
        assert self.read(tmp_path, "1,2,3\n", valid=positive).shape == (1, 3)
        with pytest.raises(MalformedRecord, match=":3: value out of range"):
            self.read(tmp_path, "1,2,3\n4,-5,6\n", valid=positive)

    @pytest.mark.parametrize("block", [1, 2, 7, 64, evaluate._READ_BYTES])
    def test_blocks_read_as_the_whole_file_reader(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(evaluate, "_READ_BYTES", block)
        path = tmp_path / "table.csv"
        for name, data in WHOLE_FILE_CASES.items():
            path.write_bytes(data)
            expected = outcome(reference_read_table, path, self.HEADER, 3, positive)
            assert outcome(_read_table, path, self.HEADER, 3, positive) == expected, name

    def test_errors_past_the_first_block_name_file_line_and_offset(self, tmp_path):
        path = tmp_path / "table.csv"
        head = b"t,a,b\n" + b"1,2,3\n" * (3 * evaluate._READ_BYTES // 6)
        last = 2 + 3 * evaluate._READ_BYTES // 6
        cases = [
            (b"4,5\n", MalformedRecord, f"{path}:{last}: expected 3 cells, got 2"),
            (b"4,x,6\n", NavFuseError, f"{path}:{last}: non-numeric row '4,x,6'"),
            (b"4,inf,6\n", MalformedRecord, f"{path}:{last}: non-finite cell in '4,inf,6'"),
            (b"4,-5,6\n", MalformedRecord, f"{path}:{last}: value out of range in '4,-5,6'"),
            (b"4,\xff,6\n", MalformedRecord,
             f"{path}: not UTF-8 text (invalid start byte at byte {len(head) + 2})"),
        ]
        for tail, error, message in cases:
            path.write_bytes(head + tail)
            with pytest.raises(error) as info:
                _read_table(path, self.HEADER, 3, valid=positive)
            assert str(info.value) == message

    def test_line_breaks_other_than_line_feed(self, tmp_path):
        path = tmp_path / "table.csv"
        for sep in ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]:
            path.write_bytes(sep.join([self.HEADER, "1,2,3", "", "4,5,6", ""]).encode())
            assert _read_table(path, self.HEADER, 3).tolist() == [[1, 2, 3], [4, 5, 6]], sep
        path.write_bytes(b"t,a,b\r\n1,2,3\r\n4,5\r\n")
        with pytest.raises(MalformedRecord, match=":3: expected 3 cells, got 2"):
            _read_table(path, self.HEADER, 3)

    def test_memory_beyond_the_table_does_not_grow_with_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        peaks, sizes = [], []
        for n in (10_000, 100_000):
            _write_table(path, "t,x", [np.random.default_rng(n).standard_normal((n, 2))])
            tracemalloc.start()
            try:
                sizes.append(_read_table(path, "t,x", 2).nbytes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The parsed blocks and their concatenation are two copies of the
        # table; the text, its lines and the parsed floats are one block's.
        # A whole-file reader peaks at over 250 B per row of this table.
        assert peaks[1] - peaks[0] < 2.2 * (sizes[1] - sizes[0])


def positive(table):
    return table[:, 1] > 0


def outcome(read, *args):
    """The rows ``read`` returns, or the class and message it raises."""
    try:
        return read(*args).tolist()
    except NavFuseError as exc:
        return type(exc), str(exc)


_ROWS = b"".join(b"%d,%d,%d\n" % (k, k + 1, k + 2) for k in range(1, 30))

# File bytes (header "t,a,b") for the block-by-block reader; several
# hold more than one fault, to pin which one fails the file.
WHOLE_FILE_CASES = {
    "plain": b"t,a,b\n" + _ROWS,
    "no final line feed": b"t,a,b\n" + _ROWS + b"4,5,6",
    "crlf": b"t,a,b\r\n1,2,3\r\n\r\n4,5,6\r\n",
    "cr": b"t,a,b\r1,2,3\r4,5,6\r",
    "mixed breaks": "t,a,b\x0b1,2,3\x0c4,5,6\x1c7,8,9\x1d\x1e1,1,1\x85 2,2,2\u20283,3,3\u2029"
    "4,4,4\n\r5,5,5".encode(),
    "blank and padded": b"t,a,b\n\n  \n1, 2 ,3\n\t\n" + _ROWS,
    "empty": b"",
    "header only": b"t,a,b\n",
    "bom": b"\xef\xbb\xbft,a,b\n1,2,3\n",
    "bad header": b"t,x,y\n" + _ROWS,
    "bad header, bad byte later": b"t,x,y\n" + _ROWS + b"\xff\n",
    "short row": b"t,a,b\n" + _ROWS + b"4,5\n" + _ROWS,
    "non-numeric": b"t,a,b\n" + _ROWS + b"4,x,6\n",
    "non-ascii cell": "t,a,b\n1,2,3\n4,5,6 \u00e9\u20ac\n".encode(),
    "nan, then short row": b"t,a,b\n1,nan,3\n" + _ROWS + b"4,5\n",
    "out of range, then inf": b"t,a,b\n1,-2,3\n" + _ROWS + b"1,inf,3\n",
    "out of range, then non-numeric": b"t,a,b\n1,-2,3\n" + _ROWS + b"1,y,3\n",
    "two out of range": b"t,a,b\n" + _ROWS + b"1,-2,3\n" + _ROWS + b"1,-4,3\n",
    "bad byte late": b"t,a,b\n" + _ROWS + b"4,\xc3(,6\n",
    "short row, then bad byte": b"t,a,b\n4,5\n" + _ROWS + b"\x80\n",
    "truncated sequence at end": b"t,a,b\n" + _ROWS + b"\xe2\x82",
    "truncated sequence before line feed": b"t,a,b\n" + _ROWS + b"\xe2\x82\n1,2,3\n",
}
