"""Position-error metrics, and the CSV table format of every stream and
artifact.

A table is a fixed header line and one line per row of numbers.  Tables
are streamed in both directions, so the memory they take beyond the
arrays they come from or go to does not grow with the row count.
:class:`TableWriter` is the one table writer: a with block that takes
the table as column blocks, one or many, and formats and writes a fixed
number of rows at a time into one temp file, which it renames over the
destination once every row is written (:func:`_write_table` is that
writer called once).  :func:`write_run` is the one writer of a filter
run's tables (``estimate.csv``, ``errors.csv``, ``track.csv`` and
``rmse.csv``), alike from the chunks that ``fuse`` passes as the filter
makes them and from one whole-run result.  ``fuse`` reads and checks the
truth before the first step, so a truth that cannot cover the run fails
before any output is written.  Each row goes through one ``%.17g``
format with a '.' decimal separator regardless of locale, so floats
round-trip exactly and runs diff cleanly; NaN cells are written empty.
:func:`_read_table` decodes and parses the file in blocks of whole lines
into a 2-D array, and rejects a bad row with the file and line.
"""

import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptySeries, MalformedRecord, NavFuseError, TimeSpanMismatch


@dataclass(frozen=True)
class RmseReport:
    """Per-axis RMSE of one method."""

    method: str
    rmse_x: float
    rmse_y: float
    rmse_z: float


def check_span(et, tt):
    """Raise :class:`TimeSpanMismatch` when a time of ``et`` falls outside
    the span of the truth times ``tt``, and :class:`EmptySeries` when
    either is empty."""
    if not len(et) or not len(tt):
        raise EmptySeries("estimates and truth must be non-empty")
    if et.min() < tt[0] - 1e-9 or et.max() > tt[-1] + 1e-9:
        raise TimeSpanMismatch(
            f"estimates span [{et.min()}, {et.max()}] but truth spans [{tt[0]}, {tt[-1]}]"
        )


def interpolate_track(t, truth):
    """The positions (n, 3) of the track ``truth``, a pair (t, positions),
    at the times ``t`` (n,), linear per axis.  Raises
    :class:`TimeSpanMismatch` when a time falls outside the track's span."""
    tt, tru = truth
    check_span(t, tt)
    return np.column_stack([np.interp(t, tt, tru[:, i]) for i in range(3)])


def align_and_diff(estimates, truth):
    """Interpolate truth to the estimate timestamps and subtract.

    Both arguments are tracks, pairs (t (n,), positions (n, 3)), and so is
    the result, the error track (t, estimate - truth); see
    :func:`interpolate_track`.
    """
    et, est = estimates
    return et, est - interpolate_track(et, truth)


def rmse(errors, method):
    """Root-mean-square error per axis of an error track."""
    t, e = errors
    if len(t) == 0:
        raise EmptySeries("cannot compute RMSE of an empty series")
    return RmseReport(method, *(float(np.sqrt(np.mean(e[:, i] ** 2))) for i in range(3)))


def _fmt(value):
    return format(float(value), ".17g")


# Rows formatted per write.  On the 90 s drive a formatted estimate.csv
# chunk of 1024 rows still set fuse's peak RSS (2.5 MB above the filter's
# own peak, 14 MB at 4096 rows); at 256 rows it no longer does.
_CHUNK_ROWS = 256
# Bytes per read; a block is then cut after its last line feed.
_READ_BYTES = 1 << 17


class _AtomicFile:
    """A text file at ``path``, written in a with block through
    :meth:`write` to a temp file in the same directory, which is renamed
    over ``path`` when the block ends.  The file gets the mode a plain
    ``open`` gives a new file, 0o666 less the umask.

    Whatever raises in the block, a write included, removes the temp file
    and leaves ``path`` as it was.  An :class:`OSError` of the file's own
    (creating, writing, closing or renaming it) is raised naming ``path``;
    anything else raises as it is.
    """

    def __init__(self, path):
        self.path = Path(path)

    def _named(self, exc):
        return OSError(f"cannot write {self.path}: {exc}")

    def __enter__(self):
        self._tmp = self.path.with_name(f"{self.path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:
            raise self._named(exc) from exc
        self._handle = os.fdopen(fd, "w", newline="")
        return self

    def write(self, text):
        try:
            self._handle.write(text)
        except OSError as exc:
            raise self._named(exc) from exc

    def __exit__(self, exc_type, exc, tb):
        try:
            self._handle.close()
            if exc_type is None:
                os.replace(self._tmp, self.path)
                return
        except OSError as error:
            os.unlink(self._tmp)
            if exc_type is None:
                raise self._named(error) from error
            return
        os.unlink(self._tmp)


def atomic_write_text(path, text):
    """Write the string ``text`` to ``path`` via a temp file in the same
    directory."""
    with _AtomicFile(path) as out:
        out.write(text)


def _decode(path, data, offset=0):
    """``data``, bytes that start at byte ``offset`` of the file at
    ``path``, as UTF-8 text; bytes that do not decode raise
    :class:`MalformedRecord` naming the path and the file offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(
            f"{path}: not UTF-8 text ({exc.reason} at byte {offset + exc.start})"
        ) from None


def _read_text(path):
    """The UTF-8 text of the file at ``path``; bytes that do not decode
    raise :class:`MalformedRecord` naming the path."""
    return _decode(path, Path(path).read_bytes())


def _text_blocks(path):
    """The UTF-8 text of the file at ``path`` in blocks of whole lines.

    Each block but the last ends with a line feed.  No line break spans
    two blocks (the only two-character one, CRLF, ends in the line feed)
    and no UTF-8 sequence does, so the blocks' ``splitlines()`` joined are
    the whole text's, and a decode error names its offset in the file.
    An :class:`OSError` is raised as :class:`NavFuseError` naming the path.
    """
    offset = 0
    pending = bytearray()
    try:
        with open(path, "rb") as handle:
            while data := handle.read(_READ_BYTES):
                cut = data.rfind(b"\n") + 1
                if not cut:
                    pending += data
                    continue
                pending += data[:cut]
                yield _decode(path, pending, offset)
                offset += len(pending)
                pending = bytearray(data[cut:])
    except OSError as exc:
        raise NavFuseError(f"cannot read {path}: {exc}") from exc
    if pending:
        yield _decode(path, pending, offset)


def _read_table(path, header, ncols, valid=None):
    """Read a table written by :func:`_write_table` as an (n, ncols) array.

    Blank lines are skipped.  A wrong header or a non-numeric row raises
    :class:`NavFuseError`; bytes that are not text, a row without
    ``ncols`` cells, a non-finite cell, or a row that ``valid`` (rows ->
    bool per row, called on blocks of rows) rejects raises
    :class:`MalformedRecord`.  Each message names ``path``, and each row
    error ``path:line``.

    The file is parsed in blocks of whole lines, and a file with several
    faults fails as if it had been decoded whole first: on undecodable
    bytes, else on a wrong header, else on the first malformed or
    non-numeric row, else on the first non-finite row, else on the first
    row ``valid`` rejects.
    """
    tables = []
    header_error = row_error = finite_error = range_error = None
    end = 0  # lines read so far
    for text in _text_blocks(path):
        lines = text.splitlines()
        start, end = end, end + len(lines)
        if start == 0 and lines[0] != header:
            header_error = NavFuseError(f"{path}: expected header {header!r}")
        if header_error or row_error:
            continue
        rows = []
        numbers = []
        first = 1 if start == 0 else 0
        for k, line in enumerate(lines[first:], start=start + first + 1):
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != ncols:
                row_error = MalformedRecord(f"{path}:{k}: expected {ncols} cells, got {len(cells)}")
                break
            try:
                rows.extend(map(float, cells))
            except ValueError:
                row_error = NavFuseError(f"{path}:{k}: non-numeric row {line!r}")
                break
            numbers.append(k)
        if row_error or finite_error:
            continue
        table = np.array(rows, dtype=float).reshape(-1, ncols)
        tables.append(table)
        finite = np.isfinite(table).all(axis=1)
        if not finite.all():
            k = numbers[int(np.argmin(finite))]
            finite_error = MalformedRecord(
                f"{path}:{k}: non-finite cell in {lines[k - start - 1]!r}"
            )
        elif valid is not None and range_error is None:
            ok = valid(table)
            if not ok.all():
                k = numbers[int(np.argmin(ok))]
                range_error = MalformedRecord(
                    f"{path}:{k}: value out of range in {lines[k - start - 1]!r}"
                )
    if end == 0:
        header_error = NavFuseError(f"{path}: expected header {header!r}")
    for error in (header_error, row_error, finite_error, range_error):
        if error is not None:
            raise error
    return np.concatenate(tables) if tables else np.empty((0, ncols))


class TableWriter(_AtomicFile):
    """The table with ``header`` at ``path``, written in a with block as
    :class:`_AtomicFile` writes a file: the header line, then the rows of
    each :meth:`rows` call in order."""

    def __init__(self, path, header):
        super().__init__(path)
        self.header = header

    def __enter__(self):
        super().__enter__()
        try:
            self.write(self.header + "\n")
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def rows(self, columns):
        """Write one line per row of the table block whose columns are
        ``columns``, a sequence of 1-D (one column) or 2-D blocks of the
        same row count, a number per header column.

        Rows are formatted :data:`_CHUNK_ROWS` at a time, each through a
        single ``%.17g`` format string, which gives the bytes of
        :func:`_fmt` per cell; NaN cells are written empty.
        """
        blocks = [np.asarray(block) for block in columns]
        row = ",".join(["%.17g"] * (self.header.count(",") + 1)) + "\n"
        for start in range(0, len(blocks[0]), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            chunk = np.column_stack([block[start:stop] for block in blocks])
            # Only a NaN formats to a token containing "nan", so blanking
            # those tokens empties exactly the NaN cells.
            self.write(((row * len(chunk)) % tuple(chunk.ravel().tolist())).replace("nan", ""))


def _write_table(path, header, columns):
    """Write the table with ``header`` whose rows are those of
    ``columns`` (see :meth:`TableWriter.rows`) in one pass."""
    with TableWriter(path, header) as table:
        table.rows(columns)


_ESTIMATE_HEADER = (
    "t,e,n,u,ve,vn,vu,qw,qx,qy,qz,"
    "var_pe,var_pn,var_pu,var_ve,var_vn,var_vu,var_re,var_rn,var_ru,"
    "var_bgx,var_bgy,var_bgz,var_bax,var_bay,var_baz,nis,diverged"
)
ERRORS_HEADER = "t,ex,ey,ez"
TRACK_HEADER = "t,est_e,est_n,est_u,truth_e,truth_n,truth_u,gnss_e,gnss_n,gnss_u"


def write_run(results, t, truth, out):
    """Write the tables of a filter run into the directory ``out``:
    ``estimate.csv``, and with a ``truth`` track (or None) also
    ``errors.csv``, ``track.csv`` and then ``rmse.csv``.

    ``results`` are the run's :class:`FusionResult` parts in step order,
    and ``t`` its IMU times.  An ``estimate.csv`` row holds the step's
    position, velocity and attitude (not the biases), variances, NIS and
    ``diverged`` as 1 or 0; a ``track.csv`` row its estimated position,
    the truth interpolated to its time and its fix.  A step's NIS and fix
    are those of its last ``updates`` row, accepted or not, and empty
    cells where it has none.  Beyond the parts it holds only the fused
    error column, so ``rmse.csv`` takes its means over whole columns.  It
    is written before the other tables are renamed into place, so
    whatever raises up to those renames leaves none of the four.
    """
    out = Path(out)
    with ExitStack() as files:
        estimates = files.enter_context(TableWriter(out / "estimate.csv", _ESTIMATE_HEADER))
        if truth is not None:
            errors = files.enter_context(TableWriter(out / "errors.csv", ERRORS_HEADER))
            track = files.enter_context(TableWriter(out / "track.csv", TRACK_HEADER))
            fused_err = np.empty((len(t), 3))
        start = 0
        for result in results:
            stop = start + len(result.t)
            # The rows' steps do not decrease, so a step's last row is one
            # that the next row's step differs from, or the last row.
            steps = result.updates["imu_index"]
            last = np.ones(len(steps), dtype=bool)
            last[:-1] = steps[1:] != steps[:-1]
            rows = steps[last] - start
            nis = np.full(stop - start, np.nan)
            nis[rows] = result.updates["nis"][last]
            estimates.rows([result.t, result.state[:, 0:10], result.cov_diag, nis, result.diverged])
            if truth is not None:
                step_t, est = result.track
                truth_at = interpolate_track(step_t, truth)
                err = est - truth_at
                errors.rows([step_t, err])
                fused_err[start:stop] = err
                fix = np.full((stop - start, 3), np.nan)
                fix[rows] = result.updates["fix"][last]
                track.rows([step_t, est, truth_at, fix])
            start = stop
        if truth is None:
            return
        reports = []
        if len(result.gnss_track[0]):
            reports.append(rmse(align_and_diff(result.gnss_track, truth), "GNSS"))
        reports.append(rmse((t, fused_err), "GNSS-IMU"))
        export_rmse_csv(reports, out / "rmse.csv")


def export_rmse_csv(reports, path):
    """Write RMSE rows as ``method,rmse_x,rmse_y,rmse_z``; a NaN RMSE is
    an empty cell."""
    lines = ["method,rmse_x,rmse_y,rmse_z"]
    for r in reports:
        cells = (_fmt(v).replace("nan", "") for v in (r.rmse_x, r.rmse_y, r.rmse_z))
        lines.append(",".join([r.method, *cells]))
    atomic_write_text(path, "\n".join(lines) + "\n")
