"""Position-error metrics, and the CSV table format of every stream and
artifact.

A table is a fixed header line and one line per row of numbers.  Tables
are streamed in both directions, so the memory they take beyond the
arrays they come from or go to does not grow with the row count.
:func:`_write_table` takes the table as column blocks and formats and
writes a fixed number of rows at a time into one temp file, which it
renames over the destination once every row is written.  Each row goes
through one ``%.17g`` format with a '.' decimal separator regardless of
locale, so floats round-trip exactly and runs diff cleanly; NaN cells
are written empty.  :func:`_read_table` decodes and parses the file in
blocks of whole lines into a 2-D array, and rejects a bad row with the
file and line.
"""

import os
import tempfile
from dataclasses import dataclass
from itertools import chain
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


def align_and_diff(estimates, truth):
    """Interpolate truth to the estimate timestamps and subtract.

    Both arguments are tracks, pairs (t (n,), positions (n, 3)), and so is
    the result, the error track (t, estimate - truth); truth interpolation
    is linear per axis.  Raises :class:`TimeSpanMismatch`
    when an estimate timestamp falls outside the truth span.
    """
    et, est = estimates
    tt, tru = truth
    if not len(et) or not len(tt):
        raise EmptySeries("estimates and truth must be non-empty")
    if et.min() < tt[0] - 1e-9 or et.max() > tt[-1] + 1e-9:
        raise TimeSpanMismatch(
            f"estimates span [{et.min()}, {et.max()}] but truth spans [{tt[0]}, {tt[-1]}]"
        )
    diffs = [est[:, i] - np.interp(et, tt, tru[:, i]) for i in range(3)]
    return et, np.column_stack(diffs)


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


def _atomic_write(path, chunks):
    """Write the strings of ``chunks`` to ``path`` via a temp file in the
    same directory, renamed over ``path`` once all are written.

    Whatever raises on the way, producing a chunk included, removes the
    temp file and leaves ``path`` as it was; an :class:`OSError` is
    re-raised naming ``path``, anything else as it is.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc}") from exc
        raise


def atomic_write_text(path, text):
    """Write the string ``text`` to ``path`` via a temp file in the same
    directory."""
    _atomic_write(path, (text,))


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


def _table_chunks(columns, ncols, labels):
    """The rows of ``columns`` as text, :data:`_CHUNK_ROWS` lines at a time."""
    blocks = [np.asarray(block) for block in columns]
    row = ",".join(["%.17g"] * ncols) + "\n"
    for start in range(0, len(blocks[0]), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        chunk = np.column_stack([block[start:stop] for block in blocks])
        # Only a NaN formats to a token containing "nan", so blanking those
        # tokens empties exactly the NaN cells.
        text = ((row * len(chunk)) % tuple(chunk.ravel().tolist())).replace("nan", "")
        if labels is not None:
            text = "".join(
                f"{label},{line}\n" for label, line in zip(labels[start:stop], text.splitlines())
            )
        yield text


def _write_table(path, header, columns, labels=None):
    """Write ``header`` and one line per row of the table whose columns
    are ``columns``, a sequence of 1-D (one column) or 2-D blocks of the
    same row count, a number per header column (after the label column,
    when ``labels`` are given).

    Rows are formatted :data:`_CHUNK_ROWS` at a time, each through a
    single ``%.17g`` format string, which gives the bytes of :func:`_fmt`
    per cell; NaN cells are written empty.  ``labels``, when given, lead
    the rows as a first text cell.
    """
    ncols = header.count(",") + 1 - (labels is not None)
    _atomic_write(path, chain([header + "\n"], _table_chunks(columns, ncols, labels)))


def export_errors_csv(errors, path):
    """Write an error track as ``t,ex,ey,ez`` rows."""
    _write_table(path, "t,ex,ey,ez", errors)


def export_rmse_csv(reports, path):
    """Write RMSE rows as ``method,rmse_x,rmse_y,rmse_z``."""
    _write_table(
        path,
        "method,rmse_x,rmse_y,rmse_z",
        [np.array([(r.rmse_x, r.rmse_y, r.rmse_z) for r in reports]).reshape(-1, 3)],
        labels=[r.method for r in reports],
    )


def export_track_csv(t, est, truth, gnss, path):
    """Write the XY-track table.

    ``gnss`` rows are NaN where no fix was applied at that timestamp and
    are emitted as empty cells.
    """
    _write_table(
        path,
        "t,est_e,est_n,est_u,truth_e,truth_n,truth_u,gnss_e,gnss_n,gnss_u",
        [t, est, truth, gnss],
    )
