"""Position-error metrics, and the CSV table format of every stream and
artifact.

A table is a fixed header line and one line per row of numbers.  Files
are written atomically (temp file + rename) by :func:`_write_table`,
each row through one ``%.17g`` format with a '.' decimal separator
regardless of locale, so floats round-trip exactly and runs diff
cleanly; NaN cells are written empty.  :func:`_read_table` reads one
back into a 2-D array and rejects a bad row with the file and line.
"""

import os
import tempfile
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


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` via a temp file in the same directory."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        os.unlink(tmp)
        raise OSError(f"cannot write {path}: {exc}") from exc


def _read_text(path):
    """The UTF-8 text of the file at ``path``; bytes that do not decode
    raise :class:`MalformedRecord` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_table(path, header, ncols, valid=None):
    """Read a table written by :func:`_write_table` as an (n, ncols) array.

    Blank lines are skipped.  A wrong header or a non-numeric row raises
    :class:`NavFuseError`; bytes that are not text, a row without
    ``ncols`` cells, a non-finite cell, or a row that ``valid`` (table ->
    bool per row) rejects raises :class:`MalformedRecord`.  Each message
    names ``path``, and each row error ``path:line``.
    """
    try:
        lines = _read_text(path).splitlines()
    except OSError as exc:
        raise NavFuseError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != header:
        raise NavFuseError(f"{path}: expected header {header!r}")
    rows = []
    numbers = []
    for k, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != ncols:
            raise MalformedRecord(f"{path}:{k}: expected {ncols} cells, got {len(cells)}")
        try:
            rows.append(list(map(float, cells)))
        except ValueError:
            raise NavFuseError(f"{path}:{k}: non-numeric row {line!r}") from None
        numbers.append(k)
    table = np.array(rows, dtype=float).reshape(-1, ncols)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        k = numbers[int(np.argmin(finite))]
        raise MalformedRecord(f"{path}:{k}: non-finite cell in {lines[k - 1]!r}")
    if valid is not None:
        ok = valid(table)
        if not ok.all():
            k = numbers[int(np.argmin(ok))]
            raise MalformedRecord(f"{path}:{k}: value out of range in {lines[k - 1]!r}")
    return table


def _write_table(path, header, table, labels=None):
    """Write ``header`` and one line per row of ``table``, a number per
    header column (after the label column, when ``labels`` are given).

    Each row goes through a single ``%.17g`` format string, which gives
    the bytes of :func:`_fmt` per cell; NaN cells are written empty.
    ``labels``, when given, lead the rows as a first text cell.
    """
    ncols = header.count(",") + 1 - (labels is not None)
    table = np.asarray(table, dtype=float).reshape(-1, ncols)
    row = ",".join(["%.17g"] * ncols) + "\n"
    # Only a NaN formats to a token containing "nan", so blanking those
    # tokens empties exactly the NaN cells.
    text = ((row * len(table)) % tuple(table.ravel().tolist())).replace("nan", "")
    if labels is not None:
        text = "".join(f"{label},{line}\n" for label, line in zip(labels, text.splitlines()))
    atomic_write_text(path, header + "\n" + text)


def export_errors_csv(errors, path):
    """Write an error track as ``t,ex,ey,ez`` rows."""
    _write_table(path, "t,ex,ey,ez", np.column_stack(errors))


def export_rmse_csv(reports, path):
    """Write RMSE rows as ``method,rmse_x,rmse_y,rmse_z``."""
    _write_table(
        path,
        "method,rmse_x,rmse_y,rmse_z",
        [(r.rmse_x, r.rmse_y, r.rmse_z) for r in reports],
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
        np.column_stack([t, est, truth, gnss]),
    )
