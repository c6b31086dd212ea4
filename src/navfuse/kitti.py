"""KITTI raw-data OXTS ingestion.

A drive directory holds ``oxts/timestamps.txt`` (one ISO datetime with a
nanosecond fraction per line) and ``oxts/data/NNNNNNNNNN.txt`` (one
30-field whitespace-separated record per frame).  Parsing transcribes
the file faithfully: angles stay in the recorded units (degrees for
lat/lon) and are converted at the domain boundary in
:func:`load_sequence`, which reads the drive in one columnar pass (one
array conversion per block of records, and array checks) and returns it
as an :class:`ImuStream` and a :class:`GnssStream`; the streams check
the time order.
"""

import math
import os
from collections import namedtuple
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import MalformedRecord, MissingTimestamps, RecordCountMismatch
from .evaluate import _decode, _read_text
from .gnss import GnssStream, decimate_indices
from .strapdown import ImuStream


#: OXTS record layout, in file order.
OXTS_FIELDS = (
    "lat", "lon", "alt",
    "roll", "pitch", "yaw",
    "vn", "ve", "vf", "vl", "vu",
    "ax", "ay", "az", "af", "al", "au",
    "wx", "wy", "wz", "wf", "wl", "wu",
    "pos_accuracy", "vel_accuracy",
    "navstat", "numsats", "posmode", "velmode", "orimode",
)
_INT_FIELDS = {"navstat", "numsats", "posmode", "velmode", "orimode"}
#: One OXTS record: floats, and ints for the status fields.
OxtsRecord = namedtuple("OxtsRecord", OXTS_FIELDS)
#: Records converted at a time, which bounds the transient token lists.
_BLOCK = 256


def _fault(tokens, line, context):
    """The :class:`MalformedRecord` of the first fault of one record (its
    ``tokens``, split from ``line``), or None: a field count other than
    30, then in field order a token that ``float()`` rejects or that is
    not finite, then lat/lon outside geodetic bounds."""
    where = f" in {context}" if context else ""
    if len(tokens) != len(OXTS_FIELDS):
        return MalformedRecord(
            f"expected {len(OXTS_FIELDS)} fields, got {len(tokens)}{where}: {line!r}"
        )
    for name, token in zip(OXTS_FIELDS, tokens):
        try:
            number = float(token)
        except ValueError:
            return MalformedRecord(f"non-numeric field {name}={token!r}{where}")
        if not math.isfinite(number):
            return MalformedRecord(f"non-finite field {name}={token!r}{where}")
    lat, lon = float(tokens[0]), float(tokens[1])
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return MalformedRecord(f"lat/lon ({lat}, {lon}) outside geodetic bounds{where}")


def _oxts_table(lines, contexts):
    """The (n, 30) table of the OXTS record ``lines``, all tokens converted
    by one ``np.array(..., dtype=float)`` (``float()``'s grammar); the
    first faulty record raises, naming its entry of ``contexts``."""
    rows = [line.split() for line in lines]
    try:
        table = np.array(rows, dtype=float).reshape(len(rows), len(OXTS_FIELDS))
    except ValueError:  # a wrong field count, or a token that is no number
        table = np.full((len(rows), len(OXTS_FIELDS)), np.nan)
    # Finite, and lat/lon within geodetic bounds.
    if not (np.isfinite(table).all() and (np.abs(table[:, :2]) <= (90.0, 180.0)).all()):
        raise next(filter(None, map(_fault, rows, lines, contexts)))
    return table


def parse_oxts_record(line, context=""):
    """Parse one 30-field OXTS line into an :class:`OxtsRecord`.

    Raises :class:`MalformedRecord` on a wrong field count or a
    non-numeric or non-finite token, naming the offending line or field.
    """
    (row,) = _oxts_table([line], [context]).tolist()
    return OxtsRecord(*(int(v) if f in _INT_FIELDS else v for f, v in zip(OXTS_FIELDS, row)))


def parse_timestamp(line):
    """Split an ISO timestamp into (whole-second datetime, fractional s)."""
    text = line.strip()
    try:
        if "." in text:
            whole, frac = text.split(".", 1)
            return datetime.fromisoformat(whole.replace(" ", "T")), float("0." + frac)
        return datetime.fromisoformat(text.replace(" ", "T")), 0.0
    except ValueError:
        raise MalformedRecord(f"bad timestamp line {text!r}") from None


def load_sequence(drive_dir, gnss_rate=1.0):
    """Load a KITTI drive into (:class:`ImuStream`, :class:`GnssStream`).

    IMU samples take the body-frame channels (wf, wl, wu) and
    (af, al, au) at the full recording rate; GNSS fixes take (lat, lon,
    alt), converted to radians, decimated to ``gnss_rate`` by keeping
    the first record of each time bucket, with the receiver sigma
    ``pos_accuracy`` where it is positive and NaN (the filter's default)
    elsewhere.  Timestamps become seconds relative to the first record.

    The records (the ``*.txt`` entries of ``oxts/data`` in name order)
    fill one (N, 30) table, :data:`_BLOCK` at a time.  The first faulty
    record raises: :class:`OSError` or :class:`MalformedRecord` if it is
    not readable UTF-8 text, else its first fault (:func:`_fault`).
    """
    drive_dir = Path(drive_dir)
    ts_path = drive_dir / "oxts" / "timestamps.txt"
    data_dir = os.path.join(drive_dir, "oxts", "data")
    if not ts_path.is_file():
        raise MissingTimestamps(f"missing {ts_path}")
    ts_lines = [line for line in _read_text(ts_path).splitlines() if line.strip()]
    listing = os.listdir(data_dir) if os.path.isdir(data_dir) else []
    # The entries that a "*.txt" glob lists, in name order.
    names = sorted(name for name in listing if name.endswith(".txt"))
    if not names or len(names) != len(ts_lines):
        raise RecordCountMismatch(
            f"{len(names)} data files vs {len(ts_lines)} timestamp lines in {drive_dir}"
        )

    base_dt, base_frac = parse_timestamp(ts_lines[0])
    times = np.array([
        (stamp - base_dt).total_seconds() + (frac - base_frac)
        for stamp, frac in map(parse_timestamp, ts_lines)
    ])
    table = np.empty((len(names), len(OXTS_FIELDS)))
    for start in range(0, len(names), _BLOCK):
        block, lines, unread = names[start:start + _BLOCK], [], None
        for name in block:
            path = os.path.join(data_dir, name)
            try:
                with open(path, "rb", buffering=0) as file:
                    lines.append(_decode(path, file.read()).strip())
            except (OSError, MalformedRecord) as exc:
                unread = exc  # raised after the faults of the records before it
                break
        table[start:start + len(lines)] = _oxts_table(lines, block)
        if unread is not None:
            raise unread
    # The drive's columns, one array per field.
    c = OxtsRecord(*table.T)
    imu = ImuStream(times, np.stack([c.wf, c.wl, c.wu], 1), np.stack([c.af, c.al, c.au], 1))

    k = decimate_indices(times, gnss_rate)
    std = np.where(c.pos_accuracy[k] > 0, c.pos_accuracy[k], np.nan)
    return imu, GnssStream(times[k], np.radians(c.lat[k]), np.radians(c.lon[k]), c.alt[k], std)
