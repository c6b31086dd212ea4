"""KITTI raw-data OXTS ingestion.

A drive directory holds ``oxts/timestamps.txt`` (one ISO datetime with a
nanosecond fraction per line) and ``oxts/data/NNNNNNNNNN.txt`` (one
30-field whitespace-separated record per frame).  Parsing transcribes
the file faithfully: angles stay in the recorded units (degrees for
lat/lon) and are converted at the domain boundary in
:func:`load_sequence`, which parses one record file per frame and
returns the drive as an :class:`ImuStream` and a :class:`GnssStream`;
the streams check the time order.
"""

import math
from collections import namedtuple
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import MalformedRecord, MissingTimestamps, RecordCountMismatch
from .evaluate import _read_text
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


def parse_oxts_record(line, context=""):
    """Parse one 30-field OXTS line into an :class:`OxtsRecord`.

    Raises :class:`MalformedRecord` on a wrong field count or a
    non-numeric or non-finite token, naming the offending line or field.
    """
    where = f" in {context}" if context else ""
    tokens = line.split()
    if len(tokens) != len(OXTS_FIELDS):
        raise MalformedRecord(
            f"expected {len(OXTS_FIELDS)} fields, got {len(tokens)}{where}: {line!r}"
        )
    values = {}
    for name, token in zip(OXTS_FIELDS, tokens):
        try:
            number = float(token)
        except ValueError:
            raise MalformedRecord(f"non-numeric field {name}={token!r}{where}") from None
        if not math.isfinite(number):
            raise MalformedRecord(f"non-finite field {name}={token!r}{where}")
        values[name] = int(number) if name in _INT_FIELDS else number
    record = OxtsRecord(**values)
    if not (-90.0 <= record.lat <= 90.0 and -180.0 <= record.lon <= 180.0):
        raise MalformedRecord(
            f"lat/lon ({record.lat}, {record.lon}) outside geodetic bounds{where}"
        )
    return record


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
    """
    drive_dir = Path(drive_dir)
    ts_path = drive_dir / "oxts" / "timestamps.txt"
    data_dir = drive_dir / "oxts" / "data"
    if not ts_path.is_file():
        raise MissingTimestamps(f"missing {ts_path}")
    ts_lines = [line for line in _read_text(ts_path).splitlines() if line.strip()]
    # By name: the same order as sorting the paths, without Path comparisons.
    data_files = sorted(data_dir.glob("*.txt"), key=lambda p: p.name) if data_dir.is_dir() else []
    if not data_files or len(data_files) != len(ts_lines):
        raise RecordCountMismatch(
            f"{len(data_files)} data files vs {len(ts_lines)} timestamp lines in {drive_dir}"
        )

    base_dt, base_frac = parse_timestamp(ts_lines[0])
    times = np.array([
        (stamp - base_dt).total_seconds() + (frac - base_frac)
        for stamp, frac in map(parse_timestamp, ts_lines)
    ])
    records = [parse_oxts_record(_read_text(path).strip(), path.name) for path in data_files]
    # The drive's columns, one array per field.
    c = OxtsRecord(*np.array(records).T)
    imu = ImuStream(times, np.stack([c.wf, c.wl, c.wu], 1), np.stack([c.af, c.al, c.au], 1))

    k = decimate_indices(times, gnss_rate)
    std = np.where(c.pos_accuracy[k] > 0, c.pos_accuracy[k], np.nan)
    return imu, GnssStream(times[k], np.radians(c.lat[k]), np.radians(c.lon[k]), c.alt[k], std)
