import math
import shutil
from contextlib import contextmanager
from datetime import datetime, timedelta

import numpy as np
import pytest
from oracles import reference_load_sequence, reference_parse_oxts_record

from navfuse.errors import (
    MalformedRecord,
    MissingTimestamps,
    NonMonotonicTime,
    RecordCountMismatch,
)
from navfuse.kitti import _BLOCK, OXTS_FIELDS, load_sequence, parse_oxts_record, parse_timestamp

VALID_LINE = (
    "49.0 8.43 115.0 0.02 -0.01 0.5 1.0 2.0 2.2 -0.1 0.05 0.3 -0.2 9.9 "
    "0.31 -0.21 9.81 0.001 -0.002 0.01 0.0011 -0.0021 0.0101 0.5 0.1 4 10 5 5 6"
)


class TestParseRecord:
    def test_field_count_is_thirty(self):
        assert len(OXTS_FIELDS) == 30

    def test_valid_line(self):
        record = parse_oxts_record(VALID_LINE)
        assert record.lat == 49.0
        assert record.lon == 8.43
        assert record.alt == 115.0
        assert record.roll == 0.02
        assert record.yaw == 0.5
        assert record.af == 0.31
        assert record.al == -0.21
        assert record.au == 9.81
        assert record.wf == 0.0011
        assert record.wl == -0.0021
        assert record.wu == 0.0101
        assert record.pos_accuracy == 0.5
        assert record.navstat == 4
        assert record.numsats == 10
        assert record.orimode == 6

    def test_empty_line_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_oxts_record("")

    def test_wrong_field_count_named(self):
        short = " ".join(VALID_LINE.split()[:29])
        with pytest.raises(MalformedRecord, match="29"):
            parse_oxts_record(short)

    def test_non_numeric_token(self):
        bad = VALID_LINE.replace("115.0", "altitude")
        with pytest.raises(MalformedRecord, match="alt"):
            parse_oxts_record(bad)

    def test_non_finite_token_named(self):
        fields = VALID_LINE.split()
        for token in ("nan", "inf", "-inf"):
            bad = " ".join(fields[:20] + [token] + fields[21:])
            with pytest.raises(MalformedRecord, match=f"non-finite field wf='{token}' in 07.txt"):
                parse_oxts_record(bad, "07.txt")

    def test_out_of_bounds_latitude(self):
        bad = VALID_LINE.replace("49.0", "95.0", 1)
        with pytest.raises(MalformedRecord):
            parse_oxts_record(bad)


class TestTimestamps:
    def test_fractional_parse(self):
        stamp, frac = parse_timestamp("2011-09-26 13:02:25.964389445")
        assert stamp.second == 25
        assert frac == pytest.approx(0.964389445, abs=1e-12)

    def test_bad_line(self):
        with pytest.raises(MalformedRecord):
            parse_timestamp("not a timestamp")


class TestLoadSequence:
    def test_fixture_drive(self, kitti_drive):
        imu, gnss = load_sequence(kitti_drive)
        assert len(imu) == 3
        assert imu.t[0] == 0.0
        assert imu.t[1] == pytest.approx(0.1, abs=1e-9)
        assert imu.t[2] == pytest.approx(0.2, abs=1e-9)
        # Body-frame channels (wf, wl, wu) / (af, al, au).
        np.testing.assert_allclose(imu.gyro[0], [0.0011, -0.0021, 0.0101])
        np.testing.assert_allclose(imu.accel[0], [0.31, -0.21, 9.81])
        # All three records fall into the same one-second bucket.
        assert len(gnss) == 1
        assert gnss.t[0] == 0.0
        assert gnss.lat[0] == pytest.approx(math.radians(49.0), abs=1e-15)
        assert gnss.lon[0] == pytest.approx(math.radians(8.43), abs=1e-15)
        assert gnss.alt[0] == 115.0
        assert gnss.std.tolist() == [0.5]

    def test_missing_timestamps(self, tmp_path):
        (tmp_path / "oxts" / "data").mkdir(parents=True)
        with pytest.raises(MissingTimestamps):
            load_sequence(tmp_path)

    def test_record_count_mismatch(self, kitti_drive, tmp_path):
        drive = tmp_path / "drive"
        shutil.copytree(kitti_drive, drive)
        (drive / "oxts" / "data" / "0000000002.txt").unlink()
        with pytest.raises(RecordCountMismatch):
            load_sequence(drive)

    def test_empty_data_dir(self, tmp_path):
        (tmp_path / "oxts" / "data").mkdir(parents=True)
        (tmp_path / "oxts" / "timestamps.txt").write_text("2011-09-26 13:02:25.9\n")
        with pytest.raises(RecordCountMismatch):
            load_sequence(tmp_path)

    def test_malformed_record_inside_drive(self, kitti_drive, tmp_path):
        drive = tmp_path / "drive"
        shutil.copytree(kitti_drive, drive)
        (drive / "oxts" / "data" / "0000000001.txt").write_text("1 2 3\n")
        with pytest.raises(MalformedRecord):
            load_sequence(drive)
        # Bytes that are not UTF-8, in a record and in the timestamps.
        for name in ("data/0000000001.txt", "timestamps.txt"):
            shutil.rmtree(drive)
            shutil.copytree(kitti_drive, drive)
            (drive / "oxts" / name).write_bytes(b"\xff\xfe 1 2 3\n")
            with pytest.raises(MalformedRecord, match=f"{name}: not UTF-8 text"):
                load_sequence(drive)

    def test_non_monotonic_timestamps(self, kitti_drive, tmp_path):
        drive = tmp_path / "drive"
        shutil.copytree(kitti_drive, drive)
        (drive / "oxts" / "timestamps.txt").write_text(
            "2011-09-26 13:02:25.900000000\n"
            "2011-09-26 13:02:26.000000000\n"
            "2011-09-26 13:02:25.950000000\n"
        )
        with pytest.raises(NonMonotonicTime) as info:
            load_sequence(drive)
        assert info.value.index == 2

    def test_decimation_across_buckets(self, tmp_path):
        data = tmp_path / "oxts" / "data"
        data.mkdir(parents=True)
        lines = []
        for k in range(25):
            frac = k % 10
            sec = 30 + k // 10
            lines.append(f"2011-09-26 13:02:{sec}.{frac}00000000")
            (data / f"{k:010d}.txt").write_text(VALID_LINE + "\n")
        (tmp_path / "oxts" / "timestamps.txt").write_text("\n".join(lines) + "\n")
        imu, gnss = load_sequence(tmp_path)
        assert len(imu) == 25
        # 2.5 s at 10 Hz spans three whole-second buckets.
        assert len(gnss) == 3
        assert gnss.t.tolist() == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)

    def test_unreported_accuracy_leaves_default_noise(self, kitti_drive, tmp_path):
        # pos_accuracy 0 means "not reported": the fix gets a NaN sigma,
        # which the filter replaces by its configured noise.
        drive = tmp_path / "drive"
        shutil.copytree(kitti_drive, drive)
        for path in (drive / "oxts" / "data").glob("*.txt"):
            fields = path.read_text().split()
            fields[OXTS_FIELDS.index("pos_accuracy")] = "0"
            path.write_text(" ".join(fields) + "\n")
        _, gnss = load_sequence(drive)
        assert np.isnan(gnss.std).all()


# ---------------------------------------------------------------------------
# The columnar loader against the per-record oracle
# ---------------------------------------------------------------------------

COLUMNS = {"imu": ("t", "gyro", "accel"), "gnss": ("t", "lat", "lon", "alt", "std")}
STATUS = OXTS_FIELDS.index("navstat")  # the first integer status field


def spell(value, rng):
    """``value`` in one of several spellings that ``float()`` reads back
    exactly: repr, exponent, upper-case exponent, or a leading plus."""
    kind = rng.integers(4)
    if kind == 1:
        return f"{value:.17e}"
    if kind == 2:
        return f"{value:.17E}"
    if kind == 3 and math.copysign(1.0, value) > 0:
        return f"+{value!r}"
    return repr(value)


def write_drive(root, n, seed):
    """A drive of ``n`` OXTS records at a jittered 10 Hz, each token and
    separator spelled in one of several ways, with leading blanks, CRLF
    and missing final newlines, -0.0 readings and a 3 s span without
    ``pos_accuracy``; returns each record's tokens."""
    rng = np.random.default_rng(seed)
    data = root / "oxts" / "data"
    data.mkdir(parents=True)
    ns = np.arange(n) * 100_000_000 + rng.integers(-3_000_000, 3_000_000, n)
    ns[0] = 0
    epoch = datetime(2011, 9, 26, 13, 2, 25)
    stamps = [f"{epoch + timedelta(seconds=int(v) // 10**9):%Y-%m-%d %H:%M:%S}.{int(v) % 10**9:09d}"
              for v in ns]
    (root / "oxts" / "timestamps.txt").write_text("\n".join(stamps) + "\n")
    values = rng.normal(0.0, 0.5, (n, len(OXTS_FIELDS)))
    values[:, 0] = 49.0 + np.cumsum(rng.normal(0.0, 1e-6, n))
    values[:, 1] = 8.43 + np.cumsum(rng.normal(0.0, 1e-6, n))
    values[:, 2] = 115.0 + rng.normal(0.0, 3.0, n)
    values[:, OXTS_FIELDS.index("pos_accuracy")] = rng.uniform(1.0, 3.0, n)
    values[n // 4:n // 4 + 30, OXTS_FIELDS.index("pos_accuracy")] = 0.0
    values[::7, OXTS_FIELDS.index("wf")] = -0.0
    records = []
    for k, row in enumerate(values):
        tokens = [spell(float(v), rng) for v in row[:STATUS]]
        tokens += [str(v) for v in rng.integers(0, 12, len(OXTS_FIELDS) - STATUS)]
        seps = rng.choice([" ", "\t", "   ", " \t  "], len(tokens) - 1)
        text = rng.choice(["", " ", "\t "]) + "".join(t + sep for t, sep in zip(tokens, seps))
        text += tokens[-1]
        text += rng.choice(["\n", "\r\n", ""])
        (data / f"{k:010d}.txt").write_bytes(text.encode())
        records.append(tokens)
    return records


def outcome(load, *args):
    """The stream columns that ``load(*args)`` returns, or the class and
    message of what it raises."""
    try:
        imu, gnss = load(*args)
    except Exception as exc:
        return type(exc), str(exc)
    streams = {"imu": imu, "gnss": gnss}
    return {f"{s}.{c}": getattr(streams[s], c) for s, cols in COLUMNS.items() for c in cols}


def assert_same_as_oracle(drive):
    """``load_sequence(drive)`` returns the oracle's columns bit for bit,
    or raises its class with its message; returns the oracle's outcome."""
    ref, new = outcome(reference_load_sequence, drive), outcome(load_sequence, drive)
    if isinstance(ref, tuple):
        assert new == ref
        return ref
    assert isinstance(new, dict) and new.keys() == ref.keys()
    for name, a in ref.items():
        b = new[name]
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert np.array_equal(a, b, equal_nan=True) and a.tobytes() == b.tobytes(), name
    return ref


def test_load_sequence_bit_identical_to_per_record_oracle(tmp_path):
    write_drive(tmp_path, 600, seed=11)
    ref = assert_same_as_oracle(tmp_path)
    assert len(ref["imu.t"]) == 600 and len(ref["gnss.t"]) > 50
    # The spellings reached the streams: -0.0 and the unreported sigmas.
    assert np.signbit(ref["imu.gyro"][::7, 0]).all()
    assert np.isnan(ref["gnss.std"]).sum() >= 2 and not np.isnan(ref["gnss.std"]).all()


@pytest.fixture(scope="module")
def oxts_drive(tmp_path_factory):
    """A 300-record drive (two blocks) and its records' tokens."""
    root = tmp_path_factory.mktemp("oxts") / "drive"
    return root, write_drive(root, 300, seed=5)


@contextmanager
def altered(drive, records):
    """The drive with record files replaced: ``records`` maps a record's
    index to its new bytes, or to None for a directory of its name."""
    paths = sorted((drive / "oxts" / "data").iterdir())
    saved = {k: paths[k].read_bytes() for k in records}
    try:
        for k, content in records.items():
            if content is None:
                paths[k].unlink()
                paths[k].mkdir()
            else:
                paths[k].write_bytes(content)
        yield
    finally:
        for k, content in saved.items():
            if paths[k].is_dir():
                paths[k].rmdir()
            paths[k].write_bytes(content)


def replaced(tokens, **fields):
    """A record line: ``tokens`` with the named fields replaced."""
    tokens = list(tokens)
    for name, token in fields.items():
        tokens[OXTS_FIELDS.index(name)] = token
    return " ".join(tokens) + "\n"


FAULTS = {
    "undecodable": lambda tokens: b"\xff\xfe 1 2 3\n",
    "empty": lambda tokens: b"",
    "blank": lambda tokens: b" \t\r\n",
    "29 fields": lambda tokens: ("\t" + " ".join(tokens[:29]) + "\r\n").encode(),
    "31 fields": lambda tokens: " ".join([*tokens, "1.0"]).encode(),
    "non-numeric": lambda tokens: replaced(tokens, alt="altitude").encode(),
    "nan": lambda tokens: replaced(tokens, wf="nan").encode(),
    "inf": lambda tokens: replaced(tokens, wf="inf").encode(),
    "-inf": lambda tokens: replaced(tokens, wf="-inf").encode(),
    "latitude 95": lambda tokens: replaced(tokens, lat="95.0").encode(),
    "directory": lambda tokens: None,
}
POSITIONS = (0, 150, _BLOCK, 299)


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("kind", FAULTS)
def test_fault_raises_as_oracle(oxts_drive, kind, position):
    drive, records = oxts_drive
    with altered(drive, {position: FAULTS[kind](records[position])}):
        _, message = assert_same_as_oracle(drive)
    assert f"{position:010d}.txt" in message


def test_directory_named_x_txt_raises_as_oracle(oxts_drive):
    drive, _ = oxts_drive
    last = drive / "oxts" / "data" / "0000000299.txt"
    saved = last.read_bytes()
    last.unlink()
    (drive / "oxts" / "data" / "x.txt").mkdir()
    try:
        cls, message = assert_same_as_oracle(drive)
    finally:
        (drive / "oxts" / "data" / "x.txt").rmdir()
        last.write_bytes(saved)
    assert cls is IsADirectoryError and message.endswith("x.txt'")


@pytest.mark.parametrize("early, late", [
    ("non-numeric", "undecodable"),
    ("undecodable", "29 fields"),
    ("directory", "nan"),
    ("latitude 95", "directory"),
    ("empty", "latitude 95"),
    ("inf", "31 fields"),
])
@pytest.mark.parametrize("positions", [(3, 200), (200, _BLOCK + 4)])
def test_earlier_record_fault_wins(oxts_drive, early, late, positions):
    drive, records = oxts_drive
    first, second = positions
    faults = {first: FAULTS[early](records[first]), second: FAULTS[late](records[second])}
    with altered(drive, faults):
        _, message = assert_same_as_oracle(drive)
    assert f"{first:010d}.txt" in message


def assert_record_as_oracle(line, context="07.txt"):
    """``parse_oxts_record`` returns the oracle's record, with the same
    types, or raises its class with its message; returns that outcome."""
    outcomes = []
    for parse in (reference_parse_oxts_record, parse_oxts_record):
        try:
            record = parse(line, context)
            outcomes.append((record, [type(v) for v in record]))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[1] == outcomes[0]
    return outcomes[0]


WITHIN_RECORD = {
    "nan before a non-numeric field": dict(alt="nan", wf="x"),
    "non-numeric before a nan field": dict(alt="x", wf="nan"),
    "non-finite before the bounds": dict(lat="95.0", wf="inf"),
    "bounds last": dict(lon="-180.5"),
}


@pytest.mark.parametrize("case", WITHIN_RECORD)
def test_fault_order_within_a_record(oxts_drive, case):
    drive, records = oxts_drive
    line = replaced(records[150], **WITHIN_RECORD[case])
    assert_record_as_oracle(line)
    with altered(drive, {150: line.encode()}):
        assert_same_as_oracle(drive)
    # The field count comes first.
    assert_record_as_oracle(" ".join(line.split()[:29]))


@pytest.mark.parametrize("field, token", [
    ("alt", "1_0"), ("alt", "0x10"), ("wf", "infinity"), ("wf", "-Infinity"),
    ("alt", "1__0"), ("alt", "+1e3"), ("alt", "\u0663"), ("numsats", "4.7"),
    ("numsats", "1e3"), ("navstat", "-0.0"),
])
def test_token_grammar_is_float(oxts_drive, field, token):
    drive, records = oxts_drive
    line = replaced(records[150], **{field: f" \t {token}"})
    result = assert_record_as_oracle(line)
    assert (result[0] is MalformedRecord) == (token in ("0x10", "1__0", "infinity", "-Infinity"))
    with altered(drive, {150: line.encode()}):
        assert_same_as_oracle(drive)
