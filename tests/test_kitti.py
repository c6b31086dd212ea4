import math
import shutil

import numpy as np
import pytest

from navfuse.errors import (
    MalformedRecord,
    MissingTimestamps,
    NonMonotonicTime,
    RecordCountMismatch,
)
from navfuse.kitti import OXTS_FIELDS, load_sequence, parse_oxts_record, parse_timestamp

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
        assert gnss.std[0].tolist() == [0.5, 0.5, 0.5]

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
        # pos_accuracy 0 means "not reported": the fix gets an all-NaN
        # sigma row, which the filter replaces by its configured noise.
        drive = tmp_path / "drive"
        shutil.copytree(kitti_drive, drive)
        for path in (drive / "oxts" / "data").glob("*.txt"):
            fields = path.read_text().split()
            fields[OXTS_FIELDS.index("pos_accuracy")] = "0"
            path.write_text(" ".join(fields) + "\n")
        _, gnss = load_sequence(drive)
        assert np.isnan(gnss.std).all()
