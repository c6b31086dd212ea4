import math
import shutil
import sys

import numpy as np
import pytest

import navfuse.geodesy
from navfuse.cli import main
from navfuse.geodesy import GeodeticCoord, geodetic_to_enu


def run(args):
    return main([str(a) for a in args])


def simulate_into(tmp_path, extra=()):
    out = tmp_path / "sim"
    code = run(
        ["simulate", "--profile", "circular", "--duration", "20", "--seed", "42",
         "--out", out, *extra]
    )
    assert code == 0
    return out


class TestSimulateCommand:
    def test_writes_all_artifacts(self, tmp_path):
        out = simulate_into(tmp_path)
        for name in ("truth.csv", "imu.csv", "gnss.csv", "manifest"):
            assert (out / name).is_file()
        imu_lines = (out / "imu.csv").read_text().splitlines()
        assert imu_lines[0] == "t,wx,wy,wz,ax,ay,az"
        assert len(imu_lines) == 1 + 2000
        gnss_lines = (out / "gnss.csv").read_text().splitlines()
        assert gnss_lines[0] == "t,lat_deg,lon_deg,alt_m"
        assert len(gnss_lines) == 1 + 20

    def test_deterministic_outputs(self, tmp_path):
        a = simulate_into(tmp_path / "a")
        b = simulate_into(tmp_path / "b")
        for name in ("truth.csv", "imu.csv", "gnss.csv", "manifest"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_duration_is_usage_error(self, tmp_path, capsys):
        code = run(["simulate", "--profile", "circular", "--duration", "0",
                    "--seed", "1", "--out", tmp_path / "x"])
        assert code == 2

    def test_seed_required(self, tmp_path):
        code = run(["simulate", "--profile", "circular", "--duration", "5",
                    "--out", tmp_path / "x"])
        assert code == 2

    def test_manifest_echoes_config(self, tmp_path):
        out = simulate_into(tmp_path, extra=["--gnss-sigma", "7.5"])
        manifest = dict(
            line.split("=", 1) for line in (out / "manifest").read_text().splitlines()
        )
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == "42"
        assert float(manifest["gnss_sigma"]) == 7.5
        assert float(manifest["origin_lat_deg"]) == 49.0


class TestFuseCommand:
    def test_end_to_end_with_truth(self, tmp_path):
        sim = simulate_into(tmp_path)
        out = tmp_path / "fused"
        code = run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                    "--truth", sim / "truth.csv", "--out", out])
        assert code == 0
        for name in ("estimate.csv", "errors.csv", "rmse.csv", "track.csv", "manifest"):
            assert (out / name).is_file()
        rmse_lines = (out / "rmse.csv").read_text().splitlines()
        assert rmse_lines[0] == "method,rmse_x,rmse_y,rmse_z"
        methods = [line.split(",")[0] for line in rmse_lines[1:]]
        assert methods == ["GNSS", "GNSS-IMU"]
        est_lines = (out / "estimate.csv").read_text().splitlines()
        assert len(est_lines) == 1 + 2000

    def test_outage_flag_keeps_output_continuous(self, tmp_path):
        sim = simulate_into(tmp_path)
        out = tmp_path / "fused"
        code = run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                    "--gnss-outage", "5:10", "--out", out])
        assert code == 0
        est_lines = (out / "estimate.csv").read_text().splitlines()
        assert len(est_lines) == 1 + 2000
        times = [float(line.split(",")[0]) for line in est_lines[1:]]
        assert any(5.0 <= t < 10.0 for t in times)

    def test_missing_input_names_path(self, tmp_path, capsys):
        code = run(["fuse", "--imu", tmp_path / "absent.csv",
                    "--gnss", tmp_path / "also_absent.csv", "--out", tmp_path / "o"])
        assert code == 1
        assert "absent.csv" in capsys.readouterr().err

    def test_requires_input_choice(self, tmp_path):
        code = run(["fuse", "--out", tmp_path / "o"])
        assert code == 2

    def test_kitti_input(self, tmp_path, kitti_drive):
        out = tmp_path / "fused"
        code = run(["fuse", "--kitti", kitti_drive, "--out", out])
        assert code == 0
        est_lines = (out / "estimate.csv").read_text().splitlines()
        assert len(est_lines) == 1 + 3

    def test_non_finite_kitti_channel_is_data_error(self, tmp_path, kitti_drive, capsys):
        drive = tmp_path / "drive"
        shutil.copytree(kitti_drive, drive)
        record = drive / "oxts" / "data" / "0000000001.txt"
        fields = record.read_text().split()
        fields[20] = "nan"  # wf
        record.write_text(" ".join(fields) + "\n")
        capsys.readouterr()
        code = run(["fuse", "--kitti", drive, "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "wf='nan' in 0000000001.txt" in err
        assert "Traceback" not in err

    def test_config_file_and_flag_precedence(self, tmp_path):
        sim = simulate_into(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text("gnss_sigma=5.0\nalpha=0.9\n")
        out_file_only = tmp_path / "f1"
        run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
             "--config", config, "--out", out_file_only])
        manifest = dict(
            line.split("=", 1)
            for line in (out_file_only / "manifest").read_text().splitlines()
        )
        assert float(manifest["gnss_sigma"]) == 5.0
        assert float(manifest["alpha"]) == 0.9

        out_flag = tmp_path / "f2"
        run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
             "--config", config, "--gnss-sigma", "6.5", "--out", out_flag])
        manifest = dict(
            line.split("=", 1) for line in (out_flag / "manifest").read_text().splitlines()
        )
        assert float(manifest["gnss_sigma"]) == 6.5
        assert float(manifest["alpha"]) == 0.9

    def test_manifest_records_origin(self, tmp_path):
        sim = simulate_into(tmp_path)
        out = tmp_path / "fused"
        run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv", "--out", out])
        manifest = dict(
            line.split("=", 1) for line in (out / "manifest").read_text().splitlines()
        )
        assert abs(float(manifest["origin_lat_deg"]) - 49.0) < 0.01
        assert abs(float(manifest["origin_lon_deg"]) - 8.43) < 0.01


    def test_each_fix_and_truth_row_converted_once(self, tmp_path, monkeypatch):
        sim = simulate_into(tmp_path)
        fixes = len((sim / "gnss.csv").read_text().splitlines()) - 1
        truth_rows = len((sim / "truth.csv").read_text().splitlines()) - 1
        original = navfuse.geodesy.geodetic_to_enu
        converted = []

        def counting(lat, lon, height, origin):
            converted.append(np.size(lat))
            return original(lat, lon, height, origin)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "navfuse":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        code = run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                    "--truth", sim / "truth.csv", "--out", tmp_path / "fused"])
        assert code == 0
        assert sorted(converted) == sorted([fixes, truth_rows])
        assert sum(converted) == fixes + truth_rows


    def test_track_cells_hold_the_last_fix_of_a_step(self, tmp_path):
        # A second fix 4 ms after the 5 s fix anchors to the same 100 Hz
        # IMU step; the track row of that step shows the later fix.
        sim = simulate_into(tmp_path)
        lines = (sim / "gnss.csv").read_text().splitlines()
        t, lat, lon, alt = (float(cell) for cell in lines[6].split(","))
        assert t == 5.0
        lines.insert(7, f"{t + 0.004!r},{lat!r},{lon + 1e-5!r},{alt!r}")
        (sim / "gnss.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "fused"
        assert run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                    "--truth", sim / "truth.csv", "--out", out]) == 0
        first = [float(cell) for cell in lines[1].split(",")]
        origin = GeodeticCoord(math.radians(first[1]), math.radians(first[2]), first[3])
        later = geodetic_to_enu(math.radians(lat), math.radians(lon + 1e-5), alt, origin)
        rows = [line.split(",") for line in (out / "track.csv").read_text().splitlines()[1:]]
        cells = [[float(c) for c in row[7:10]] for row in rows if float(row[0]) == 5.0]
        assert cells == later.tolist()


class TestMalformedStreams:
    """A bad stream row fails with one ``error:`` line naming the file and
    line, and exit code 1."""

    def fuse_with(self, tmp_path, capsys, name, edit):
        sim = simulate_into(tmp_path)
        lines = (sim / name).read_text().splitlines()
        lines[5] = edit(lines[5])
        (sim / name).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                    "--out", tmp_path / "fused"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"{name}:6:" in err
        return err

    def test_short_imu_row(self, tmp_path, capsys):
        err = self.fuse_with(tmp_path, capsys, "imu.csv", lambda line: line.rsplit(",", 1)[0])
        assert "expected 7 cells, got 6" in err

    def test_nan_gyro_cell(self, tmp_path, capsys):
        def nan_gyro(line):
            cells = line.split(",")
            cells[2] = "nan"
            return ",".join(cells)

        err = self.fuse_with(tmp_path, capsys, "imu.csv", nan_gyro)
        assert "non-finite cell" in err

    def test_latitude_out_of_range(self, tmp_path, capsys):
        def lat_95(line):
            cells = line.split(",")
            cells[1] = "95"
            return ",".join(cells)

        err = self.fuse_with(tmp_path, capsys, "gnss.csv", lat_95)
        assert "value out of range" in err


class TestKittiConvertCommand:
    def test_fixture_conversion(self, tmp_path, kitti_drive):
        out = tmp_path / "conv"
        code = run(["kitti-convert", "--kitti", kitti_drive, "--out", out])
        assert code == 0
        imu_lines = (out / "imu.csv").read_text().splitlines()
        assert len(imu_lines) == 1 + 3
        gnss_lines = (out / "gnss.csv").read_text().splitlines()
        assert len(gnss_lines) == 1 + 1
        row = gnss_lines[1].split(",")
        assert float(row[1]) == pytest.approx(49.0, abs=1e-12)
        assert float(row[2]) == pytest.approx(8.43, abs=1e-12)

    def test_missing_timestamps_is_data_error(self, tmp_path):
        (tmp_path / "drive" / "oxts" / "data").mkdir(parents=True)
        code = run(["kitti-convert", "--kitti", tmp_path / "drive", "--out", tmp_path / "o"])
        assert code == 1

    def test_round_trip_through_fuse(self, tmp_path, kitti_drive):
        conv = tmp_path / "conv"
        run(["kitti-convert", "--kitti", kitti_drive, "--out", conv])
        out = tmp_path / "fused"
        code = run(["fuse", "--imu", conv / "imu.csv", "--gnss", conv / "gnss.csv",
                    "--out", out])
        assert code == 0


class TestParser:
    def test_version_flag(self):
        assert run(["--version"]) == 0

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--profile", "circular", "--duration", "nan", "--seed", "1"],
            ["simulate", "--profile", "circular", "--duration", "5", "--imu-rate", "nan",
             "--seed", "1"],
            ["fuse", "--kitti", "KITTI", "--gyro-std", "-1"],
            ["fuse", "--kitti", "KITTI", "--init-position-std", "-1"],
            ["fuse", "--kitti", "KITTI", "--gyro-std", "nan"],
            ["fuse", "--kitti", "KITTI", "--gnss-rate", "0"],
            ["kitti-convert", "--kitti", "KITTI", "--gnss-rate", "0"],
            ["fuse", "--kitti", "KITTI", "--alpha", "nan"],
            ["fuse", "--kitti", "KITTI", "--gamma", "nan"],
            ["fuse", "--kitti", "KITTI", "--alpha", "0"],
            ["fuse", "--kitti", "KITTI", "--gate", "nan"],
            ["fuse", "--kitti", "KITTI", "--gate", "-1"],
            ["fuse", "--kitti", "KITTI", "--trace-ceiling", "nan"],
        ],
        ids=["duration-nan", "imu-rate-nan", "gyro-std-negative", "init-position-std-negative",
             "gyro-std-nan", "fuse-gnss-rate-zero", "convert-gnss-rate-zero", "alpha-nan",
             "gamma-nan", "alpha-zero", "gate-nan", "gate-negative", "trace-ceiling-nan"],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, kitti_drive, capsys, command):
        args = [kitti_drive if arg == "KITTI" else arg for arg in command]
        code = run([*args, "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("usage error: ")
        assert "Traceback" not in err

    def test_bad_outage_format(self, tmp_path):
        sim = simulate_into(tmp_path)
        code = run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                    "--gnss-outage", "oops", "--out", tmp_path / "o"])
        assert code == 2
