import argparse
import math
import shutil
import sys

import numpy as np
import pytest

import navfuse.fusion
import navfuse.geodesy
from navfuse.cli import _NOT_SETTINGS, build_parser, main, read_gnss_csv, read_imu_csv
from navfuse.fusion import FusionConfig, run_fusion
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

    def test_unknown_profile_in_config_is_usage_error(self, tmp_path, capsys):
        # The flag's choices do not guard a config file; the profile does.
        config = tmp_path / "run.cfg"
        config.write_text("profile=bogus\n")
        code = run(["simulate", "--duration", "5", "--seed", "1", "--config", config,
                    "--out", tmp_path / "x"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: unknown profile kind 'bogus'")
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_seed_from_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed=5\n")
        base = ["simulate", "--profile", "circular", "--duration", "5"]
        assert run([*base, "--config", config, "--out", tmp_path / "file"]) == 0
        assert run([*base, "--seed", "5", "--out", tmp_path / "flag"]) == 0
        for name in ("truth.csv", "imu.csv", "gnss.csv", "manifest"):
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, source):
        config = tmp_path / "run.cfg"
        config.write_text("seed=-1\n")
        seed = ["--seed", "-1"] if source == "flag" else ["--config", config]
        code = run(["simulate", "--profile", "circular", "--duration", "5", *seed,
                    "--out", tmp_path / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "usage error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "x").exists()

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
        # The window [5, 10) is half-open: it cuts the fixes at t = 5..9
        # and keeps those at t = 4 and t = 10.
        nis = est_lines[0].split(",").index("nis")
        fixed = [t for t, line in zip(times, est_lines[1:]) if line.split(",")[nis]]
        assert len(fixed) == 15
        assert not any(5.0 <= t < 10.0 for t in fixed)
        assert 4.0 in fixed and 10.0 in fixed

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


    @pytest.mark.parametrize("fault, message", [
        ("short", "estimates span [0.0, 19.990000000000002] but truth spans [0.0, 9.99]"),
        ("malformed", "truth.csv:1501: expected 4 cells, got 3"),
    ])
    def test_bad_truth_fails_before_fusing(self, tmp_path, capsys, monkeypatch, fault, message):
        sim = simulate_into(tmp_path)
        lines = (sim / "truth.csv").read_text().splitlines()
        if fault == "short":
            lines = lines[:1001]
        else:
            lines[1500] = lines[1500].rsplit(",", 1)[0]
        (sim / "truth.csv").write_text("\n".join(lines) + "\n")

        def no_fusing(*args):
            raise AssertionError("a step was fused before the truth was checked")

        monkeypatch.setattr(navfuse.fusion, "_predict", no_fusing)
        capsys.readouterr()
        out = tmp_path / "fused"
        code = run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                    "--truth", sim / "truth.csv", "--out", out])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1
        assert not out.exists()
        assert not list(tmp_path.rglob("*.tmp"))

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

    def test_fixes_sharing_the_last_step_show_the_later_one(self, tmp_path):
        # gnss.csv, written by hand from the simulated one: a fix at 0 s,
        # before the first IMU sample (0.01 s), and after the last sample
        # (5 s) a fix at 5.5 s and a fix 0.01 deg east at 6 s, which the
        # gate rejects.  The last two anchor to the last step, whose nis
        # and gnss_* cells are the later fix's.
        sim = simulate_into(tmp_path)
        imu = (sim / "imu.csv").read_text().splitlines()
        (sim / "imu.csv").write_text("\n".join(imu[:1] + imu[2:502]) + "\n")
        rows = [line.split(",") for line in (sim / "gnss.csv").read_text().splitlines()[1:8]]
        rows[5][0] = "5.5"
        rows[6][2] = repr(float(rows[6][2]) + 0.01)
        lines = ["t,lat_deg,lon_deg,alt_m", *(",".join(row) for row in rows)]
        (sim / "gnss.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "fused"
        assert run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                    "--truth", sim / "truth.csv", "--gate", "3", "--out", out]) == 0

        streams = read_imu_csv(sim / "imu.csv"), read_gnss_csv(sim / "gnss.csv")
        updates = run_fusion(*streams, FusionConfig(gnss_gate=3.0)).updates
        assert updates["imu_index"].tolist() == [99, 199, 299, 399, 499, 499]
        assert not updates["accepted"][-1] and updates["nis"][-1] != updates["nis"][-2]
        fixes = [[math.radians(float(c)) for c in row[1:3]] + [float(row[3])] for row in rows]
        origin = GeodeticCoord(*fixes[0])
        later = geodetic_to_enu(*fixes[-1], origin)[0]
        assert np.array_equal(updates["fix"][-1], later)

        estimate = [line.split(",") for line in (out / "estimate.csv").read_text().splitlines()]
        nis = estimate[0].index("nis")
        assert len(estimate) == 1 + 500 and estimate[1][nis] == ""
        assert float(estimate[-1][nis]) == updates["nis"][-1]
        track = (out / "track.csv").read_text().splitlines()
        assert [float(c) for c in track[-1].split(",")[7:10]] == later.tolist()


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

    def test_bytes_that_are_not_utf8(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        junk = tmp_path / "junk"
        junk.write_bytes(bytes(range(128, 256)) * 2 + bytes(44))
        imu, gnss = ["--imu", sim / "imu.csv"], ["--gnss", sim / "gnss.csv"]
        for inputs in (["--imu", junk, *gnss], [*imu, *gnss, "--config", junk]):
            capsys.readouterr()
            code = run(["fuse", *inputs, "--out", tmp_path / "fused"])
            err = capsys.readouterr().err
            assert code == 1
            assert err == f"error: {junk}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_absurd_imu_reading_is_data_error(self, tmp_path, capsys):
        sim = simulate_into(tmp_path)
        clean = (sim / "imu.csv").read_text().splitlines()
        t = [float(line.split(",")[0]) for line in clean[1:]]
        for ax, message in [
            # Finite but absurd: the covariance is indefinite at the next
            # fix, the one at 3 s (sample 300).
            ("1e155", f"error: IMU sample 300 (t = {t[300]!r} s): covariance "),
            # The prediction overflows at the sample itself (row 300 is sample 299).
            ("1e300", f"error: IMU sample 299 (t = {t[299]!r} s): overflow "),
        ]:
            lines = list(clean)
            cells = lines[300].split(",")
            cells[4] = ax
            lines[300] = ",".join(cells)
            (sim / "imu.csv").write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            code = run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                        "--out", tmp_path / "fused"])
            err = capsys.readouterr().err
            assert code == 1
            assert err.count("\n") == 1 and err.startswith(message)
            assert "Traceback" not in err


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
    def test_manifest_settings_are_the_flags(self, tmp_path, kitti_drive):
        # Each config field is read under its setting's name and echoed in
        # the manifest: a field without a flag, or a flag that no field
        # reads, makes the two sets differ.
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        sim = tmp_path / "sim"
        runs = [
            ("simulate", ["--profile", "circular", "--duration", "2", "--seed", "1"], set()),
            ("fuse", ["--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv"], {"gnss_rate"}),
            ("fuse", ["--kitti", kitti_drive], set()),
            ("kitti-convert", ["--kitti", kitti_drive], set()),
        ]
        not_read = {"command", "tool_version", "origin_lat_deg", "origin_lon_deg",
                    "origin_alt_m", "input_imu", "input_gnss", "input_kitti"}
        for k, (command, inputs, unread) in enumerate(runs):
            out = sim if command == "simulate" else tmp_path / str(k)
            assert run([command, *inputs, "--out", out]) == 0
            lines = (out / "manifest").read_text().splitlines()
            read = {line.split("=", 1)[0] for line in lines} - not_read - _NOT_SETTINGS
            flags = {action.dest for action in sub.choices[command]._actions}
            assert read == flags - _NOT_SETTINGS - unread, command

    def test_version_flag(self):
        assert run(["--version"]) == 0

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--profile", "circular", "--duration", "nan", "--seed", "1"],
            ["simulate", "--profile", "circular", "--duration", "0.004", "--seed", "1"],
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
            ["simulate", "--profile", "circular", "--seed", "1", "--config", "duration=abc"],
            ["simulate", "--profile", "circular", "--duration", "5", "--seed", "1",
             "--config", "imu_rate=fast"],
            ["fuse", "--kitti", "KITTI", "--config", "gnss_rate=fast"],
            ["fuse", "--kitti", "KITTI", "--config", "alpha=wide"],
            ["kitti-convert", "--kitti", "KITTI", "--config", "gnss_rate=fast"],
            ["fuse", "--kitti", "KITTI", "--config", "gnss_sgima=5"],
            ["kitti-convert", "--kitti", "KITTI", "--config", "out=elsewhere"],
            ["fuse", "--imu", "imu.csv", "--gnss", "gnss.csv", "--gnss-rate", "5"],
            ["simulate", "--profile", "circular", "--duration", "5", "--seed", "1",
             "--radius", "0"],
            ["simulate", "--profile", "figure-eight", "--duration", "5", "--seed", "1",
             "--radius", "0"],
            ["simulate", "--profile", "circular", "--duration", "5", "--seed", "1",
             "--radius", "nan"],
            ["simulate", "--profile", "circular", "--duration", "5", "--seed", "1",
             "--radius", "inf"],
            ["simulate", "--profile", "circular", "--duration", "5", "--seed", "1",
             "--speed", "inf"],
            ["simulate", "--profile", "straight-constant-accel", "--duration", "5", "--seed",
             "1", "--accel", "nan"],
            ["simulate", "--profile", "straight-constant-accel", "--duration", "5", "--seed",
             "1", "--accel", "inf"],
            ["simulate", "--profile", "figure-eight", "--duration", "5", "--seed", "1",
             "--speed", "0"],
            ["simulate", "--profile", "circular", "--duration", "5",
             "--config", "seed=1\nseed=2"],
            ["simulate", "--profile", "figure-eight", "--duration", "5", "--seed", "1",
             "--speed", "1e200"],
            ["simulate", "--profile", "circular", "--duration", "5", "--seed", "1",
             "--speed", "1e200"],
            ["fuse", "--kitti", "KITTI", "--gyro-std", "1e160"],
            ["fuse", "--kitti", "KITTI", "--accel-std", "1e200"],
            ["fuse", "--kitti", "KITTI", "--gyro-bias-walk", "1e200"],
            ["fuse", "--kitti", "KITTI", "--accel-bias-walk", "1e160"],
            ["fuse", "--kitti", "KITTI", "--gnss-sigma", "1e200"],
            ["simulate", "--profile", "circular", "--duration", "5", "--seed", "1",
             "--gnss-sigma", "1e200"],
            ["fuse", "--kitti", "KITTI", "--init-position-std", "1e200"],
            ["fuse", "--kitti", "KITTI", "--init-velocity-std", "1e200"],
            ["fuse", "--kitti", "KITTI", "--init-attitude-std", "1e200"],
            ["fuse", "--kitti", "KITTI", "--init-gyro-bias-std", "1e200"],
            ["fuse", "--kitti", "KITTI", "--init-accel-bias-std", "1e160"],
            ["fuse", "--kitti", "KITTI", "--alpha", "1e200"],
            ["fuse", "--kitti", "KITTI", "--alpha", "1e154"],
        ],
        ids=["duration-nan", "duration-below-one-sample", "imu-rate-nan", "gyro-std-negative",
             "init-position-std-negative", "gyro-std-nan", "fuse-gnss-rate-zero", "convert-gnss-rate-zero", "alpha-nan",
             "gamma-nan", "alpha-zero", "gate-nan", "gate-negative", "trace-ceiling-nan",
             "config-duration-text", "config-imu-rate-text", "config-fuse-gnss-rate-text",
             "config-alpha-text", "config-convert-gnss-rate-text", "config-unknown-key",
             "config-path-key", "fuse-csv-gnss-rate", "circular-radius-zero",
             "figure-eight-radius-zero", "radius-nan", "radius-inf", "speed-inf", "accel-nan",
             "accel-inf", "figure-eight-speed-zero", "config-key-twice",
             "figure-eight-speed-overflow", "circular-speed-overflow", "gyro-std-overflow",
             "accel-std-overflow", "gyro-bias-walk-overflow", "accel-bias-walk-overflow",
             "gnss-sigma-overflow", "simulate-gnss-sigma-overflow", "init-position-std-overflow",
             "init-velocity-std-overflow", "init-attitude-std-overflow",
             "init-gyro-bias-std-overflow", "init-accel-bias-std-overflow", "alpha-overflow",
             "alpha-kappa-overflow"],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, kitti_drive, capsys, command):
        args = [kitti_drive if arg == "KITTI" else arg for arg in command]
        if "--config" in args:
            # The argument after --config is the file's one key=value line.
            k = args.index("--config") + 1
            key = args[k].split("=")[0]
            (tmp_path / "config").write_text(args[k] + "\n")
            args[k] = tmp_path / "config"
        code = run([*args, "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("usage error: ")
        assert "Traceback" not in err
        if "--config" in args:
            assert repr(key) in err

    def test_config_keys_of_other_commands_accepted(self, tmp_path, kitti_drive):
        # One file serves simulate, fuse and kitti-convert; each command
        # reads its own settings.
        config = tmp_path / "run.cfg"
        config.write_text("seed=3\nduration=5\nprofile=circular\nalpha=0.9\ngnss_rate=1\n")
        assert run(["simulate", "--config", config, "--out", tmp_path / "sim"]) == 0
        assert run(["fuse", "--kitti", kitti_drive, "--config", config,
                    "--out", tmp_path / "fused"]) == 0
        assert run(["kitti-convert", "--kitti", kitti_drive, "--config", config,
                    "--out", tmp_path / "conv"]) == 0
        manifest = (tmp_path / "fused" / "manifest").read_text().splitlines()
        assert "alpha=0.90000000000000002" in manifest
        assert not any(line.startswith(("seed=", "duration=")) for line in manifest)

    def test_gnss_rate_config_key_left_unread_by_csv_fuse(self, tmp_path, kitti_drive):
        # The flag is a usage error without --kitti; the same setting in a
        # config file, which serves every command, changes nothing.
        conv = tmp_path / "conv"
        assert run(["kitti-convert", "--kitti", kitti_drive, "--out", conv]) == 0
        config = tmp_path / "run.cfg"
        config.write_text("gnss_rate=5\n")
        inputs = ["fuse", "--imu", conv / "imu.csv", "--gnss", conv / "gnss.csv"]
        assert run([*inputs, "--out", tmp_path / "plain"]) == 0
        assert run([*inputs, "--config", config, "--out", tmp_path / "configured"]) == 0
        plain, configured = (tmp_path / "plain", tmp_path / "configured")
        assert (configured / "estimate.csv").read_bytes() == (plain / "estimate.csv").read_bytes()
        assert not any(line.startswith("gnss_rate=")
                       for line in (configured / "manifest").read_text().splitlines())

    @pytest.mark.parametrize("sigma, code", [("0", 1), ("-1", 2)])
    def test_bad_gnss_sigma(self, tmp_path, capsys, sigma, code):
        # Zero is a valid noise for the simulator but not for the
        # filter's R; a negative sigma is no noise at all.  The fixes of
        # a gnss.csv carry no sigma of their own, so they all use it.
        sim = simulate_into(tmp_path)
        capsys.readouterr()
        assert run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                    "--gnss-sigma", sigma, "--out", tmp_path / "o"]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "GNSS sigma must be" in err
        assert "sigma_e" not in err

    def test_bad_outage_format(self, tmp_path):
        sim = simulate_into(tmp_path)
        code = run(["fuse", "--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                    "--gnss-outage", "oops", "--out", tmp_path / "o"])
        assert code == 2
