#!/usr/bin/env python3
"""The sha256 of every ``simulate``, ``kitti-convert`` and ``fuse`` output
on a set of runs: a git ref against the working tree.

    python tools/fuse_hashes.py [REF]

``src/navfuse`` at REF (default HEAD) is extracted into a temporary
directory by ``extract`` of ``tools/fuse_pairs.py``.  Each side, in its
own processes, simulates the drives of :data:`SIMULATED` at seed 42: the
90 s circular drive (``circ90``), the same drive with a 7.3 m GNSS sigma,
and the 600 s figure-eight with a fix at every 10 Hz IMU sample
(``gnss-dense``).  It also simulates ``every-setting``, a 30 s
figure-eight that sets every ``simulate`` setting away from its default
through a ``--config`` file (:data:`EVERY_SIMULATE_SETTING`).  Each side
also converts the ``kitti-jitter`` drive of
``perfbench/kitti_drive.py`` (seed 1) with ``kitti-convert``.  The script
prints the sha256 of each stream (``imu.csv``, ``gnss.csv``,
``truth.csv``) and ``manifest`` on both sides.  Then each side runs
``navfuse fuse`` on every run of :data:`RUNS`, on the working tree's
streams, and the script prints the sha256 of ``estimate.csv``,
``errors.csv``, ``rmse.csv``, ``track.csv`` and ``manifest`` on both
sides.  The ``fuse`` run of ``every-setting`` sets every ``fuse``
setting away from its default through a ``--config`` file
(:data:`EVERY_FUSE_SETTING`), all but ``gnss_rate``, which only a
``--kitti`` input reads.  A manifest is hashed without its ``input_*``
lines, which name the input paths.

When a stream or a ``fuse`` output differs, :func:`moved_tables`
reports how far it moved, tree against ref.  For each column of
``imu.csv``, ``gnss.csv`` and ``truth.csv``, or of ``estimate.csv``,
``errors.csv`` and ``track.csv``, that moved, it prints the largest
absolute difference, the largest relative one (|ref - tree| over the
larger magnitude of the two cells), and the number of cells that are
empty on one side only; a change in the header or the row count is
printed too.  For a ``fuse`` run, :func:`drift` also prints both sides'
``rmse.csv`` rows and NIS mean over the fixes of ``estimate.csv``, and,
for a run with ``--gate``, the fixes that pass the gate (NIS <= gate) on
each side and how many pass on one side only.  The script exits 1 if a
command fails on either side or any output differs, by however little,
and 0 otherwise.

It needs only the standard library and numpy, and nothing in ``src/`` or
``tests/`` imports it.  It runs for about 40 s on a 2-core machine (the
``every-setting`` runs add about 2 s) and holds about 40 MB of streams
and outputs in the temporary directory.
"""

import argparse
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from fuse_pairs import extract

REPO = Path(__file__).resolve().parent.parent
OUTPUTS = ("estimate.csv", "errors.csv", "rmse.csv", "track.csv", "manifest")
STREAMS = ("imu.csv", "gnss.csv", "truth.csv", "manifest")
SIMULATED = {
    "circ90": ["--profile", "circular", "--duration", "90"],
    "circ90 --gnss-sigma 7.3": ["--profile", "circular", "--duration", "90",
                                "--gnss-sigma", "7.3"],
    "gnss-dense": ["--profile", "figure-eight", "--duration", "600",
                   "--imu-rate", "10", "--gnss-rate", "10"],
}
# Each setting of a command away from its default, written to a config
# file that both sides read.
EVERY_SIMULATE_SETTING = {
    "profile": "figure-eight", "duration": 30, "imu_rate": 50, "gnss_rate": 2, "speed": 4,
    "radius": 25, "accel": 0.5, "seed": 7, "gyro_std": 0.006, "accel_std": 0.08,
    "gyro_bias_rw": 2e-6, "accel_bias_rw": 5e-5, "gnss_sigma": 5,
}
EVERY_FUSE_SETTING = {
    "alpha": 0.5, "beta": 1.5, "gamma": 0.5, "gyro_std": 0.007, "accel_std": 0.09,
    "gyro_bias_rw": 3e-6, "accel_bias_rw": 2e-4, "gnss_sigma": 6, "init_position_std": 8,
    "init_velocity_std": 4, "init_attitude_std": 0.02, "init_gyro_bias_std": 2e-4,
    "init_accel_bias_std": 2e-3, "gate": 16.27, "trace_ceiling": 40,
}
KITTI_SEED = 1
# Name, drive (None for the KITTI fixture, read with --kitti), fuse flags.
RUNS = [
    ("circ90", "circ90", []),
    ("circ90 --gate 3", "circ90", ["--gate", "3"]),
    ("gnss-dense", "gnss-dense", []),
    ("gnss-dense --gate 3", "gnss-dense", ["--gate", "3"]),
    ("circ90 --gnss-outage 20:50", "circ90", ["--gnss-outage", "20:50"]),
    ("circ90 --gnss-outage 0:100", "circ90", ["--gnss-outage", "0:100"]),
    ("circ90 --gnss-outage 20:30 --gnss-outage 50:60", "circ90",
     ["--gnss-outage", "20:30", "--gnss-outage", "50:60"]),
    ("--kitti tests/data/kitti_drive", None, []),
    ("kitti-jitter", "kitti-jitter", ["--gnss-outage", "300:330"]),
    ("every-setting", "every-setting", []),
]


def navfuse(src, *argv):
    """Run a navfuse command with the package under ``src``; return its
    exit code and stderr."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", "from navfuse.cli import entry; entry()", *map(str, argv)],
        env=env, capture_output=True, text=True,
    )
    return done.returncode, done.stderr


def digest(path):
    """The sha256 of the file at ``path`` (a manifest without its
    ``input_*`` lines), or None when there is no such file."""
    if not path.is_file():
        return None
    data = path.read_bytes()
    if path.name == "manifest":
        data = b"".join(
            line for line in data.splitlines(keepends=True) if not line.startswith(b"input_")
        )
    return hashlib.sha256(data).hexdigest()


def compare(hashes, names):
    """Print the sha256 of each output in ``names`` on both sides of
    ``hashes`` ({side: {name: sha256 or None}}); return how many differ."""
    differ = 0
    for output in names:
        ref, tree = hashes["ref"][output], hashes["tree"][output]
        if ref is None and tree is None:
            continue
        same = ref == tree
        differ += not same
        print(f"  {output:<13} ref  {ref}\n  {'':<13} tree {tree}"
              f"  {'same' if same else 'DIFFERS'}")
    return differ


def read_cells(path):
    """The header and the cells (n, k) of a numeric CSV table, NaN for an
    empty cell."""
    header, *lines = path.read_text().splitlines()
    rows = [[float(cell) if cell else math.nan for cell in line.split(",")] for line in lines]
    return header.split(","), np.array(rows).reshape(len(rows), -1)


def column_drift(name, ref, tree):
    """Print how far each column of the numeric table ``name`` moved from
    the file ``ref`` to the file ``tree``; return the header and both
    sides' cells, or None when the headers differ."""
    (ref_head, a), (tree_head, b) = read_cells(ref), read_cells(tree)
    print(f"    {name}")
    if ref_head != tree_head:
        print(f"      header differs\n      ref  {','.join(ref_head)}\n"
              f"      tree {','.join(tree_head)}")
        return None
    n = min(len(a), len(b))
    if len(a) != len(b):
        print(f"      rows: ref {len(a)}, tree {len(b)}; the first {n} compared")
    empty = np.isnan(a[:n]) != np.isnan(b[:n])
    with np.errstate(invalid="ignore"):
        diff = np.nan_to_num(np.abs(a[:n] - b[:n]))
        rel = np.nan_to_num(diff / np.maximum(np.abs(a[:n]), np.abs(b[:n])))
    for k, column in enumerate(ref_head):
        if diff[:, k].any() or empty[:, k].any():
            line = (f"      {column:<10} max |d| {diff[:, k].max():.3g}"
                    f"   max rel {rel[:, k].max():.3g}")
            if empty[:, k].any():
                line += f"   empty on one side only: {int(empty[:, k].sum())} cells"
            print(line)
    return ref_head, a, b


def moved_tables(ref, tree, names):
    """Print how far each numeric table of ``names`` whose bytes differ
    moved from the directory ``ref`` to ``tree``; return {name: the
    result of :func:`column_drift`}."""
    print("  drift, tree against ref:")
    cells = {}
    for name in names:
        a, b = ref / name, tree / name
        if a.is_file() and b.is_file() and a.read_bytes() != b.read_bytes():
            cells[name] = column_drift(name, a, b)
    return cells


def drift(ref, tree, gate):
    """Print how far the differing tables of a ``fuse`` run moved from the
    output directory ``ref`` to ``tree``, the RMSE and NIS summary, and
    the fixes that pass ``gate`` (None for a run without one)."""
    cells = moved_tables(ref, tree, ("estimate.csv", "errors.csv", "track.csv"))
    a, b = ref / "rmse.csv", tree / "rmse.csv"
    if a.is_file() and b.is_file() and a.read_bytes() != b.read_bytes():
        print("    rmse.csv")
        for side, path in (("ref ", a), ("tree", b)):
            for row in path.read_text().splitlines()[1:]:
                print(f"      {side} {row}")
    if cells.get("estimate.csv") is None:
        return
    header, *sides = cells["estimate.csv"]
    nis = [side[:, header.index("nis")] for side in sides]
    means = [f"{fixes.mean():.17g} ({len(fixes)} fixes)" if len(fixes) else "(no fixes)"
             for fixes in (side[~np.isnan(side)] for side in nis)]
    print(f"    NIS mean: ref {means[0]}, tree {means[1]}")
    if gate is not None and len(nis[0]) == len(nis[1]):
        passed = [side <= gate for side in nis]
        print(f"    fixes with NIS <= {gate:g}: ref {int(passed[0].sum())}, "
              f"tree {int(passed[1].sum())}, on one side only "
              f"{int((passed[0] != passed[1]).sum())}")


def write_config(path, settings):
    """Write ``settings`` to ``path`` as a ``key=value`` config file."""
    path.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
    return path


def make_drives(sides, tmp):
    """Simulate and convert the drives with both sides and compare their
    streams; return the number of failures and differences, and the fuse
    inputs of each drive, made by the working tree."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import kitti_drive

    drive = tmp / "kitti-drive"
    kitti_drive.write_drive(KITTI_SEED, drive)
    commands = {name: ["simulate", *shape, "--seed", "42"] for name, shape in SIMULATED.items()}
    commands["every-setting"] = [
        "simulate", "--config", write_config(tmp / "simulate.cfg", EVERY_SIMULATE_SETTING)]
    commands["kitti-jitter"] = ["kitti-convert", "--kitti", drive]
    differ = 0
    for name, command in commands.items():
        print(f"{command[0]} {name}")
        hashes = {}
        for side, src in sides.items():
            out = tmp / side / name
            rc, err = navfuse(src, *command, "--out", out)
            if rc:
                print(f"  {side}: {command[0]} exited {rc}: {err.strip()}")
                differ += 1
            hashes[side] = {stream: digest(out / stream) for stream in STREAMS}
        moved = compare(hashes, STREAMS)
        if moved:
            moved_tables(tmp / "ref" / name, tmp / "tree" / name, STREAMS[:-1])
        differ += moved
    inputs = {}
    for name in (*SIMULATED, "every-setting"):
        sim = tmp / "tree" / name
        inputs[name] = ["--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                        "--truth", sim / "truth.csv"]
    conv = tmp / "tree" / "kitti-jitter"
    noise = kitti_drive.PARAMS
    inputs["kitti-jitter"] = [
        "--imu", conv / "imu.csv", "--gnss", conv / "gnss.csv", "--truth", drive / "truth.csv",
        "--gyro-std", repr(noise["gyro_std"]), "--accel-std", repr(noise["accel_std"]),
    ]
    inputs["every-setting"] += ["--config", write_config(tmp / "fuse.cfg", EVERY_FUSE_SETTING)]
    inputs[None] = ["--kitti", REPO / "tests" / "data" / "kitti_drive"]
    return differ, inputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        extract(args.ref, tmp / "src", "navfuse")
        sides = {"ref": tmp / "src", "tree": REPO / "src"}
        print(f"outputs, sha256: ref {args.ref} against the working tree")
        differ, inputs = make_drives(sides, tmp)
        for k, (name, drive, flags) in enumerate(RUNS):
            print(f"fuse {name}")
            hashes = {}
            outs = {side: tmp / f"out-{side}-{k}" for side in sides}
            for side, src in sides.items():
                rc, err = navfuse(src, "fuse", *inputs[drive], *flags, "--out", outs[side])
                if rc:
                    print(f"  {side}: fuse exited {rc}: {err.strip()}")
                    differ += 1
                hashes[side] = {output: digest(outs[side] / output) for output in OUTPUTS}
            moved = compare(hashes, OUTPUTS)
            if moved:
                gate = float(flags[flags.index("--gate") + 1]) if "--gate" in flags else None
                drift(outs["ref"], outs["tree"], gate)
            differ += moved
            for out in outs.values():
                shutil.rmtree(out, ignore_errors=True)
    print("all outputs identical" if not differ else f"{differ} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
