#!/usr/bin/env python3
"""The sha256 of every ``fuse`` output on a set of runs: a git ref against
the working tree.

    python tools/fuse_hashes.py [REF]

``src/navfuse`` at REF (default HEAD) is extracted into a temporary
directory by ``extract`` of ``tools/fuse_pairs.py``.  The working tree
simulates the drives once: the 90 s circular drive (``circ90``) and the
600 s figure-eight with a fix at every 10 Hz IMU sample
(``gnss-dense``), both at seed 42, and converts the ``kitti-jitter``
drive of ``perfbench/kitti_drive.py`` (seed 1) with ``kitti-convert``.
Each side then runs ``navfuse fuse`` in its own process on every run of
:data:`RUNS`, and the script prints the sha256 of ``estimate.csv``,
``errors.csv``, ``rmse.csv``, ``track.csv`` and ``manifest`` on both
sides.  A manifest is hashed without its ``input_*`` lines, which name
the input paths.  The script exits 1 if a run fails on either side or
any output differs, and 0 otherwise.

It needs only the standard library and numpy, and nothing in ``src/`` or
``tests/`` imports it.  It runs for a few minutes and holds about 40 MB
of streams and outputs in the temporary directory.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from fuse_pairs import extract

REPO = Path(__file__).resolve().parent.parent
OUTPUTS = ("estimate.csv", "errors.csv", "rmse.csv", "track.csv", "manifest")
SIMULATED = {
    "circ90": ["--profile", "circular", "--duration", "90"],
    "gnss-dense": ["--profile", "figure-eight", "--duration", "600",
                   "--imu-rate", "10", "--gnss-rate", "10"],
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
    ("fuse --kitti tests/data/kitti_drive", None, []),
    ("kitti-jitter", "kitti-jitter", ["--gnss-outage", "300:330"]),
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


def make_drives(tree, tmp):
    """Simulate and convert the drives with the working tree; return the
    fuse inputs of each drive."""
    inputs = {}
    for name, shape in SIMULATED.items():
        sim = tmp / name
        rc, err = navfuse(tree, "simulate", *shape, "--seed", "42", "--out", sim)
        if rc:
            raise SystemExit(f"simulate {name} failed: {err}")
        inputs[name] = ["--imu", sim / "imu.csv", "--gnss", sim / "gnss.csv",
                        "--truth", sim / "truth.csv"]
    sys.path.insert(0, str(REPO / "perfbench"))
    import kitti_drive

    drive, conv = tmp / "kitti-drive", tmp / "kitti-conv"
    kitti_drive.write_drive(KITTI_SEED, drive)
    rc, err = navfuse(tree, "kitti-convert", "--kitti", drive, "--out", conv)
    if rc:
        raise SystemExit(f"kitti-convert failed: {err}")
    noise = kitti_drive.PARAMS
    inputs["kitti-jitter"] = [
        "--imu", conv / "imu.csv", "--gnss", conv / "gnss.csv", "--truth", drive / "truth.csv",
        "--gyro-std", repr(noise["gyro_std"]), "--accel-std", repr(noise["accel_std"]),
    ]
    inputs[None] = ["--kitti", REPO / "tests" / "data" / "kitti_drive"]
    return inputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD")
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        extract(args.ref, tmp / "ref", "navfuse")
        sides = {"ref": tmp / "ref", "tree": REPO / "src"}
        inputs = make_drives(sides["tree"], tmp)
        print(f"fuse outputs, sha256: ref {args.ref} against the working tree")
        for k, (name, drive, flags) in enumerate(RUNS):
            print(name)
            hashes = {}
            for side, src in sides.items():
                out = tmp / f"out-{side}-{k}"
                rc, err = navfuse(src, "fuse", *inputs[drive], *flags, "--out", out)
                if rc:
                    print(f"  {side}: fuse exited {rc}: {err.strip()}")
                    differ += 1
                hashes[side] = {output: digest(out / output) for output in OUTPUTS}
                shutil.rmtree(out, ignore_errors=True)
            for output in OUTPUTS:
                ref, tree = hashes["ref"][output], hashes["tree"][output]
                if ref is None and tree is None:
                    continue
                same = ref == tree
                differ += not same
                print(f"  {output:<13} ref  {ref}\n  {'':<13} tree {tree}"
                      f"  {'same' if same else 'DIFFERS'}")
    print("all outputs identical" if not differ else f"{differ} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
