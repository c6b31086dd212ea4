#!/usr/bin/env python3
"""Peak resident memory of ``fuse --truth`` against drive length: a git ref
against the working tree.

    python tools/fuse_rss.py [REF]

``src/navfuse`` at REF (default HEAD) is extracted into a temporary
directory by ``extract`` of ``tools/fuse_pairs.py``.  The circular
drives at seed 42 of 90, 600 and 1800 s are simulated one at a time by
the working tree.  On each drive both sides run ``navfuse fuse --truth`` in a fresh
``perfbench/worker.py`` process, which reports the process's resident
high-water mark (VmHWM).  The script prints the peaks in MB and, per
side, the growth in bytes per IMU step between the 90 s and the 1800 s
drive.

It needs only the standard library and numpy, and nothing in ``src/`` or
``tests/`` imports it.  It runs for several minutes and holds up to
about 0.3 GB of streams and outputs in the temporary directory.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from fuse_pairs import extract

REPO = Path(__file__).resolve().parent.parent
DURATIONS = (90, 600, 1800)


def run(src, command):
    """The stdout of ``command``, run with the navfuse package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(command, env=env, check=True, capture_output=True, text=True).stdout


def peak_kb(src, *argv):
    """The VmHWM in kB of a navfuse command run in perfbench's worker."""
    out = run(src, [sys.executable, str(REPO / "perfbench" / "worker.py"), "--", *argv])
    report = json.loads(out.strip().splitlines()[-1])
    if report["rc"] != 0:
        raise SystemExit(f"navfuse {argv[0]} failed with exit code {report['rc']}")
    return report["peak_rss_kb"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        extract(args.ref, tmp / "ref", "navfuse")
        sides = {args.ref: tmp / "ref", "working tree": REPO / "src"}
        steps, peaks = [], {name: [] for name in sides}
        for duration in DURATIONS:
            sim = tmp / f"sim{duration}"
            run(sides["working tree"], [
                sys.executable, "-c", "from navfuse.cli import entry; entry()", "simulate",
                "--profile", "circular", "--duration", str(duration), "--seed", "42",
                "--out", str(sim),
            ])
            with open(sim / "imu.csv") as imu:
                steps.append(sum(1 for _ in imu) - 1)
            for name, src in sides.items():
                out = tmp / "fused"
                peaks[name].append(peak_kb(
                    src, "fuse", "--imu", str(sim / "imu.csv"), "--gnss", str(sim / "gnss.csv"),
                    "--truth", str(sim / "truth.csv"), "--out", str(out),
                ))
                for path in out.iterdir():
                    path.unlink()
            for path in sim.iterdir():
                path.unlink()

    print("fuse --truth VmHWM (MB), circular drive, seed 42")
    print(f"  {'side':<24}" + "".join(f"{f'{d} s':>10}" for d in DURATIONS) + "   B per step")
    for name, kb in peaks.items():
        slope = 1024 * (kb[-1] - kb[0]) / (steps[-1] - steps[0])
        row = "".join(f"{k / 1024:10.2f}" for k in kb)
        print(f"  {name:<24}{row}   {slope:10.0f}")
    print(f"  IMU steps: {', '.join(map(str, steps))}")


if __name__ == "__main__":
    main()
