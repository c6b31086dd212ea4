#!/usr/bin/env python3
"""Alternating in-process timing pairs of ``run_fusion``: a git ref against
the working tree.

    python tools/fuse_pairs.py [REF]

``src/navfuse`` at REF (default HEAD) is extracted with ``git archive``
into a temporary directory as the package ``navfuse_ref`` and imported
beside the working tree's ``navfuse``.  Both run ``run_fusion`` on the
two drives of :func:`cases`, simulated at seed 42 by the working tree:
the first 10 s of the 90 s circular drive (1001 IMU samples, 11 fixes),
where nearly all the time is the prediction, and the first 100 s of the
600 s ``gnss-dense`` figure-eight with 10 Hz IMU and GNSS (1001 IMU
samples, 1001 fixes), where a GNSS update follows every prediction.  For
each drive, after one untimed run of each side, each of 40 pairs times
one run of each side, the side that goes first alternating from pair to
pair.  The script prints, drive by drive, each side's median and
quartiles, the pairs the working tree won, and whether the array fields
that both sides' ``FusionResult`` have are bit-identical (a record array
in the fields that both sides have), naming those that are not.

It needs only the standard library and numpy, and nothing in ``src/`` or
``tests/`` imports it.
"""

import argparse
import dataclasses
import gc
import importlib
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
STEPS = 1000
PAIRS = 40


def extract(ref, dest, package):
    """Extract ``src/navfuse`` at ``ref`` into the directory ``dest`` as the
    package ``package``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", ref, "src/navfuse"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # Extraction filters exist from Python 3.10.12 and 3.11.4 on.
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    (dest / "src" / "navfuse").rename(dest / package)


def rebuild(stream, cls):
    """``stream`` as an instance of the other package's stream class."""
    return cls(*(getattr(stream, f.name) for f in dataclasses.fields(stream)))


def same_bits(a, b):
    """Whether the arrays ``a`` and ``b`` have the same dtype, shape and
    bytes; two record arrays, in each field that both have."""
    if a.dtype.names and b.dtype.names:
        return all(same_bits(a[name], b[name]) for name in a.dtype.names if name in b.dtype.names)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def quartiles(values):
    return np.percentile(values, [25, 50, 75])


def cases():
    """The timed drives as (label, ImuStream, GnssStream): the first
    :data:`STEPS` IMU steps of each, and the fixes up to its last sample."""
    from navfuse.simulate import SensorCorruption, TrajectoryProfile, corrupt, generate_truth

    drives = (
        ("circ90, first 10 s", TrajectoryProfile("circular", duration=90.0)),
        ("gnss-dense, first 100 s", TrajectoryProfile("figure-eight", duration=600.0,
                                                      imu_rate=10.0, gnss_rate=10.0)),
    )
    for label, profile in drives:
        truth, ideal = generate_truth(profile)
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=profile.gnss_rate)
        imu = imu.take(slice(0, STEPS + 1))
        yield label, imu, gnss.take(gnss.t <= imu.t[-1])


def compare(label, ref, sides):
    """Time the ``sides`` {"ref", "tree"}: (run_fusion, args) in
    :data:`PAIRS` alternating pairs and print the comparison."""
    results = {name: fn(*fn_args) for name, (fn, fn_args) in sides.items()}
    times = {"ref": [], "tree": []}
    for i in range(PAIRS):
        for name in ("ref", "tree") if i % 2 == 0 else ("tree", "ref"):
            fn, fn_args = sides[name]
            gc.collect()
            start = time.perf_counter()
            fn(*fn_args)
            times[name].append(time.perf_counter() - start)

    ref_result, tree_result = results["ref"], results["tree"]
    shared = [f.name for f in dataclasses.fields(ref_result)
              if isinstance(getattr(ref_result, f.name), np.ndarray)
              and isinstance(getattr(tree_result, f.name, None), np.ndarray)]
    differing = [name for name in shared
                 if not same_bits(getattr(ref_result, name), getattr(tree_result, name))]
    ref_q, tree_q = quartiles(times["ref"]), quartiles(times["tree"])
    wins = sum(t < r for r, t in zip(times["ref"], times["tree"]))
    fixes = len(tree_result.updates)
    print(f"run_fusion on {label}: {STEPS} IMU steps, {fixes} fixes, "
          f"{PAIRS} alternating pairs (ms per run)")
    for side, q in ((f"ref {ref}", ref_q), ("working tree", tree_q)):
        print(f"  {side:<24} median {1e3 * q[1]:8.2f}   quartiles {1e3 * q[0]:8.2f} .. "
              f"{1e3 * q[2]:8.2f}   ({1e6 * q[1] / STEPS:.1f} us/step)")
    print(f"  working tree faster in {wins} of {PAIRS} pairs")
    change = tree_q[1] - ref_q[1]
    print(f"  median change {1e3 * change:+.2f} ms ({100 * change / ref_q[1]:+.1f} %), "
          f"ref IQR {1e3 * (ref_q[2] - ref_q[0]):.2f} ms")
    print(f"  result fields compared: {', '.join(shared)}")
    print(f"  bit-identical: {'yes' if not differing else 'NO, ' + ', '.join(differing)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    import navfuse.fusion as tree_fusion

    with tempfile.TemporaryDirectory() as tmp:
        extract(args.ref, Path(tmp), "navfuse_ref")
        sys.path.insert(0, tmp)
        ref_pkg = importlib.import_module("navfuse_ref")
        ref_fusion = importlib.import_module("navfuse_ref.fusion")
        for label, imu, gnss in cases():
            ref_args = (rebuild(imu, ref_pkg.strapdown.ImuStream),
                        rebuild(gnss, ref_pkg.gnss.GnssStream), ref_fusion.FusionConfig())
            compare(label, args.ref, {
                "ref": (ref_fusion.run_fusion, ref_args),
                "tree": (tree_fusion.run_fusion, (imu, gnss, tree_fusion.FusionConfig())),
            })


if __name__ == "__main__":
    main()
