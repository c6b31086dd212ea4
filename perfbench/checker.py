"""Checks of a ``navfuse fuse --truth`` output directory.

Every reference value here is computed without navfuse: geodetic to ENU
with :mod:`wgs84`, truth interpolated linearly per axis, RMSE and the
chi-square band with numpy and scipy.  Each check returns a list of
problems; an empty list means it passed.  :func:`mutation_selftest`
shows that the checks flag three broken copies of an ``estimate.csv``:
one shifted 1 m east, one missing a row and one holding a NaN.
"""

import copy
import shutil
from pathlib import Path

import numpy as np
from scipy.stats import chi2

import wgs84

EST_HEADER = (
    "t,e,n,u,ve,vn,vu,qw,qx,qy,qz,"
    "var_pe,var_pn,var_pu,var_ve,var_vn,var_vu,var_re,var_rn,var_ru,"
    "var_bgx,var_bgy,var_bgz,var_bax,var_bay,var_baz,nis,diverged"
)
COL = {name: k for k, name in enumerate(EST_HEADER.split(","))}
RMSE_RTOL = 1e-6
NIS_BAND = 0.999


def read_table(path, header):
    """Numeric table of a CSV with a fixed header; empty cells become NaN."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: header is not {header!r}")
    rows = [[float(c) if c else np.nan for c in line.split(",")] for line in lines[1:] if line]
    width = header.count(",") + 1
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: a row does not have {width} cells")
    return np.array(rows, dtype=float).reshape(len(rows), width)


def read_rmse(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "method,rmse_x,rmse_y,rmse_z":
        raise ValueError(f"{path}: unexpected header")
    return {m: np.array([float(v) for v in rest]) for m, *rest in (l.split(",") for l in lines[1:] if l)}


def _in_windows(t, outages):
    mask = np.zeros(t.shape, dtype=bool)
    for start, end in outages:
        mask |= (t >= start) & (t < end)
    return mask


class FuseRun:
    """The inputs and outputs of one fuse command, loaded for checking."""

    def __init__(self, fused_dir, imu_csv, gnss_csv, truth_csv, outages=()):
        self.dir = Path(fused_dir)
        self.outages = tuple(outages)
        self.imu = read_table(imu_csv, "t,wx,wy,wz,ax,ay,az")
        gnss = read_table(gnss_csv, "t,lat_deg,lon_deg,alt_m")
        self.gnss = gnss[~_in_windows(gnss[:, 0], self.outages)]
        self.truth = read_table(truth_csv, "t,lat_deg,lon_deg,alt_m")
        # navfuse anchors its ENU frame at the first fix it is given.
        self.origin = tuple(self.gnss[0, 1:4])
        self.truth_enu = wgs84.geodetic_to_enu(*self.truth[:, 1:4].T, self.origin)
        self.est = read_table(self.dir / "estimate.csv", EST_HEADER)

    def with_output(self, fused_dir):
        """The same inputs with the outputs in ``fused_dir``."""
        other = copy.copy(self)
        other.dir = Path(fused_dir)
        other.est = read_table(other.dir / "estimate.csv", EST_HEADER)
        return other

    def truth_at(self, t):
        tt = self.truth[:, 0]
        if t.min() < tt[0] - 1e-9 or t.max() > tt[-1] + 1e-9:
            raise ValueError("timestamps outside the truth span")
        return np.column_stack([np.interp(t, tt, self.truth_enu[:, i]) for i in range(3)])

    def rmse(self):
        """Per-axis RMSE of the fused track and of the GNSS fixes."""
        est = self.est
        fused = est[:, 1:4] - self.truth_at(est[:, 0])
        fixes = wgs84.geodetic_to_enu(*self.gnss[:, 1:4].T, self.origin)
        raw = fixes - self.truth_at(self.gnss[:, 0])
        return {
            "GNSS-IMU": np.sqrt(np.mean(fused**2, axis=0)),
            "GNSS": np.sqrt(np.mean(raw**2, axis=0)),
        }


def check_estimates(run):
    """One finite, healthy row per IMU sample, at exactly its timestamp."""
    est, problems = run.est, []
    if est.shape[0] != run.imu.shape[0]:
        return [f"{est.shape[0]} estimate rows for {run.imu.shape[0]} IMU samples"]
    if not np.array_equal(est[:, 0], run.imu[:, 0]):
        problems.append("estimate timestamps differ from the IMU timestamps")
    body = np.delete(est, COL["nis"], axis=1)
    if not np.isfinite(body).all():
        problems.append(f"{int((~np.isfinite(body).any(axis=1)).sum())} rows hold a non-finite value")
    nis = est[:, COL["nis"]]
    if np.isinf(nis).any() or (nis < 0).any():
        problems.append("a NIS value is infinite or negative")
    var = est[:, COL["var_pe"] : COL["var_baz"] + 1]
    if (var < -1e-9).any():
        problems.append(f"variance down to {np.nanmin(var):.3e}")
    qnorm = np.linalg.norm(est[:, COL["qw"] : COL["qz"] + 1], axis=1)
    if not (np.abs(qnorm - 1.0) <= 1e-9).all():
        problems.append("a quaternion norm is not within 1e-9 of 1")
    if (est[:, COL["diverged"]] != 0).any():
        problems.append("a row is flagged diverged")
    return problems


def check_rmse(run):
    """rmse.csv matches the RMSE recomputed from estimate.csv and truth.csv."""
    reported = read_rmse(run.dir / "rmse.csv")
    problems = []
    for method, ours in run.rmse().items():
        theirs = reported.get(method)
        if theirs is None:
            problems.append(f"rmse.csv has no {method} row")
        elif not np.allclose(theirs, ours, rtol=RMSE_RTOL, atol=1e-9):
            problems.append(f"{method} RMSE {theirs} != recomputed {ours}")
    return problems


def horizontal(rmse_xyz):
    return float(np.hypot(rmse_xyz[0], rmse_xyz[1]))


def check_fused_beats_gnss(run, at_most_half):
    """Fused horizontal RMSE below the GNSS-only one (and at most half of it)."""
    r = run.rmse()
    fused, raw = horizontal(r["GNSS-IMU"]), horizontal(r["GNSS"])
    problems = []
    if not fused < raw:
        problems.append(f"fused horizontal RMSE {fused:.3f} m not below GNSS-only {raw:.3f} m")
    if at_most_half and not fused <= 0.5 * raw:
        problems.append(f"fused horizontal RMSE {fused:.3f} m above half of GNSS-only {raw:.3f} m")
    return problems


def check_nis_band(run):
    """Mean NIS inside the two-sided 99.9 % chi-square band for 3-dim fixes."""
    nis = run.est[:, COL["nis"]]
    nis = nis[~np.isnan(nis)]
    n = nis.size
    if n == 0:
        return ["no update carries a NIS"]
    lo, hi = chi2.ppf([(1 - NIS_BAND) / 2, (1 + NIS_BAND) / 2], 3 * n) / n
    mean = float(nis.mean())
    return [] if lo <= mean <= hi else [f"mean NIS {mean:.3f} over {n} outside [{lo:.3f}, {hi:.3f}]"]


def check_outage(run):
    """Inside each GNSS-denied window: no NIS, position variances never fall."""
    problems = []
    for start, end in run.outages:
        rows = run.est[(run.est[:, 0] >= start) & (run.est[:, 0] < end)]
        if rows.shape[0] < 2:
            problems.append(f"outage {start}:{end} covers {rows.shape[0]} rows")
            continue
        if not np.isnan(rows[:, COL["nis"]]).all():
            problems.append(f"a row inside outage {start}:{end} carries a NIS")
        var = rows[:, COL["var_pe"] : COL["var_pu"] + 1]
        if (np.diff(var, axis=0) < 0).any():
            problems.append(f"a position variance decreases inside outage {start}:{end}")
    return problems


def check_channels(imu_csv, channels):
    """navfuse's imu.csv reproduces the generator's timestamps and channels."""
    imu = read_table(imu_csv, "t,wx,wy,wz,ax,ay,az")
    if imu.shape != channels.shape:
        return [f"imu.csv is {imu.shape}, the drive {channels.shape}"]
    problems = []
    if np.abs(imu[:, 0] - channels[:, 0]).max() > 1e-9:
        problems.append("IMU timestamps differ from the drive's by more than 1 ns")
    if not np.array_equal(imu[:, 1:], channels[:, 1:]):
        problems.append("IMU channels differ from the drive's")
    return problems


def mutation_selftest(run, scratch):
    """Broken copies of ``run``'s estimate.csv, each mapped to the problems
    of a checker that fails to flag it."""
    lines = (run.dir / "estimate.csv").read_text().splitlines()
    mid = len(lines) // 2
    # Every row shifts, so the RMSE moves by far more than rounding.
    shifted = [lines[0]]
    for line in lines[1:]:
        row = line.split(",")
        row[COL["e"]] = repr(float(row[COL["e"]]) + 1.0)
        shifted.append(",".join(row))
    nan = lines[mid].split(",")
    nan[COL["u"]] = "nan"
    broken = {
        "east-shift": shifted,
        "missing-row": lines[:mid] + lines[mid + 1 :],
        "nan": lines[:mid] + [",".join(nan)] + lines[mid + 1 :],
    }
    results = {}
    for name, content in broken.items():
        d = Path(scratch) / name
        d.mkdir(parents=True, exist_ok=True)
        (d / "estimate.csv").write_text("\n".join(content) + "\n")
        shutil.copy(run.dir / "rmse.csv", d / "rmse.csv")
        mutant = run.with_output(d)
        flagged = check_estimates(mutant) or check_rmse(mutant)
        results[name] = [] if flagged else [f"the checker passed an estimate.csv with a {name}"]
    return results

