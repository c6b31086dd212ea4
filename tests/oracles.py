"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's own code paths: geodesy values
come from 50-digit mpmath evaluations of the ellipsoid formulas, the
Kalman filter is the closed-form textbook recursion, the fusion
prediction is the sigma-point recursion with every rotation done by
``scipy.spatial.transform.Rotation``, the iterated rotation-vector mean
is the attitude average that the eigenvector mean must match where
``Rotation.mean`` takes no negative weights, and the GNSS update is the
generic UKF of ``navfuse.ukf`` that the closed-form kernel replaces, with the
NIS and gain solved by ``scipy.linalg.cho_solve`` in place of the
library's eigendecomposition inverse, and the same scipy retraction.
The per-point ECEF formula in scalar ``math`` and the per-cell CSV
writers are the forms that the array conversions
(``geodesy.geodetic_to_enu`` and ``geodesy.enu_to_geodetic``) and
``evaluate._write_table`` must reproduce bit for bit and byte for byte;
the writers take a step's NIS and fix by letting each update row
overwrite the one before it at its step.  The whole-file CSV reader is
the one whose rows and errors the streamed ``evaluate._read_table`` must
reproduce.  The per-record KITTI
loader (one ``Path``, one ``float()`` per token and one namedtuple per
OXTS record) is the one whose streams and errors the columnar
``kitti.load_sequence`` must reproduce bit for bit.
"""

import math
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.transform import Rotation

from navfuse.errors import MalformedRecord, MissingTimestamps, NavFuseError, RecordCountMismatch
from navfuse.evaluate import _read_text
from navfuse.geodesy import WGS84
from navfuse.gnss import GnssStream, decimate_indices
from navfuse.kitti import _INT_FIELDS, OXTS_FIELDS, OxtsRecord, parse_timestamp
from navfuse.strapdown import ERROR_DIM, ImuStream
from navfuse.ukf import (
    GaussianBelief,
    check_innovation_eigs,
    cholesky_sqrt,
    unscented_transform,
)

WGS84_A = "6378137.0"
WGS84_B = "6356752.3142"


def hp_normal_radius(lat):
    """Prime-vertical radius at 50-digit precision."""
    with mp.workdps(50):
        a = mp.mpf(WGS84_A)
        b = mp.mpf(WGS84_B)
        e2 = (a**2 - b**2) / a**2
        return float(a / mp.sqrt(1 - e2 * mp.sin(mp.mpf(lat)) ** 2))


def hp_geodetic_to_ecef(lat, lon, height):
    """Ellipsoid-to-Cartesian conversion at 50-digit precision."""
    with mp.workdps(50):
        a = mp.mpf(WGS84_A)
        b = mp.mpf(WGS84_B)
        e2 = (a**2 - b**2) / a**2
        lat, lon, height = mp.mpf(lat), mp.mpf(lon), mp.mpf(height)
        rn = a / mp.sqrt(1 - e2 * mp.sin(lat) ** 2)
        return (
            float((rn + height) * mp.cos(lat) * mp.cos(lon)),
            float((rn + height) * mp.cos(lat) * mp.sin(lon)),
            float((rn * (1 - e2) + height) * mp.sin(lat)),
        )


def reference_ecef(lat, lon, height):
    """ECEF of one geodetic point in scalar ``math``: the per-point formula
    whose bits ``geodesy.geodetic_to_ecef`` reproduces."""
    s = math.sin(lat)
    rn = WGS84.a / math.sqrt(1.0 - WGS84.e2 * s * s)
    cl, sl = math.cos(lat), math.sin(lat)
    co, so = math.cos(lon), math.sin(lon)
    return np.array([
        (rn + height) * cl * co,
        (rn + height) * cl * so,
        (rn * (1.0 - WGS84.e2) + height) * sl,
    ])


def _fmt(value):
    return format(float(value), ".17g")


def reference_step_updates(updates, n):
    """The NIS (n,) and fix (n, 3) that each of ``n`` steps shows: the
    ``updates`` rows are visited in order, a later row at a step
    overwriting an earlier one; NaN at a step without a row."""
    nis = np.full(n, np.nan)
    fix = np.full((n, 3), np.nan)
    for row in updates:
        nis[row["imu_index"]] = row["nis"]
        fix[row["imu_index"]] = row["fix"]
    return nis, fix


def reference_estimates_text(result):
    """``estimate.csv`` of a columnar FusionResult, formatted cell by cell."""
    nis = reference_step_updates(result.updates, len(result.t))[0]
    lines = [
        "t,e,n,u,ve,vn,vu,qw,qx,qy,qz,"
        "var_pe,var_pn,var_pu,var_ve,var_vn,var_vu,var_re,var_rn,var_ru,"
        "var_bgx,var_bgy,var_bgz,var_bax,var_bay,var_baz,nis,diverged"
    ]
    for k in range(len(result.t)):
        cells = [
            _fmt(result.t[k]),
            *(_fmt(v) for v in result.state[k, 0:10]),
            *(_fmt(v) for v in result.cov_diag[k]),
            "" if np.isnan(nis[k]) else _fmt(nis[k]),
            "1" if result.diverged[k] else "0",
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_errors_text(errors):
    """``errors.csv`` of an error track (t, errors (n, 3)), formatted cell
    by cell."""
    t, e = errors
    lines = ["t,ex,ey,ez"]
    for k in range(len(t)):
        lines.append(",".join(_fmt(v) for v in (t[k], *e[k])))
    return "\n".join(lines) + "\n"


def reference_truth_at(t, truth):
    """The positions of the track ``truth`` (t, positions (n, 3)) at the
    times ``t``, one ``np.interp`` per axis."""
    return np.column_stack([np.interp(t, truth[0], truth[1][:, i]) for i in range(3)])


def reference_track_text(t, est, truth, updates):
    """``track.csv`` formatted cell by cell; a row's GNSS cells are the
    fix of :func:`reference_step_updates`, empty where the step has none."""
    gnss = reference_step_updates(updates, len(t))[1]
    lines = ["t,est_e,est_n,est_u,truth_e,truth_n,truth_u,gnss_e,gnss_n,gnss_u"]
    for k in range(len(t)):
        cells = [_fmt(t[k])]
        cells += [_fmt(v) for v in est[k]]
        cells += [_fmt(v) for v in truth[k]]
        if np.isnan(gnss[k]).any():
            cells += ["", "", ""]
        else:
            cells += [_fmt(v) for v in gnss[k]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_rmse_text(reports):
    """``rmse.csv`` of RMSE reports, formatted cell by cell, with an empty
    cell for a NaN."""
    lines = ["method,rmse_x,rmse_y,rmse_z"]
    for r in reports:
        values = (r.rmse_x, r.rmse_y, r.rmse_z)
        lines.append(",".join([r.method, *("" if math.isnan(v) else _fmt(v) for v in values)]))
    return "\n".join(lines) + "\n"


def reference_read_table(path, header, ncols, valid=None):
    """A CSV table decoded and parsed whole: the (n, ncols) rows, or the
    exception class and message, of ``evaluate._read_table``."""
    try:
        lines = Path(path).read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise MalformedRecord(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    if not lines or lines[0] != header:
        raise NavFuseError(f"{path}: expected header {header!r}")
    rows = []
    numbers = []
    for k, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != ncols:
            raise MalformedRecord(f"{path}:{k}: expected {ncols} cells, got {len(cells)}")
        try:
            rows.append(list(map(float, cells)))
        except ValueError:
            raise NavFuseError(f"{path}:{k}: non-numeric row {line!r}") from None
        numbers.append(k)
    table = np.array(rows, dtype=float).reshape(-1, ncols)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        k = numbers[int(np.argmin(finite))]
        raise MalformedRecord(f"{path}:{k}: non-finite cell in {lines[k - 1]!r}")
    if valid is not None:
        ok = valid(table)
        if not ok.all():
            k = numbers[int(np.argmin(ok))]
            raise MalformedRecord(f"{path}:{k}: value out of range in {lines[k - 1]!r}")
    return table


class LinearKalmanFilter:
    """Closed-form linear-Gaussian Kalman filter (textbook form)."""

    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)

    def predict(self, a, q):
        self.mean = a @ self.mean
        self.cov = a @ self.cov @ a.T + q

    def update(self, h, r, y):
        s = h @ self.cov @ h.T + r
        gain = self.cov @ h.T @ np.linalg.inv(s)
        self.mean = self.mean + gain @ (y - h @ self.mean)
        self.cov = self.cov - gain @ s @ gain.T


# Standard gravity (m/s^2), down in ENU.
GRAVITY_ENU = np.array([0.0, 0.0, -9.80665])


def _retract(state, deltas):
    """The nominal state perturbed by 15-dim error(s) (..., 15): additive
    parts add, the attitude becomes q * exp(dtheta)."""
    out = np.empty(deltas.shape[:-1] + (16,))
    out[..., 0:6] = state[0:6] + deltas[..., 0:6]
    nominal = Rotation.from_quat(state[6:10], scalar_first=True)
    out[..., 6:10] = (nominal * Rotation.from_rotvec(deltas[..., 6:9])).as_quat(scalar_first=True)
    out[..., 10:16] = state[10:16] + deltas[..., 9:15]
    return out


def reference_iterated_mean(quats, weights):
    """The iterative rotation-vector mean (Crassidis and Markley 2003) of
    the unit quaternions ``quats`` (m, 4), scalar first, from the
    highest-weight one (tol 1e-9, at most 20 iterations), on scipy
    rotations.  Unlike ``Rotation.mean`` it takes negative weights."""
    attitude = Rotation.from_quat(quats, scalar_first=True)
    ref = attitude[int(np.argmax(weights))]
    for _ in range(20):
        correction = weights @ (ref.inv() * attitude).as_rotvec()
        ref = ref * Rotation.from_rotvec(correction)
        if np.linalg.norm(correction) < 1e-9:
            break
    return ref.as_quat(scalar_first=True)


def reference_predict(state, cov, gyro, accel, dt, params, w_mean, w_cov, q_cov):
    """Sigma-point prediction on scipy rotations: retract the 31 points,
    push each through the strapdown step, take ``Rotation.mean`` (the
    chordal L2 mean, which is the quaternion eigenvector mean) signed into
    the hemisphere of the highest-weight point, take deviations, add the
    dense ``q_cov``.  ``w_mean`` must be non-negative."""
    spread = math.sqrt(params.n + params.kappa) * cholesky_sqrt(cov)
    deltas = np.zeros((2 * ERROR_DIM + 1, ERROR_DIM))
    deltas[1 : ERROR_DIM + 1] = spread.T
    deltas[ERROR_DIM + 1 :] = -spread.T
    points = _retract(state, deltas)
    p, v, bias = points[:, 0:3], points[:, 3:6], points[:, 10:16]
    attitude = Rotation.from_quat(points[:, 6:10], scalar_first=True)

    a_nav = attitude.apply(accel - bias[:, 3:6]) + GRAVITY_ENU
    pv = np.hstack([p + v * dt + 0.5 * a_nav * dt * dt, v + a_nav * dt])
    attitude = attitude * Rotation.from_rotvec((gyro - bias[:, 0:3]) * dt)

    ref = attitude.mean(weights=w_mean)
    mean_q = ref.as_quat(scalar_first=True)
    if mean_q @ attitude[int(np.argmax(w_mean))].as_quat(scalar_first=True) < 0.0:
        mean_q = -mean_q
    mean = np.concatenate([w_mean @ pv, mean_q, w_mean @ bias])
    dev = np.hstack([pv - mean[0:6], (ref.inv() * attitude).as_rotvec(), bias - mean[10:16]])
    new_cov = (dev * w_cov[:, None]).T @ dev + q_cov
    return mean, 0.5 * (new_cov + new_cov.T)


def reference_update(state, cov, y, r_cov, gate, params):
    """GNSS position update through the generic UKF: one transform of the
    stacked columns [delta; h(delta)] of the 31 sigma points of the error
    belief, for h(delta) = p + delta[0:3], the NIS and the
    gain from Cholesky solves with S (``scipy.linalg``), the retraction of
    the posterior error mean, and the update diagnostics.  Returns
    ``(state, cov, fields)`` like ``fusion._update``."""
    belief = GaussianBelief(np.zeros(ERROR_DIM), cov)
    position = state[0:3, None]
    mean, moments = unscented_transform(
        belief.mean, belief.cov, lambda delta: np.vstack([delta, position + delta[0:3]]), params
    )
    s = moments[ERROR_DIM:, ERROR_DIM:] + r_cov
    s = 0.5 * (s + s.T)
    check_innovation_eigs(np.linalg.eigvalsh(s))
    factor = cho_factor(s, lower=True)
    innovation = np.asarray(y, dtype=float) - mean[ERROR_DIM:]
    nis = float(innovation @ cho_solve(factor, innovation))
    accepted = gate is None or nis <= gate
    trace_before = float(np.trace(cov))
    if accepted:
        gain = cho_solve(factor, moments[:ERROR_DIM, ERROR_DIM:].T).T
        cov = cov - gain @ s @ gain.T
        posterior = GaussianBelief(gain @ innovation, 0.5 * (cov + cov.T))
        state = _retract(state, posterior.mean)
        cov = posterior.cov
    fields = (nis, accepted, trace_before, float(np.trace(cov)), innovation,
              float(np.linalg.eigvalsh(cov)[0]))
    return state, cov, fields


def reference_parse_oxts_record(line, context=""):
    """Parse one 30-field OXTS line into an :class:`OxtsRecord`, one
    ``float()`` per token."""
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


def reference_load_sequence(drive_dir, gnss_rate=1.0):
    """Load a KITTI drive into (``ImuStream``, ``GnssStream``), one record
    file read and parsed at a time."""
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
    records = [
        reference_parse_oxts_record(_read_text(path).strip(), path.name) for path in data_files
    ]
    # The drive's columns, one array per field.
    c = OxtsRecord(*np.array(records).T)
    imu = ImuStream(times, np.stack([c.wf, c.wl, c.wu], 1), np.stack([c.af, c.al, c.au], 1))

    k = decimate_indices(times, gnss_rate)
    std = np.where(c.pos_accuracy[k] > 0, c.pos_accuracy[k], np.nan)
    return imu, GnssStream(times[k], np.radians(c.lat[k]), np.radians(c.lon[k]), c.alt[k], std)
