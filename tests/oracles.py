"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's own code paths: geodesy values
come from 50-digit mpmath evaluations of the ellipsoid formulas, the
Kalman filter is the closed-form textbook recursion, the fusion
prediction is the sigma-point recursion with every rotation done by
``scipy.spatial.transform.Rotation``, and the GNSS update is the generic
UKF of ``navfuse.ukf`` that the closed-form kernel replaces, with the
same scipy retraction.  The per-point ECEF formula in scalar ``math``
and the per-cell CSV writers are the forms that the array conversions
(``geodesy.geodetic_to_enu`` and ``geodesy.enu_to_geodetic``) and
``evaluate._write_table`` must reproduce bit for bit and byte for byte.
"""

import math

import mpmath as mp
import numpy as np
from scipy.spatial.transform import Rotation

from navfuse.geodesy import WGS84
from navfuse.strapdown import ERROR_DIM
from navfuse.ukf import (
    GaussianBelief,
    apply_measurement,
    cholesky_sqrt,
    innovation_nis,
    unscented_measurement,
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


def reference_estimates_text(result):
    """``estimate.csv`` of a columnar FusionResult, formatted cell by cell."""
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
            "" if np.isnan(result.nis[k]) else _fmt(result.nis[k]),
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


def reference_track_text(t, est, truth, gnss):
    """``track.csv`` formatted cell by cell, with empty GNSS cells where a
    row's GNSS position is NaN."""
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


def reference_predict(state, cov, gyro, accel, dt, params, w_mean, w_cov, q_cov):
    """Sigma-point prediction on scipy rotations: retract the 31 points,
    push each through the strapdown step, take the iterative
    rotation-vector mean (tol 1e-9, at most 20 iterations) from the
    highest-weight point, take deviations, add the dense ``q_cov``."""
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

    ref = attitude[int(np.argmax(w_mean))]
    for _ in range(20):
        correction = w_mean @ (ref.inv() * attitude).as_rotvec()
        ref = ref * Rotation.from_rotvec(correction)
        if np.linalg.norm(correction) < 1e-9:
            break
    mean = np.concatenate([w_mean @ pv, ref.as_quat(scalar_first=True), w_mean @ bias])
    dev = np.hstack([pv - mean[0:6], (ref.inv() * attitude).as_rotvec(), bias - mean[10:16]])
    new_cov = (dev * w_cov[:, None]).T @ dev + q_cov
    return mean, 0.5 * (new_cov + new_cov.T)


def reference_update(state, cov, y, r_cov, gate, params):
    """GNSS position update through the generic UKF: 31 sigma points of the
    error belief pushed through h(delta) = p + delta[0:3], the Cholesky-
    solved gain, the retraction of the posterior error mean, and the
    update diagnostics.  Returns ``(state, cov, fields)`` like
    ``fusion._update``."""
    belief = GaussianBelief(np.zeros(ERROR_DIM), cov)
    position = state[0:3]
    prediction = unscented_measurement(
        belief, lambda delta: position + delta[0:3], r_cov, params
    )
    nis = innovation_nis(prediction, y)
    accepted = gate is None or nis <= gate
    trace_before = float(np.trace(cov))
    if accepted:
        posterior, innovation = apply_measurement(belief, prediction, y)
        state = _retract(state, posterior.mean)
        cov = posterior.cov
    else:
        innovation = y - prediction.mean
    fields = dict(
        nis=nis,
        accepted=accepted,
        trace_before=trace_before,
        trace_after=float(np.trace(cov)),
        innovation=innovation,
        cov_min_eig=float(np.linalg.eigvalsh(cov)[0]),
        cov_asymmetry=float(np.max(np.abs(cov - cov.T))),
    )
    return state, cov, fields
