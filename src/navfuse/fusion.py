"""Loosely-coupled GNSS/IMU fusion loop.

Every IMU sample drives one sigma-point prediction of the 16-component
nominal state with its 15x15 error covariance; every GNSS fix is applied
as a position update at the last IMU timestamp at or before the fix (no
interpolation).  GNSS gaps of any length degrade gracefully to dead
reckoning.  The local frame is anchored at the first valid fix of the
run; position and velocity start at zero in that frame.

The prediction step is one kernel over component-major (component, point)
arrays of the 31 sigma points, with no loop over points, on the column
quaternion functions of :mod:`navfuse.strapdown`.  It takes the sigma
offsets from :func:`navfuse.ukf.sigma_offsets`, and one
:func:`strapdown.quat_exp` call exponentiates the 15 plus-side attitude
offsets and the 31 bias-corrected turns omega * dt; the minus side uses
exp(-r) = conj(exp(r)).  The retraction q0 * exp(dtheta) of all points
is one 4x4 left-multiplication matrix times a (4, 31) array.  The
strapdown step is :func:`strapdown.step` on the 31 columns, the step
that :func:`strapdown.propagate` runs on one state.  The attitude mean
is the iterative rotation-vector average of Crassidis and Markley
(2003), from the highest-weight point, with tol 1e-9 and at most 20
iterations; each iteration forms conj(ref) * q_i as one 4x4 matrix
product and updates ref with scalar ``math``.  The deviations that build
the covariance are taken afresh about the final mean, not reused from
the last iteration, and the process noise is added as a diagonal.

The GNSS update is closed form in error coordinates.  There the fix
is h(delta) = p + delta[0:3], which is affine, and the unscented
transform reproduces the mean and covariance of an affine map exactly
for any alpha, beta and gamma (Wan and van der Merwe 2000; Julier 2002).
So the UKF update of the paper equals the linear Kalman update:
innovation v = y - p, S = P[0:3, 0:3] + R (symmetrized),
K = P[:, 0:3] S^-1, NIS = v^T S^-1 v, and P+ = P - K S K^T
(symmetrized).  The error K v is retracted onto the nominal state as in
the prediction, with q * exp(dtheta) for the attitude.  The checks of
the generic path in :mod:`navfuse.ukf` are kept, each matrix factored
once: the prior and the posterior pass
:func:`navfuse.ukf.validate_cov` (one ``eigvalsh`` each, which also
gives ``UpdateEvent.cov_min_eig``); the prior keeps the jitter-retry
:class:`DecompositionFailure` of :func:`navfuse.ukf.cholesky_sqrt`; S
gets one ``eigh`` that both feeds :func:`navfuse.ukf.check_innovation_eigs`
(:class:`SingularInnovationCov`) and inverts it; and a non-finite S or
v raises ``ValueError``.

A run is one pass over arrays.  Its inputs are an
:class:`navfuse.strapdown.ImuStream` and a :class:`navfuse.gnss.GnssStream`,
columns whose shapes, values and time order were checked when they were
built.  At entry :func:`run_fusion` converts every fix to the local frame
in one :func:`navfuse.geodesy.geodetic_to_enu` call, builds the R of every
anchored fix once, computes the process-noise diagonals of all steps
from the dt array, and anchors each fix to its IMU step with one
``searchsorted``.  The loop then runs only the two kernels and writes one
row per IMU step into preallocated arrays.  The :class:`FusionResult`
is columnar: ``t`` (N), ``state`` (N, 16) as [p, v, q, bg, ba],
``cov_diag`` (N, 15), ``nis`` (N, NaN where no fix was applied) and
``diverged`` (N), plus the frame ``origin``, one :class:`UpdateEvent`
per applied fix, and ``gnss_track``, the fixes in the local frame.  A
track is a pair of arrays (t, positions); ``result.track`` is the
filter's and ``gnss_track`` the GNSS-only baseline.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyImuStream, EmptyStream
from .geodesy import GeodeticCoord, geodetic_to_enu
from .gnss import GnssNoise, measurement_covs
from .strapdown import (
    CONJ,
    ERROR_DIM,
    STATE_DIM,
    TINY,
    ImuNoiseParams,
    process_noise_diag,
    quat_exp,
    quat_identity,
    quat_left,
    quat_log,
    quat_normalized,
    step,
)
from .ukf import (
    SigmaParams,
    check_innovation_eigs,
    cholesky_sqrt,
    compute_weights,
    sigma_offsets,
    validate_cov,
)


# The initial standard deviations of the error blocks [dp, dv, dtheta, dbg, dba].
_INIT_STDS = ("init_position_std", "init_velocity_std", "init_attitude_std",
              "init_gyro_bias_std", "init_accel_bias_std")


@dataclass(frozen=True)
class FusionConfig:
    """Filter tuning: sigma scaling, sensor noise, and initial uncertainty.

    The initial-uncertainty defaults describe a run that starts from a
    completed coarse alignment with an unknown vehicle-scale velocity:
    attitude known to ~0.6 deg, velocity unknown at the few-m/s level,
    and bias priors consistent with the navigation-grade random-walk
    intensities of :class:`ImuNoiseParams`.
    """

    alpha: float = 1.0
    beta: float = 2.0
    gamma: float = 1.0
    imu_noise: ImuNoiseParams = field(default_factory=ImuNoiseParams)
    gnss_noise: GnssNoise = field(default_factory=GnssNoise)
    init_position_std: float = 10.0
    init_velocity_std: float = 3.0
    init_attitude_std: float = 0.01
    init_gyro_bias_std: float = 1e-4
    init_accel_bias_std: float = 1e-3
    gnss_gate: float | None = None
    trace_ceiling: float = 1e9

    def __post_init__(self):
        for name in _INIT_STDS:
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("gnss_gate", "trace_ceiling"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        self.sigma_params()  # raises InvalidScaling

    def initial_covariance(self):
        stds = [getattr(self, name) for name in _INIT_STDS]
        return np.diag(np.repeat(np.square(stds), 3))

    def sigma_params(self):
        return SigmaParams(ERROR_DIM, self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class UpdateEvent:
    """Diagnostics of one GNSS update attempt."""

    t: float
    imu_index: int
    nis: float
    accepted: bool
    trace_before: float
    trace_after: float
    innovation: np.ndarray
    cov_min_eig: float
    cov_asymmetry: float


@dataclass(frozen=True, eq=False)
class FusionResult:
    """Run output as columns over the N IMU timestamps, plus the run
    metadata; the module docstring lists the fields."""

    t: np.ndarray
    state: np.ndarray
    cov_diag: np.ndarray
    nis: np.ndarray
    diverged: np.ndarray
    origin: object
    updates: list
    gnss_track: tuple

    @property
    def track(self):
        """The estimated positions as a track (t, positions (N, 3))."""
        return self.t, self.state[:, 0:3]


# Convergence tolerance and iteration cap of the attitude mean.
_MEAN_TOL = 1e-9
_MEAN_MAX_ITER = 20


def _predict(state, cov, gyro, accel, dt, params, w_mean, w_cov, q_diag):
    """One sigma-point prediction of the nominal state and its error
    covariance over the IMU readings ``gyro`` and ``accel`` (3,), as the
    module docstring describes; ``q_diag`` is the diagonal of the additive
    process noise."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = ERROR_DIM
    m = 2 * n + 1
    offsets = sigma_offsets(cov, params)
    pv = state[0:6, None] + offsets[0:6]
    bias = state[10:16, None] + offsets[9:15]

    # One exp call covers the n plus-side attitude offsets and the m
    # bias-corrected turns omega * dt.
    rotvecs = np.empty((3, n + m))
    rotvecs[:, :n] = offsets[6:9, 1 : n + 1]
    np.multiply(gyro[:, None] - bias[0:3], dt, out=rotvecs[:, n:])
    exps = quat_exp(rotvecs)

    # Retraction q0 * exp(dtheta); exp(-r) = conj(exp(r)) gives the minus half.
    rot = np.empty((4, m))
    rot[:, 0] = (1.0, 0.0, 0.0, 0.0)
    rot[:, 1 : n + 1] = exps[:, :n]
    rot[:, n + 1 :] = exps[:, :n] * CONJ[:, None]
    q = quat_normalized(quat_left(*state[6:10]) @ rot)

    p, v, q = step(pv[0:3], pv[3:6], q, accel[:, None] - bias[3:6], exps[:, n:], dt)
    pv = np.concatenate([p, v])

    # Mean: linear parts by weight, attitude by iterative rotation-vector
    # averaging from the highest-weight point.
    mean = np.empty(STATE_DIM)
    mean[0:6] = pv @ w_mean
    mean[10:16] = bias @ w_mean
    rw, rx, ry, rz = q[:, w_mean.argmax()].tolist()
    for _ in range(_MEAN_MAX_ITER):
        cx, cy, cz = (quat_log(quat_left(rw, -rx, -ry, -rz) @ q) @ w_mean).tolist()
        angle = math.sqrt(cx * cx + cy * cy + cz * cz)
        ew = math.cos(angle / 2.0)
        s = math.sin(angle / 2.0) / max(angle, TINY)
        ex, ey, ez = cx * s, cy * s, cz * s
        rw, rx, ry, rz = (
            rw * ew - rx * ex - ry * ey - rz * ez,
            rw * ex + rx * ew + ry * ez - rz * ey,
            rw * ey - rx * ez + ry * ew + rz * ex,
            rw * ez + rx * ey - ry * ex + rz * ew,
        )
        norm = math.sqrt(rw * rw + rx * rx + ry * ry + rz * rz)
        rw, rx, ry, rz = rw / norm, rx / norm, ry / norm, rz / norm
        if angle < _MEAN_TOL:
            break
    mean[6:10] = (rw, rx, ry, rz)

    # Deviations about the final mean, then the weighted outer products.
    dev = np.empty((n, m))
    dev[0:6] = pv - mean[0:6, None]
    dev[6:9] = quat_log(quat_left(rw, -rx, -ry, -rz) @ q)
    dev[9:15] = bias - mean[10:16, None]
    new_cov = (dev * w_cov) @ dev.T
    new_cov.flat[:: n + 1] += q_diag
    return mean, 0.5 * (new_cov + new_cov.T)


def _update(state, cov, y, r_cov, gate):
    """One GNSS position update in closed form, as the module docstring
    describes: ``y`` is the fix in the local frame and ``r_cov`` its 3x3
    noise covariance; ``gate`` (or None) bounds the accepted NIS.

    Returns the posterior state and covariance (the prior ones when the
    gate rejects the fix) and the :class:`UpdateEvent` fields other than
    ``t`` and ``imu_index``.
    """
    asym, min_eig = validate_cov(cov)
    cholesky_sqrt(cov)  # for its DecompositionFailure; the factor is not needed
    s = cov[0:3, 0:3] + r_cov
    s = 0.5 * (s + s.T)
    if not np.isfinite(s).all():
        raise ValueError("innovation covariance is not finite")
    s_eigs, s_vecs = np.linalg.eigh(s)
    check_innovation_eigs(s_eigs)
    v = y - state[0:3]
    if not np.isfinite(v).all():
        raise ValueError("innovation is not finite")
    s_inv = (s_vecs / s_eigs) @ s_vecs.T
    nis = float(v @ s_inv @ v)
    accepted = gate is None or nis <= gate
    trace_before = float(np.trace(cov))
    if accepted:
        gain = cov[:, 0:3] @ s_inv
        cov = cov - gain @ s @ gain.T
        cov = 0.5 * (cov + cov.T)
        asym, min_eig = validate_cov(cov)
        dx = gain @ v
        new = np.empty(STATE_DIM)
        new[0:6] = state[0:6] + dx[0:6]
        new[6:10] = quat_normalized(quat_left(*state[6:10]) @ quat_exp(dx[6:9, None]))[:, 0]
        new[10:16] = state[10:16] + dx[9:15]
        state = new
    event = dict(
        nis=nis,
        accepted=accepted,
        trace_before=trace_before,
        trace_after=float(np.trace(cov)),
        innovation=v,
        cov_min_eig=min_eig,
        cov_asymmetry=asym,
    )
    return state, cov, event


def run_fusion(imu, gnss, cfg):
    """Run the filter over an :class:`ImuStream` and a
    :class:`GnssStream`.

    Returns a columnar :class:`FusionResult` with one row per IMU sample,
    timestamped exactly at the IMU times.  Covariance growth past
    ``cfg.trace_ceiling`` flags rows as diverged instead of raising.
    """
    if not len(imu):
        raise EmptyImuStream("at least one IMU sample is required")
    t = imu.t
    origin = GeodeticCoord(gnss.lat[0], gnss.lon[0], gnss.alt[0]) if len(gnss) else None
    gnss_track = run_gnss_only(gnss, origin) if len(gnss) else (np.empty(0), np.empty((0, 3)))
    fix_t, fix_enu = gnss_track

    # Fixes before the first IMU sample have no step to anchor to; as the
    # fix times do not decrease, the anchored ones are a suffix.
    anchor = np.searchsorted(t, fix_t, side="right") - 1
    first = int(np.count_nonzero(anchor < 0))
    r_covs = measurement_covs(gnss.std[first:], cfg.gnss_noise)
    anchor = anchor.tolist()

    dts = np.diff(t)
    q_diags = process_noise_diag(cfg.imu_noise, dts)
    dts = dts.tolist()
    params = cfg.sigma_params()
    w_mean, w_cov = compute_weights(params)
    state = np.concatenate([np.zeros(6), quat_identity(), np.zeros(6)])
    cov = cfg.initial_covariance()

    n = len(imu)
    states = np.empty((n, STATE_DIM))
    cov_diag = np.empty((n, ERROR_DIM))
    nis = np.full(n, np.nan)
    updates = []
    j = first
    for i, (gyro, accel) in enumerate(zip(imu.gyro, imu.accel)):
        if i > 0:
            state, cov = _predict(
                state, cov, gyro, accel, dts[i - 1], params, w_mean, w_cov, q_diags[i - 1]
            )
        while j < len(fix_t) and anchor[j] == i:
            state, cov, event = _update(state, cov, fix_enu[j], r_covs[j - first], cfg.gnss_gate)
            nis[i] = event["nis"]
            updates.append(UpdateEvent(t=float(t[i]), imu_index=i, **event))
            j += 1
        states[i] = state
        cov_diag[i] = cov.diagonal()
    diverged = cov_diag.sum(axis=1) > cfg.trace_ceiling
    return FusionResult(t, states, cov_diag, nis, diverged, origin, updates, gnss_track)


def run_gnss_only(gnss, origin):
    """Map the fixes of a :class:`GnssStream` into the local frame anchored
    at the :class:`GeodeticCoord` ``origin`` as a no-filter baseline: the
    track (t, positions (M, 3))."""
    if not len(gnss):
        raise EmptyStream("GNSS stream is empty")
    return gnss.t, geodetic_to_enu(gnss.lat, gnss.lon, gnss.alt, origin)
