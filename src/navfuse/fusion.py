"""Loosely-coupled GNSS/IMU fusion loop.

Every IMU sample drives one sigma-point prediction of the 16-component
nominal state with its 15x15 error covariance; every GNSS fix is applied
as a position update at the last IMU timestamp at or before the fix (no
interpolation).  GNSS gaps of any length degrade gracefully to dead
reckoning.  The local frame is anchored at the first valid fix of the
run; position and velocity start at zero in that frame.

The prediction step is :func:`navfuse.ukf.unscented_transform`, the
generic UKF's transform, on (component, point) arrays of the 31 sigma
points with no loop over points.  Its map is :func:`strapdown.propagate`
on the (16, 31) columns; ``plus`` is :func:`_retract`, which adds the
linear offsets and turns the attitude to q * exp(dtheta) by one 4x4
left-multiplication matrix; ``average`` is :func:`_mean`, the linear
parts by weight and the attitude by the eigenvector mean of Markley,
Cheng, Crassidis and Oshman (2007), the top eigenvector of the 4x4
sum_i w_i q_i q_i^T (one ``eigh``, no iteration) in the hemisphere of
the highest-weight point; and ``minus`` is :func:`_deviations`, with the
log map log(conj(mean) * q_i) for the attitude.  The process noise is
added as a diagonal.

The GNSS update is closed form in error coordinates.  There the fix
is h(delta) = p + delta[0:3], which is affine, and the unscented
transform reproduces the mean and covariance of an affine map exactly
for any alpha, beta and gamma (Wan and van der Merwe 2000; Julier 2002).
So the UKF update of the paper equals the linear Kalman update, and
:func:`navfuse.ukf.kalman_correct`, the correction of the generic path,
applies it with v = y - p, the cross covariance P[:, 0:3] and
HPH^T = P[0:3, 0:3]; there S = P[0:3, 0:3] + R (symmetrized) is formed,
a non-finite S or v raises :class:`InvalidCovariance`, and the ``eigh``
of S feeds :class:`SingularInnovationCov`.  A fix that the gate rejects
keeps the prior.  The error K v is retracted onto the nominal state by
:func:`_retract`, q * exp(dtheta) for the attitude.  An update checks
only the covariance it leaves, the posterior or, when the gate rejects
the fix, the prior, by one :func:`navfuse.ukf.validate_cov`, whose
``eigvalsh`` also gives ``cov_min_eig``; as K S K^T is PSD, the
posterior's smallest eigenvalue is at most the prior's (Weyl).  The next
prediction's :func:`navfuse.ukf.cholesky_sqrt` factors it.

A run is one pass over arrays, made in chunks of :data:`CHUNK_STEPS`
IMU steps so that the memory it takes beyond its inputs does not grow
with the drive.  Its inputs are an :class:`navfuse.strapdown.ImuStream`
and a :class:`navfuse.gnss.GnssStream`, columns whose shapes, values and
time order were checked when they were built.  At entry
:func:`fuse_chunks` converts every fix to the local frame in one
:func:`navfuse.geodesy.geodetic_to_enu` call.  It then carries the state,
the covariance and the next fix across the chunks.  For each chunk it
anchors the chunk's fixes to their IMU steps with one ``searchsorted``,
builds their R, and computes the process-noise diagonals of the chunk's
steps from its dt array.  The loop runs only the two kernels and writes
one row per IMU step and one per attempted update into the chunk's
arrays, which the chunk's :class:`FusionResult` yields.  A
:class:`navfuse.errors.NavFuseError` raised in it gets the IMU sample
and its time prefixed to its message, and a floating-point overflow or
invalid operation raises :class:`InvalidCovariance` with that prefix.
:func:`run_fusion` concatenates the chunks.  The :class:`FusionResult`
is columnar: ``t`` (N), ``state`` (N, 16) as [p, v, q, bg, ba],
``cov_diag`` (N, 15) and ``diverged`` (N) per IMU step, and ``updates``
(M), one row of :data:`UPDATE_DTYPE` per attempted update, accepted or
not, in fix order: its time and IMU step, the local-frame fix y (3), NIS,
gate decision, the covariance trace before and after, the innovation
y - p (3) and the smallest eigenvalue of the covariance it leaves.  The
rows' steps do not decrease, and several rows can share a step.  The
frame ``origin`` and ``gnss_track``, every fix in the local frame, are the
run's, the same objects in every chunk.  A track is a pair of arrays
(t, positions); ``result.track`` is the filter's and ``gnss_track`` the
GNSS-only baseline.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyStream, InvalidCovariance, NavFuseError
from .geodesy import GeodeticCoord, geodetic_to_enu
from .gnss import GnssNoise, measurement_covs
from .strapdown import (
    CONJ,
    ERROR_DIM,
    STATE_DIM,
    ImuNoiseParams,
    process_noise_diag,
    propagate,
    quat_exp,
    quat_identity,
    quat_left,
    quat_log,
    quat_normalized,
)
from .ukf import (
    SigmaParams,
    kalman_correct,
    unscented_transform,
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
        # initial_covariance squares each.
        for name in _INIT_STDS:
            value = getattr(self, name)
            if not (0 < value and math.isfinite(float(value) * float(value))):
                raise ValueError(f"{name} must be positive with a finite square, got {value}")
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


#: The row of :attr:`FusionResult.updates`: one GNSS update attempt.
UPDATE_DTYPE = np.dtype([
    ("t", "f8"), ("imu_index", "i8"), ("fix", "f8", (3,)), ("nis", "f8"), ("accepted", "?"),
    ("trace_before", "f8"), ("trace_after", "f8"), ("innovation", "f8", (3,)),
    ("cov_min_eig", "f8"),
])


@dataclass(frozen=True, eq=False)
class FusionResult:
    """Run output as columns over the N IMU timestamps, one record for
    each of the M update attempts, and the run metadata; the module
    docstring lists the fields."""

    t: np.ndarray
    state: np.ndarray
    cov_diag: np.ndarray
    diverged: np.ndarray
    origin: object
    updates: np.ndarray
    gnss_track: tuple

    @property
    def track(self):
        """The estimated positions as a track (t, positions (N, 3))."""
        return self.t, self.state[:, 0:3]


def _retract(state, delta):
    """The (16, m) columns of the nominal ``state`` (16,) moved by the error
    columns ``delta`` (15, m): linear parts add, the attitude is q * exp(dtheta)."""
    return np.concatenate([
        state[0:6, None] + delta[0:6],
        quat_normalized(quat_left(*state[6:10].tolist()) @ quat_exp(delta[6:9])),
        state[10:16, None] + delta[9:15],
    ])


def _mean(points, w):
    """Weighted mean (16,) of the state columns ``points`` (16, m): the
    linear parts by weight, the attitude q the unit maximizer of
    sum_i w_i (q . q_i)^2, the top eigenvector of sum_i w_i q_i q_i^T,
    signed so that q . q_i >= 0 for the highest-weight point q_i."""
    q = points[6:10]
    mean_q = np.linalg.eigh((q * w) @ q.T)[1][:, -1]
    if mean_q @ q[:, w.argmax()] < 0.0:
        mean_q = -mean_q
    return np.concatenate([points[0:6] @ w, mean_q, points[10:16] @ w])


def _deviations(points, mean):
    """Error columns (15, m) of the state columns ``points`` (16, m) about
    ``mean`` (16,), the inverse of :func:`_retract`: differences for the
    linear parts, log(conj(mean) * q) for the attitude."""
    return np.concatenate([
        points[0:6] - mean[0:6, None],
        quat_log(quat_left(*(mean[6:10] * CONJ).tolist()) @ points[6:10]),
        points[10:16] - mean[10:16, None],
    ])


def _predict(state, cov, gyro, accel, dt, params, q_diag):
    """One sigma-point prediction of the nominal state and its error
    covariance over the IMU readings ``gyro`` and ``accel`` (3,), as the
    module docstring describes; ``q_diag`` is the diagonal of the additive
    process noise."""
    mean, new_cov = unscented_transform(
        state, cov, lambda x: propagate(x, gyro, accel, dt), params, _retract, _deviations, _mean
    )
    new_cov.flat[:: ERROR_DIM + 1] += q_diag
    return mean, 0.5 * (new_cov + new_cov.T)


def _update(state, cov, y, r_cov, gate):
    """One GNSS position update in closed form, as the module docstring
    describes: ``y`` is the fix in the local frame and ``r_cov`` its 3x3
    noise covariance; ``gate`` (or None) bounds the accepted NIS.

    Returns the posterior state and covariance (the prior ones when the
    gate rejects the fix), checked by one :func:`validate_cov` and left
    for the next :func:`_predict` to factor, and the fields of the
    update's :data:`UPDATE_DTYPE` row from ``nis`` on, as a tuple.
    """
    v = y - state[0:3]
    dx, posterior, nis = kalman_correct(cov, cov[:, 0:3], cov[0:3, 0:3], r_cov, v)
    accepted = gate is None or nis <= gate
    trace_before = float(np.trace(cov))
    if accepted:
        state, cov = _retract(state, dx[:, None])[:, 0], posterior
    return state, cov, (nis, accepted, trace_before, float(np.trace(cov)), v, validate_cov(cov))


#: IMU steps per chunk of :func:`fuse_chunks`, the rows that
#: :mod:`navfuse.evaluate` formats per write.
CHUNK_STEPS = 256


def frame_origin(gnss):
    """The origin of the local frame of a run over the :class:`GnssStream`
    ``gnss``: its first fix, or None when it has none."""
    return GeodeticCoord(gnss.lat[0], gnss.lon[0], gnss.alt[0]) if len(gnss) else None


def fuse_chunks(imu, gnss, cfg):
    """Run the filter over an :class:`ImuStream` and a :class:`GnssStream`,
    yielding the run as a :class:`FusionResult` per :data:`CHUNK_STEPS`
    consecutive IMU samples (the last chunk may be shorter).

    A chunk's columns and ``updates`` are those of its steps; its
    ``origin`` and ``gnss_track`` are the run's.  Concatenated, the chunks
    are :func:`run_fusion`'s result.
    """
    if not len(imu):
        raise EmptyStream("IMU stream is empty")
    t = imu.t
    n = len(imu)
    origin = frame_origin(gnss)
    gnss_track = run_gnss_only(gnss, origin) if len(gnss) else (np.empty(0), np.empty((0, 3)))
    fix_t, fix_enu = gnss_track
    params = cfg.sigma_params()
    state = np.concatenate([np.zeros(6), quat_identity(), np.zeros(6)])
    cov = cfg.initial_covariance()

    # Fixes before the first IMU sample have no step to anchor to; as the
    # fix times do not decrease, the fixes of a chunk's steps follow them.
    j = int(np.searchsorted(fix_t, t[0], side="left"))
    for start in range(0, n, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, n)
        # A fix anchors to the last IMU step at or before it; past the
        # last step, the fixes all anchor to it.
        end = int(np.searchsorted(fix_t, t[stop], side="left")) if stop < n else len(fix_t)
        anchor = (np.searchsorted(t[start:stop], fix_t[j:end], side="right") + start - 1).tolist()
        r_covs = measurement_covs(gnss.std[j:end], cfg.gnss_noise)
        # Step i > 0 predicts over dts[i - 1 - lo].
        lo = max(start - 1, 0)
        dts = np.diff(t[lo:stop])
        q_diags = process_noise_diag(cfg.imu_noise, dts)
        dts = dts.tolist()

        states = np.empty((stop - start, STATE_DIM))
        cov_diag = np.empty((stop - start, ERROR_DIM))
        first = j
        updates = np.empty(end - first, UPDATE_DTYPE)
        try:
            with np.errstate(over="raise", invalid="raise"):
                for i in range(start, stop):
                    if i > 0:
                        state, cov = _predict(state, cov, imu.gyro[i], imu.accel[i],
                                              dts[i - 1 - lo], params, q_diags[i - 1 - lo])
                    while j < end and anchor[j - first] == i:
                        state, cov, fields = _update(
                            state, cov, fix_enu[j], r_covs[j - first], cfg.gnss_gate
                        )
                        updates[j - first] = (t[i], i, fix_enu[j], *fields)
                        j += 1
                    states[i - start] = state
                    cov_diag[i - start] = cov.diagonal()
        except (FloatingPointError, NavFuseError) as exc:
            where = f"IMU sample {i} (t = {float(t[i])!r} s)"
            if isinstance(exc, FloatingPointError):
                raise InvalidCovariance(f"{where}: {exc}") from exc
            exc.args = (f"{where}: {exc}",)
            raise
        diverged = cov_diag.sum(axis=1) > cfg.trace_ceiling
        yield FusionResult(t[start:stop], states, cov_diag, diverged, origin, updates, gnss_track)


def run_fusion(imu, gnss, cfg):
    """Run the filter over an :class:`ImuStream` and a
    :class:`GnssStream`: the chunks of :func:`fuse_chunks`, concatenated.

    Returns a columnar :class:`FusionResult` with one row per IMU sample,
    timestamped exactly at the IMU times.  Covariance growth past
    ``cfg.trace_ceiling`` flags rows as diverged instead of raising.
    """
    chunks = list(fuse_chunks(imu, gnss, cfg))

    def joined(column):
        return np.concatenate([getattr(chunk, column) for chunk in chunks])

    return FusionResult(
        imu.t,
        joined("state"),
        joined("cov_diag"),
        joined("diverged"),
        chunks[0].origin,
        joined("updates"),
        chunks[0].gnss_track,
    )


def run_gnss_only(gnss, origin):
    """Map the fixes of a :class:`GnssStream` into the local frame anchored
    at the :class:`GeodeticCoord` ``origin`` as a no-filter baseline: the
    track (t, positions (M, 3))."""
    if not len(gnss):
        raise EmptyStream("GNSS stream is empty")
    return gnss.t, geodetic_to_enu(gnss.lat, gnss.lon, gnss.alt, origin)
