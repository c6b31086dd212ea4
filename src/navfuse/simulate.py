"""Deterministic trajectory and sensor-stream generation.

Truth kinematics are closed-form per profile.  The ideal IMU stream is
increment-consistent with the fusion loop's zero-order-hold convention
(sample k drives the step from t_{k-1} to t_k): sample k carries the
exact attitude increment over the step divided by dt, and the exact
velocity increment resolved in the start-of-step body frame with the
gravity reaction restored.  This is what an incremental (delta-velocity)
IMU reports, and it makes strapdown re-integration of the ideal stream
reproduce the truth to second order in dt.

Everything is computed on whole arrays (a columnar :class:`Truth`, an
:class:`ImuStream` and a :class:`GnssStream`), each fix mapped to
geodetic in one :func:`navfuse.geodesy.enu_to_geodetic` call.

All randomness comes from numpy's PCG64 generator seeded with the 64-bit
run seed; the draw order is fixed (gyro white noise, accel white noise,
gyro bias steps, accel bias steps, GNSS noise), so identical seeds and
configs yield bit-identical streams.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownProfileKind
from .geodesy import GeodeticCoord, enu_to_geodetic
from .gnss import GnssNoise, GnssStream, decimate_indices
from .strapdown import GRAVITY, ImuNoiseParams, ImuStream

#: Fixed geodetic anchor of simulated scenarios, so generated GNSS data
#: exercises the full geodetic conversion path.
SCENARIO_ORIGIN = GeodeticCoord(math.radians(49.0), math.radians(8.43), 115.0)

PROFILE_KINDS = ("stationary", "straight-constant-accel", "circular", "figure-eight")


@dataclass(frozen=True)
class TrajectoryProfile:
    """Shape and rates of a synthetic run.

    Default kinematics describe a slow desk-scale loop (3 m/s around a
    20 m radius) where the zero-velocity initial filter state is only a
    mild inconsistency.
    """

    kind: str
    duration: float
    imu_rate: float = 100.0
    gnss_rate: float = 1.0
    speed: float = 3.0
    radius: float = 20.0
    accel: float = 1.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise UnknownProfileKind(f"unknown profile kind {self.kind!r}; "
                                     f"expected one of {PROFILE_KINDS}")
        for name in ("speed", "radius", "accel"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.radius == 0 and self.kind in ("circular", "figure-eight"):
            raise ValueError(f"radius must be nonzero for {self.kind}")
        if self.speed == 0 and self.kind == "figure-eight":
            raise ValueError("speed must be nonzero for figure-eight")
        if self.kind in ("circular", "figure-eight"):
            # _kinematics' acceleration speed * w (w the turn rate), and the
            # figure-eight's w**2 and yaw-rate numerator speed**2 * w.
            w = self.speed / self.radius
            peaks = [self.speed * w]
            if self.kind == "figure-eight":
                peaks += [w * w, self.speed * self.speed * w]
            if not all(map(math.isfinite, peaks)):
                raise ValueError(f"{self.kind} speed {self.speed} on radius {self.radius} overflows")
        for name in ("duration", "imu_rate", "gnss_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.imu_rate < self.gnss_rate:
            raise ValueError("imu_rate must be >= gnss_rate")
        # generate_truth makes round(duration * imu_rate) samples.
        if self.duration * self.imu_rate <= 0.5:
            raise ValueError(f"duration {self.duration} s holds no sample at {self.imu_rate} Hz")


@dataclass(frozen=True, eq=False)
class Truth:
    """Ground truth at the IMU times as columns: ``t`` (N,), ENU
    ``position`` and ``velocity`` (N, 3) in the scenario frame, and the
    body-to-ENU ``orientation`` quaternions (N, 4), scalar first."""

    t: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    orientation: np.ndarray


@dataclass(frozen=True)
class SensorCorruption:
    """Noise and bias configuration (no GNSS outage); the seed is
    mandatory and non-negative (a PCG64 seed)."""

    seed: int
    imu: ImuNoiseParams = field(default_factory=ImuNoiseParams)
    gnss: GnssNoise = field(default_factory=GnssNoise)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _kinematics(profile, t):
    """Closed-form planar kinematics at times ``t`` (all zero when stationary).

    Returns (pos (n,3), vel (n,3), acc (n,3), yaw (n,), yaw_rate (n,)).
    """
    n = t.shape[0]
    pos = np.zeros((n, 3))
    vel = np.zeros((n, 3))
    acc = np.zeros((n, 3))
    yaw = np.zeros(n)
    yaw_rate = np.zeros(n)

    if profile.kind == "straight-constant-accel":
        a = profile.accel
        pos[:, 0] = 0.5 * a * t**2
        vel[:, 0] = a * t
        acc[:, 0] = a
    elif profile.kind == "circular":
        r, v = profile.radius, profile.speed
        w = v / r
        pos[:, 0] = r * np.sin(w * t)
        pos[:, 1] = r * (1.0 - np.cos(w * t))
        vel[:, 0] = v * np.cos(w * t)
        vel[:, 1] = v * np.sin(w * t)
        acc[:, 0] = -v * w * np.sin(w * t)
        acc[:, 1] = v * w * np.cos(w * t)
        yaw[:] = w * t
        yaw_rate[:] = w
    elif profile.kind == "figure-eight":
        # 1:2 Lissajous: east amplitude = radius, north amplitude = radius/2,
        # rigidly rotated so the vehicle starts heading east (the raw curve
        # leaves the origin at 45 degrees).
        a_e, a_n = profile.radius, profile.radius / 2.0
        w = profile.speed / profile.radius
        pos[:, 0] = a_e * np.sin(w * t)
        pos[:, 1] = a_n * np.sin(2.0 * w * t)
        vel[:, 0] = a_e * w * np.cos(w * t)
        vel[:, 1] = 2.0 * a_n * w * np.cos(2.0 * w * t)
        acc[:, 0] = -a_e * w**2 * np.sin(w * t)
        acc[:, 1] = -4.0 * a_n * w**2 * np.sin(2.0 * w * t)
        yaw0 = math.atan2(vel[0, 1], vel[0, 0])
        c0, s0 = math.cos(-yaw0), math.sin(-yaw0)
        for arr in (pos, vel, acc):
            east = c0 * arr[:, 0] - s0 * arr[:, 1]
            north = s0 * arr[:, 0] + c0 * arr[:, 1]
            arr[:, 0], arr[:, 1] = east, north
        yaw = np.arctan2(vel[:, 1], vel[:, 0])
        speed2 = vel[:, 0] ** 2 + vel[:, 1] ** 2
        yaw_rate = (vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]) / speed2
    return pos, vel, acc, yaw, yaw_rate


def generate_truth(profile):
    """Generate (:class:`Truth`, ideal :class:`ImuStream`) at the IMU rate.

    The vehicle heads along the track with level attitude (yaw only), so
    the ideal gyro is a pure z rate and the ideal accelerometer reads the
    body-frame specific force including the gravity reaction.  Sample k
    (k >= 1) carries the step increments over [t_{k-1}, t_k]: gyro =
    wrapped yaw change / dt, accel = velocity change / dt minus gravity,
    resolved in the body frame at t_{k-1}.  Sample 0 carries the
    instantaneous values at t = 0 (the fusion loop never integrates it).
    """
    dt = 1.0 / profile.imu_rate
    n = int(round(profile.duration * profile.imu_rate))
    t = np.arange(n) * dt

    pos, vel, acc, yaw, yaw_rate = _kinematics(profile, t)
    zero = np.zeros(n)
    truth = Truth(t, pos, vel, np.column_stack([np.cos(yaw / 2.0), zero, zero, np.sin(yaw / 2.0)]))

    rate_z = np.empty(n)
    rate_z[0] = yaw_rate[0]
    dyaw = np.diff(yaw)
    rate_z[1:] = (np.mod(dyaw + np.pi, 2.0 * np.pi) - np.pi) / dt

    a_nav = np.empty((n, 3))
    a_nav[0] = acc[0]
    a_nav[1:] = np.diff(vel, axis=0) / dt
    yaw_ref = np.empty(n)
    yaw_ref[0] = yaw[0]
    yaw_ref[1:] = yaw[:-1]
    cos_y, sin_y = np.cos(yaw_ref), np.sin(yaw_ref)
    f_forward = cos_y * a_nav[:, 0] + sin_y * a_nav[:, 1]
    f_lateral = -sin_y * a_nav[:, 0] + cos_y * a_nav[:, 1]
    f_up = a_nav[:, 2] + GRAVITY
    gyro = np.column_stack([zero, zero, rate_z])
    ideal = ImuStream(t, gyro, np.column_stack([f_forward, f_lateral, f_up]))
    return truth, ideal


def corrupt(truth, ideal_imu, corruption, gnss_rate=1.0):
    """Produce a noisy :class:`ImuStream` and :class:`GnssStream` from a
    :class:`Truth` and its ideal IMU stream.

    IMU readings get additive white noise plus a per-axis bias random
    walk b_k = b_{k-1} + rw * sqrt(dt_k) * eta.  GNSS fixes are truth
    positions decimated to ``gnss_rate``, perturbed per ENU axis and
    mapped to geodetic about :data:`SCENARIO_ORIGIN`.  It cuts no fixes:
    ``fuse --gnss-outage`` or :func:`navfuse.gnss.outage_mask` does.
    """
    rng = np.random.default_rng(corruption.seed)
    n = len(ideal_imu)
    times = ideal_imu.t
    dts = np.diff(times, prepend=times[0])

    imu_cfg = corruption.imu
    gyro_white = rng.standard_normal((n, 3)) * imu_cfg.gyro_std
    accel_white = rng.standard_normal((n, 3)) * imu_cfg.accel_std
    gyro_steps = rng.standard_normal((n, 3)) * (imu_cfg.gyro_bias_rw * np.sqrt(dts)[:, None])
    accel_steps = rng.standard_normal((n, 3)) * (imu_cfg.accel_bias_rw * np.sqrt(dts)[:, None])
    gyro_steps[0] = 0.0
    accel_steps[0] = 0.0
    gyro_bias = np.cumsum(gyro_steps, axis=0)
    accel_bias = np.cumsum(accel_steps, axis=0)
    imu_out = ImuStream(
        times,
        ideal_imu.gyro + gyro_bias + gyro_white,
        ideal_imu.accel + accel_bias + accel_white,
    )

    fix_idx = decimate_indices(truth.t, gnss_rate)
    noise = rng.standard_normal((fix_idx.shape[0], 3)) * corruption.gnss.sigma
    lat, lon, alt = enu_to_geodetic(truth.position[fix_idx] + noise, SCENARIO_ORIGIN)
    return imu_out, GnssStream(truth.t[fix_idx], lat, lon, alt)
