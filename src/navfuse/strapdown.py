"""Strapdown IMU mechanization in a local ENU frame.

The navigation state carries position, velocity, a unit quaternion
(body -> ENU, scalar first), and slowly varying gyro/accelerometer
biases: 16 nominal components.  Filtering uses a 15-dimensional error
parameterization [dp, dv, dtheta, dbg, dba] where attitude errors are
body-frame rotation vectors applied by quaternion retraction, which
keeps the covariance minimal-dimension and free of Euler singularities.

Accelerometers measure specific force, so propagation adds gravity back
after rotating the bias-corrected reading into the navigation frame.
Propagation is deterministic: identical inputs give bit-identical
outputs.
"""

import math
from dataclasses import dataclass

import numpy as np

GRAVITY = 9.80665
GRAVITY_ENU = np.array([0.0, 0.0, -GRAVITY])

#: Dimension of the filter error state [dp, dv, dtheta, dbg, dba].
ERROR_DIM = 15
#: Dimension of the packed nominal state [p, v, q, bg, ba].
STATE_DIM = 16


# ---------------------------------------------------------------------------
# Quaternion helpers (scalar-first, broadcasting over leading axes)
# ---------------------------------------------------------------------------

def quat_identity():
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    norm = np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    return q / norm


def quat_multiply(a, b):
    """Hamilton product a * b; composes rotations right-to-left."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast(aw, bw).shape + (4,))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def quat_conjugate(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_rotate(q, v):
    """Rotate vector(s) ``v`` by unit quaternion(s) ``q``."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w = q[..., 0]
    qx, qy, qz = q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    out = np.empty(np.broadcast(w, vx).shape + (3,))
    out[..., 0] = vx + w * tx + qy * tz - qz * ty
    out[..., 1] = vy + w * ty + qz * tx - qx * tz
    out[..., 2] = vz + w * tz + qx * ty - qy * tx
    return out


def quat_from_rotvec(r):
    """Quaternion exponential of rotation vector(s) ``r``.

    Below |r| = 1e-8 a second-order series replaces the trigonometric
    form to avoid 0/0.
    """
    r = np.asarray(r, dtype=float)
    angle = np.sqrt(np.sum(r * r, axis=-1, keepdims=True))
    small = angle < 1e-8
    safe = np.where(small, 1.0, angle)
    w = np.where(small, 1.0 - angle**2 / 8.0, np.cos(angle / 2.0))
    s = np.where(small, 0.5 - angle**2 / 48.0, np.sin(angle / 2.0) / safe)
    return np.concatenate([w, r * s], axis=-1)


def rotvec_from_quat(q):
    """Rotation vector (logarithm) of unit quaternion(s), shortest arc."""
    q = np.asarray(q, dtype=float)
    # q and -q encode the same rotation; pick the hemisphere with w >= 0.
    sign = np.where(q[..., :1] < 0.0, -1.0, 1.0)
    q = q * sign
    w = q[..., :1]
    qv = q[..., 1:]
    s = np.sqrt(np.sum(qv * qv, axis=-1, keepdims=True))
    small = s < 1e-12
    safe = np.where(small, 1.0, s)
    scale = np.where(small, 2.0, 2.0 * np.arctan2(s, w) / safe)
    return qv * scale


def rotation_matrix(q):
    """3x3 direction cosine matrix of a single unit quaternion."""
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _vec3(value):
    out = np.asarray(value, dtype=float).reshape(3).copy()
    if not np.isfinite(out).all():
        raise ValueError("vector components must be finite")
    return out


@dataclass(frozen=True)
class NavState:
    """Nominal navigation state.

    position/velocity are ENU meters and m/s; ``orientation`` is a unit
    quaternion (scalar first) rotating body vectors into ENU; biases are
    in sensor units.
    """

    position: np.ndarray
    velocity: np.ndarray
    orientation: np.ndarray
    gyro_bias: np.ndarray
    accel_bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _vec3(self.position))
        object.__setattr__(self, "velocity", _vec3(self.velocity))
        object.__setattr__(self, "gyro_bias", _vec3(self.gyro_bias))
        object.__setattr__(self, "accel_bias", _vec3(self.accel_bias))
        q = np.asarray(self.orientation, dtype=float).reshape(4).copy()
        norm = float(np.linalg.norm(q))
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise ValueError(f"orientation norm {norm} not within 1e-9 of 1")
        object.__setattr__(self, "orientation", q)

    @classmethod
    def identity(cls):
        z = np.zeros(3)
        return cls(z, z, quat_identity(), z, z)

    def as_vector(self):
        """Pack into a length-16 array [p, v, q, bg, ba]."""
        return np.concatenate(
            [self.position, self.velocity, self.orientation, self.gyro_bias, self.accel_bias]
        )

    @classmethod
    def from_vector(cls, x):
        x = np.asarray(x, dtype=float).reshape(STATE_DIM)
        return cls(x[0:3], x[3:6], x[6:10], x[10:13], x[13:16])


@dataclass(frozen=True)
class ImuSample:
    """One timestamped body-frame IMU reading (rates rad/s, specific
    force m/s^2)."""

    t: float
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("timestamp must be finite")
        object.__setattr__(self, "gyro", _vec3(self.gyro))
        object.__setattr__(self, "accel", _vec3(self.accel))


@dataclass(frozen=True)
class ImuNoiseParams:
    """White-noise and bias random-walk magnitudes of the IMU."""

    gyro_std: float = 0.01
    accel_std: float = 0.05
    gyro_bias_rw: float = 1e-6
    accel_bias_rw: float = 1e-4

    def __post_init__(self):
        for name in ("gyro_std", "accel_std", "gyro_bias_rw", "accel_bias_rw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def propagate_batch(states, gyro, accel, dt):
    """Propagate packed states (..., 16) one step with a shared IMU reading.

    Bias-corrects the reading per state row, integrates attitude with a
    single rotation vector, rotates specific force with the pre-step
    attitude, adds gravity, and advances velocity/position with
    constant-acceleration kinematics.  Biases are left unchanged (their
    random walk enters through the process noise).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    states = np.asarray(states, dtype=float)
    p = states[..., 0:3]
    v = states[..., 3:6]
    q = states[..., 6:10]
    bg = states[..., 10:13]
    ba = states[..., 13:16]

    omega = gyro - bg
    acc = accel - ba
    a_nav = quat_rotate(q, acc) + GRAVITY_ENU
    out = np.empty_like(states)
    out[..., 0:3] = p + v * dt + 0.5 * a_nav * dt * dt
    out[..., 3:6] = v + a_nav * dt
    out[..., 6:10] = quat_normalize(quat_multiply(q, quat_from_rotvec(omega * dt)))
    out[..., 10:13] = bg
    out[..., 13:16] = ba
    return out


def propagate(state, sample, dt):
    """Propagate a :class:`NavState` by one IMU step of length ``dt``."""
    out = propagate_batch(state.as_vector()[None, :], sample.gyro, sample.accel, dt)
    return NavState.from_vector(out[0])


def process_noise_diag(noise, dt):
    """Diagonal of the additive process noise over the 15-dim error layout
    [dp, dv, dtheta, dbg, dba]: shape (15,) for one step of length ``dt``,
    or (n, 15) for an array of n step lengths.

    Powers of dt are libm ``pow`` (``np.float_power``), as Python's ``**``
    on a float, so a step gets the same bits whether alone or in an array.
    """
    dt = np.asarray(dt, dtype=float)
    if (dt < 0).any():
        raise ValueError(f"dt must be non-negative, got {dt.min()}")
    dt2 = np.float_power(dt, 2.0)
    blocks = [
        0.25 * noise.accel_std**2 * np.float_power(dt, 4.0),
        noise.accel_std**2 * dt2,
        noise.gyro_std**2 * dt2,
        noise.gyro_bias_rw**2 * dt2,
        noise.accel_bias_rw**2 * dt2,
    ]
    return np.repeat(np.stack(blocks, axis=-1), 3, axis=-1)


def process_noise_cov(noise, dt):
    """Additive process noise for one step as a dense 15x15 matrix; see
    :func:`process_noise_diag`."""
    return np.diag(process_noise_diag(noise, dt))


# ---------------------------------------------------------------------------
# Error-state retraction used by the sigma-point filter
# ---------------------------------------------------------------------------

def apply_state_delta(states, deltas):
    """Retraction: packed state(s) (..., 16) perturbed by error(s) (..., 15).

    Additive parts add; the attitude error is a rotation vector applied
    on the right: q' = q * exp(dtheta).
    """
    states = np.asarray(states, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    shape = np.broadcast(states[..., 0], deltas[..., 0]).shape
    out = np.empty(shape + (STATE_DIM,))
    out[..., 0:3] = states[..., 0:3] + deltas[..., 0:3]
    out[..., 3:6] = states[..., 3:6] + deltas[..., 3:6]
    out[..., 6:10] = quat_normalize(
        quat_multiply(states[..., 6:10], quat_from_rotvec(deltas[..., 6:9]))
    )
    out[..., 10:13] = states[..., 10:13] + deltas[..., 9:12]
    out[..., 13:16] = states[..., 13:16] + deltas[..., 12:15]
    return out


def state_delta(states, reference):
    """Inverse retraction: 15-dim error(s) of packed state(s) about a
    reference, so that ``apply_state_delta(reference, out) == states``."""
    states = np.asarray(states, dtype=float)
    reference = np.asarray(reference, dtype=float)
    shape = np.broadcast(states[..., 0], reference[..., 0]).shape
    out = np.empty(shape + (ERROR_DIM,))
    out[..., 0:3] = states[..., 0:3] - reference[..., 0:3]
    out[..., 3:6] = states[..., 3:6] - reference[..., 3:6]
    out[..., 6:9] = rotvec_from_quat(
        quat_multiply(quat_conjugate(reference[..., 6:10]), states[..., 6:10])
    )
    out[..., 9:12] = states[..., 10:13] - reference[..., 10:13]
    out[..., 12:15] = states[..., 13:16] - reference[..., 13:16]
    return out


def weighted_quat_mean(quats, weights, tol=1e-9, max_iter=20):
    """Weighted mean rotation by iterative rotation-vector averaging.

    Starts from the highest-weighted quaternion and repeatedly averages
    the rotation-vector residuals about the current estimate until the
    correction norm drops below ``tol``.
    """
    quats = np.asarray(quats, dtype=float)
    weights = np.asarray(weights, dtype=float)
    ref = quats[int(np.argmax(weights))].copy()
    for _ in range(max_iter):
        residuals = rotvec_from_quat(quat_multiply(quat_conjugate(ref), quats))
        correction = weights @ residuals
        ref = quat_normalize(quat_multiply(ref, quat_from_rotvec(correction)))
        if float(np.linalg.norm(correction)) < tol:
            break
    return ref


def weighted_state_mean(states, weights):
    """Weighted mean of packed states (m, 16); the quaternion part uses
    :func:`weighted_quat_mean`, everything else averages linearly."""
    states = np.asarray(states, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mean = np.empty(STATE_DIM)
    mean[0:6] = weights @ states[:, 0:6]
    mean[6:10] = weighted_quat_mean(states[:, 6:10], weights)
    mean[10:16] = weights @ states[:, 10:16]
    return mean
