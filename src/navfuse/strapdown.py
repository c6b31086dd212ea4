"""Strapdown IMU mechanization in a local ENU frame.

The navigation state is one packed (16,) vector [p, v, q, bg, ba]: ENU
position and velocity, a unit quaternion (body -> ENU, scalar first),
and slowly varying gyro/accelerometer biases.  Filtering uses a
15-dimensional error parameterization [dp, dv, dtheta, dbg, dba] where
attitude errors are body-frame rotation vectors applied by quaternion
retraction, which keeps the covariance minimal-dimension and free of
Euler singularities.

Accelerometers measure specific force, so propagation adds gravity back
after rotating the bias-corrected reading into the navigation frame.
The quaternion functions work on columns, (4, m) quaternions and (3, m)
vectors, and :func:`propagate` is the one strapdown step, on one packed
state or on m of them as columns: the fusion kernel runs it on its 31
sigma points.  Propagation is deterministic: identical inputs give
bit-identical outputs.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonMonotonicTime

GRAVITY = 9.80665
GRAVITY_ENU = np.array([0.0, 0.0, -GRAVITY])

#: Dimension of the filter error state [dp, dv, dtheta, dbg, dba].
ERROR_DIM = 15
#: Dimension of the packed nominal state [p, v, q, bg, ba].
STATE_DIM = 16


# ---------------------------------------------------------------------------
# Quaternion columns: scalar first, a (4, m) array holds m quaternions and a
# (3, m) array m vectors, so one numpy call covers all sigma points.
# ---------------------------------------------------------------------------

CONJ = np.array([1.0, -1.0, -1.0, -1.0])
# Floors a norm only where it is exactly zero, so that x / norm stays finite.
TINY = 1e-300

# The Hamilton product as a bilinear form, (a * b)[i] = sum_jk H[i, j, k] a[j] b[k],
# flattened so that _HAMILTON @ outer(a, b) multiplies (4, m) columns pairwise.
_HAMILTON = np.zeros((4, 4, 4))
for _i, _j, _k, _sign in [
    (0, 0, 0, 1), (0, 1, 1, -1), (0, 2, 2, -1), (0, 3, 3, -1),
    (1, 0, 1, 1), (1, 1, 0, 1), (1, 2, 3, 1), (1, 3, 2, -1),
    (2, 0, 2, 1), (2, 1, 3, -1), (2, 2, 0, 1), (2, 3, 1, 1),
    (3, 0, 3, 1), (3, 1, 2, 1), (3, 2, 1, -1), (3, 3, 0, 1),
]:
    _HAMILTON[_i, _j, _k] = _sign
_HAMILTON = _HAMILTON.reshape(4, 16)
del _i, _j, _k, _sign


def quat_identity():
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_products(a, b):
    """Column-wise Hamilton products a[:, i] * b[:, i] of (4, m) arrays;
    a * b composes rotations right-to-left."""
    return _HAMILTON @ (a[:, None, :] * b[None, :, :]).reshape(16, -1)


def quat_left(w, x, y, z):
    """The 4x4 matrix L with L @ b = (w, x, y, z) * b for every column b."""
    return np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])


def quat_normalized(q):
    return q / np.sqrt(np.add.reduce(q * q))


def quat_exp(r):
    """Quaternion exponentials (4, m) of rotation-vector columns (3, m).

    For 1e-150 < |r| < 1e-8, cos(|r|/2) and sin(|r|/2)/|r| round to
    exactly 1 and 1/2, so exp(r) is the first-order series (1, r/2) there
    without a branch.
    """
    angle = np.sqrt(np.add.reduce(r * r))
    half = angle / 2.0
    out = np.empty((4, r.shape[1]))
    np.cos(half, out=out[0])
    out[1:] = r * (np.sin(half) / np.maximum(angle, TINY))
    return out


def quat_log(q):
    """Shortest-arc rotation vectors (3, m) of unit-quaternion columns (4, m).

    q and -q encode the same rotation: the angle is taken from |w| and the
    vector part flipped where w < 0, so the result has norm at most pi.
    """
    two_sign = np.where(q[0] < 0.0, -2.0, 2.0)
    qv = q[1:]
    s = np.sqrt(np.add.reduce(qv * qv))
    return qv * (two_sign * (np.arctan2(s, np.abs(q[0])) / np.maximum(s, TINY)))


# ---------------------------------------------------------------------------
# Sensor streams
# ---------------------------------------------------------------------------

def _first_bad_row(ok, message):
    """Raise ``ValueError`` naming the first row where ``ok`` is False."""
    if not ok.all():
        raise ValueError(f"row {int(np.argmin(ok))}: {message}")


def check_times(t, strict):
    """Check the times ``t`` (N,): ``ValueError`` at the first time that is
    not finite, :class:`NonMonotonicTime` at the first that regresses (or
    repeats, when ``strict``)."""
    _first_bad_row(np.isfinite(t), "timestamp must be finite")
    bad = t[1:] <= t[:-1] if strict else t[1:] < t[:-1]
    if bad.any():
        i = int(bad.argmax()) + 1
        raise NonMonotonicTime(f"timestamps regress: {t[i - 1]} -> {t[i]}", i)


class SensorStream:
    """Base of the sensor streams: a frozen dataclass whose fields are
    read-only float columns over the rows of ``t``."""

    def _freeze(self, widths, strict):
        """Replace the fields by read-only float copies of shape (N,), where
        ``widths`` gives None, or (N, width), N being the size of ``t``; a
        field left None becomes all NaN.  Then check the times with
        :func:`check_times`.  Raises ``ValueError`` on another shape."""
        n = np.size(self.t)
        for name, width in widths.items():
            shape = (n,) if width is None else (n, width)
            value = getattr(self, name)
            column = np.full(shape, np.nan) if value is None else np.array(value, dtype=float)
            if column.shape != shape:
                raise ValueError(f"{name} has shape {column.shape}, expected {shape}")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        check_times(self.t, strict)

    def __len__(self):
        return self.t.shape[0]

    def take(self, index):
        """The rows selected by ``index`` (a slice, a boolean mask or
        increasing row numbers), as a new stream."""
        return type(self)(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass(frozen=True, eq=False)
class ImuStream(SensorStream):
    """Body-frame IMU readings: times ``t`` (N,) in s, rates ``gyro``
    (N, 3) in rad/s and specific force ``accel`` (N, 3) in m/s^2, checked
    once for strictly increasing times and finite readings."""

    t: np.ndarray
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        self._freeze({"t": None, "gyro": 3, "accel": 3}, strict=True)
        finite = np.isfinite(self.gyro).all(axis=1) & np.isfinite(self.accel).all(axis=1)
        _first_bad_row(finite, "vector components must be finite")


@dataclass(frozen=True)
class ImuNoiseParams:
    """White-noise and bias random-walk magnitudes of the IMU."""

    gyro_std: float = 0.01
    accel_std: float = 0.05
    gyro_bias_rw: float = 1e-6
    accel_bias_rw: float = 1e-4

    def __post_init__(self):
        # process_noise_diag squares each magnitude.
        for name in ("gyro_std", "accel_std", "gyro_bias_rw", "accel_bias_rw"):
            value = getattr(self, name)
            if not (0 <= value and math.isfinite(float(value) * float(value))):
                raise ValueError(f"{name} must be >= 0 with a finite square, got {value}")


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def propagate(state, gyro, accel, dt):
    """Propagate the packed state [p, v, q, bg, ba], (16,) or m states as
    the columns of a (16, m) array, by one IMU step of length ``dt`` with
    the readings ``gyro`` and ``accel`` (3,); returns the shape of ``state``.

    The bias-corrected specific force is rotated with the pre-step
    attitude (q * (0, f) * conj(q)), gravity is added back, velocity and
    position advance with constant-acceleration kinematics, and the
    attitude is composed with exp(omega dt) of the bias-corrected rate and
    renormalized.  Biases are left unchanged (their random walk enters
    through the process noise).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = state.reshape(STATE_DIM, -1)
    p, v, q = x[0:3], x[3:6], x[6:10]
    fq = np.zeros((4, x.shape[1]))
    fq[1:] = accel[:, None] - x[13:16]
    a_nav = quat_products(quat_products(q, fq), q * CONJ[:, None])[1:] + GRAVITY_ENU[:, None]
    turn = quat_exp((gyro[:, None] - x[10:13]) * dt)
    out = np.concatenate([
        p + v * dt + 0.5 * a_nav * dt * dt,
        v + a_nav * dt,
        quat_normalized(quat_products(q, turn)),
        x[10:16],
    ])
    return out.reshape(state.shape)


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
