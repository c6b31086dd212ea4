"""GNSS position measurement model for the local-frame filter."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidNoise
from .geodesy import GeodeticCoord, LocalEnu, geodetic_to_enu


@dataclass(frozen=True)
class GnssFix:
    """One timestamped geodetic position fix (radians / meters).

    ``std`` optionally carries per-axis ENU standard deviations reported
    by the receiver; when absent the filter falls back to its configured
    :class:`GnssNoise`.
    """

    t: float
    lat: float
    lon: float
    alt: float
    std: tuple | None = None

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("timestamp must be finite")
        # Reuse the geodetic bounds checks.
        GeodeticCoord(self.lat, self.lon, self.alt)

    def geodetic(self):
        return GeodeticCoord(self.lat, self.lon, self.alt)


@dataclass(frozen=True)
class GnssNoise:
    """Per-axis ENU standard deviations of the GNSS position solution.

    Zero sigmas are representable (the simulator uses them for noiseless
    streams) but :func:`measurement_cov` rejects them: the filter's R
    must be positive definite.
    """

    sigma_e: float = 13.0
    sigma_n: float = 13.0
    sigma_u: float = 13.0

    def __post_init__(self):
        for name in ("sigma_e", "sigma_n", "sigma_u"):
            if getattr(self, name) < 0:
                raise InvalidNoise(f"{name} must be >= 0, got {getattr(self, name)}")


def stack_fixes(fixes):
    """The columns t, lat, lon, alt of a fix sequence, as four arrays."""
    return np.array([(f.t, f.lat, f.lon, f.alt) for f in fixes], dtype=float).reshape(-1, 4).T


def decimate_indices(times, rate):
    """Indices of the first sample in each absolute time bucket
    [k / rate, (k + 1) / rate); ``rate`` must be finite and positive."""
    if not 0.0 < rate < math.inf:
        raise ValueError(f"GNSS rate must be finite and > 0, got {rate}")
    buckets = np.floor(times * rate).astype(np.int64)
    keep = np.ones(times.shape[0], dtype=bool)
    keep[1:] = buckets[1:] != buckets[:-1]
    return np.nonzero(keep)[0]


def outage_mask(times, outages):
    """True where a time falls inside one of the half-open ``outages``
    windows [start, end)."""
    times = np.asarray(times, dtype=float)
    mask = np.zeros(times.shape, dtype=bool)
    for start, end in outages:
        mask |= (start <= times) & (times < end)
    return mask


def fix_to_local(fix, origin):
    """Map one geodetic fix into the ENU frame anchored at ``origin`` (a
    :class:`GeodeticCoord` or an :class:`EnuFrame`): :func:`geodetic_to_enu`
    applied to one point."""
    return LocalEnu(*geodetic_to_enu(fix.lat, fix.lon, fix.alt, origin)[0])


def measurement_cov(noise):
    """Diagonal measurement covariance R from per-axis sigmas."""
    for name in ("sigma_e", "sigma_n", "sigma_u"):
        if not getattr(noise, name) > 0:
            raise InvalidNoise(f"{name} must be > 0, got {getattr(noise, name)}")
    return np.diag(
        [noise.sigma_e**2, noise.sigma_n**2, noise.sigma_u**2]
    )


def measurement_covs(fixes, default_noise):
    """R (m, 3, 3) for m fixes: each fix's receiver sigmas when it has
    them, else the ``default_noise`` of :func:`measurement_cov`.

    Raises :class:`InvalidNoise` when a receiver sigma is not positive,
    and when a fix without sigmas meets a default that
    :func:`measurement_cov` rejects.
    """
    fixes = list(fixes)
    own = np.array([f.std is not None for f in fixes], dtype=bool)
    sigmas = np.zeros((len(fixes), 3))
    if own.any():
        sigmas[own] = [f.std for f in fixes if f.std is not None]
        bad = ~(sigmas[own] > 0).all(axis=1)
        if bad.any():
            raise InvalidNoise(f"receiver sigmas must be > 0, got {sigmas[own][bad][0]}")
    # float_power is libm pow, as Python's ** in measurement_cov; the
    # ndarray ** operator squares by multiplication and can differ in the last bit.
    variances = np.float_power(sigmas, 2.0)
    if not own.all():
        variances[~own] = np.diag(measurement_cov(default_noise))
    covs = np.zeros((len(fixes), 3, 3))
    covs[:, [0, 1, 2], [0, 1, 2]] = variances
    return covs
