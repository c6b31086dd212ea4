"""GNSS position measurement model for the local-frame filter."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidNoise
from .geodesy import GeodeticCoord, ecef_to_enu, geodetic_to_ecef


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


def fix_to_local(fix, origin):
    """Map a geodetic fix into the ENU frame anchored at ``origin`` (a
    :class:`GeodeticCoord`, or an :class:`EnuFrame` built once for many fixes)."""
    return ecef_to_enu(geodetic_to_ecef(fix.geodetic()), origin)


def measurement_fn(state):
    """Measurement function h: extract the position of a NavState."""
    return state.position.copy()


def measurement_cov(noise):
    """Diagonal measurement covariance R from per-axis sigmas."""
    for name in ("sigma_e", "sigma_n", "sigma_u"):
        if not getattr(noise, name) > 0:
            raise InvalidNoise(f"{name} must be > 0, got {getattr(noise, name)}")
    return np.diag(
        [noise.sigma_e**2, noise.sigma_n**2, noise.sigma_u**2]
    )


def cov_for_fix(fix, default_noise):
    """R for one fix: per-fix receiver sigmas when present, else defaults."""
    if fix.std is not None:
        e, n, u = fix.std
        return measurement_cov(GnssNoise(e, n, u))
    return measurement_cov(default_noise)
