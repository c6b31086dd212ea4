"""GNSS fix streams and the position measurement model of the local-frame
filter."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidNoise
from .geodesy import check_geodetic
from .strapdown import SensorStream


@dataclass(frozen=True, eq=False)
class GnssStream(SensorStream):
    """Geodetic position fixes: times ``t``, ``lat`` and ``lon`` (radians)
    and ``alt`` (meters), each (M,), and ``std`` (M, 3), the receiver's
    per-axis ENU sigmas, where an all-NaN row (the default) means "use the
    filter's :class:`GnssNoise`".  Checked once for non-decreasing times
    and in-range positions (:func:`navfuse.geodesy.check_geodetic`);
    :func:`measurement_covs` checks the sigmas."""

    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    alt: np.ndarray
    std: np.ndarray | None = None

    def __post_init__(self):
        self._freeze({"t": None, "lat": None, "lon": None, "alt": None, "std": 3}, strict=False)
        check_geodetic(self.lat, self.lon, self.alt)


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
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidNoise(f"{name} must be finite and >= 0, got {getattr(self, name)}")


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


def measurement_cov(noise):
    """Diagonal measurement covariance R from per-axis sigmas."""
    for name in ("sigma_e", "sigma_n", "sigma_u"):
        if not getattr(noise, name) > 0:
            raise InvalidNoise(f"{name} must be > 0, got {getattr(noise, name)}")
    return np.diag(
        [noise.sigma_e**2, noise.sigma_n**2, noise.sigma_u**2]
    )


def measurement_covs(std, default_noise):
    """R (m, 3, 3) for the ``std`` (m, 3) of m fixes: a row's receiver
    sigmas, or the ``default_noise`` of :func:`measurement_cov` where the
    row is all NaN.

    Raises :class:`InvalidNoise` when a receiver sigma is not positive,
    and when a row without sigmas meets a default that
    :func:`measurement_cov` rejects.
    """
    own = ~np.isnan(std).all(axis=1)
    sigmas = np.where(own[:, None], std, 0.0)
    bad = own & ~(sigmas > 0).all(axis=1)
    if bad.any():
        raise InvalidNoise(f"receiver sigmas must be > 0, got {sigmas[bad][0]}")
    # float_power is libm pow, as Python's ** in measurement_cov; the
    # ndarray ** operator squares by multiplication and can differ in the last bit.
    variances = np.float_power(sigmas, 2.0)
    if not own.all():
        variances[~own] = np.diag(measurement_cov(default_noise))
    return variances[:, None, :] * np.eye(3)
