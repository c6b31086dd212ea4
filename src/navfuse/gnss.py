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
    """Geodetic position fixes: times ``t``, ``lat`` and ``lon`` (radians),
    ``alt`` (meters) and ``std``, the receiver's position sigma (meters,
    the same on every ENU axis), each (M,); a NaN sigma (the default)
    means "use the filter's :class:`GnssNoise`".  Checked once for
    non-decreasing times and in-range positions
    (:func:`navfuse.geodesy.check_geodetic`); :func:`measurement_covs`
    checks the sigmas."""

    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    alt: np.ndarray
    std: np.ndarray | None = None

    def __post_init__(self):
        self._freeze({"t": None, "lat": None, "lon": None, "alt": None, "std": None}, strict=False)
        check_geodetic(self.lat, self.lon, self.alt)


@dataclass(frozen=True)
class GnssNoise:
    """Standard deviation ``sigma`` (meters) of the GNSS position solution,
    the same on every ENU axis.

    A zero sigma is representable (the simulator uses it for noiseless
    streams) but :func:`measurement_covs` rejects it: the filter's R must
    be positive definite.
    """

    sigma: float = 13.0

    def __post_init__(self):
        # measurement_covs squares it.
        if not (0 <= self.sigma and math.isfinite(float(self.sigma) * float(self.sigma))):
            raise InvalidNoise(f"GNSS sigma must be finite and >= 0 with a finite square, "
                               f"got {self.sigma}")


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


def measurement_covs(std, default_noise):
    """R = sigma^2 I (m, 3, 3) for the ``std`` (m,) of m fixes: a fix's
    receiver sigma, or the ``default_noise`` sigma where it is NaN.

    Raises :class:`InvalidNoise` when a sigma that R uses is not positive
    or its square is not finite.
    """
    sigmas = np.where(np.isnan(std), default_noise.sigma, std)
    bad = ~(sigmas > 0)
    if bad.any():
        raise InvalidNoise(f"GNSS sigma must be > 0, got {sigmas[bad][0]}")
    # float_power is libm pow, as Python's **; the ndarray ** operator
    # squares by multiplication and can differ in the last bit.
    with np.errstate(over="ignore"):
        variances = np.float_power(sigmas, 2.0)
    if not np.isfinite(variances).all():
        raise InvalidNoise(f"GNSS sigma {sigmas[~np.isfinite(variances)][0]} has no finite square")
    return variances[:, None, None] * np.eye(3)
