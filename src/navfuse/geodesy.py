"""WGS84 geodesy: geodetic <-> ECEF <-> local East-North-Up transforms.

All angles are radians; degrees are converted at ingestion/export
boundaries only.  The local-level frame is East-North-Up (ENU) anchored
at a fixed reference origin, and the ECEF->ENU transform uses the
standard orthonormal rotation so that local distances equal ECEF chord
distances.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NearSingularity


@dataclass(frozen=True)
class Wgs84Constants:
    """Defining constants of the WGS84 reference ellipsoid.

    ``e2`` is derived from the semi-axes as (a^2 - b^2) / a^2.
    """

    a: float = 6378137.0
    b: float = 6356752.3142
    e2: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "e2", (self.a**2 - self.b**2) / self.a**2)


WGS84 = Wgs84Constants()


@dataclass(frozen=True)
class GeodeticCoord:
    """Geodetic latitude/longitude (radians) and ellipsoidal height (m)."""

    lat: float
    lon: float
    height: float

    def __post_init__(self):
        for name in ("lat", "lon", "height"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not abs(self.lat) <= math.pi / 2:
            raise ValueError(f"latitude {self.lat} outside [-pi/2, pi/2]")
        if not abs(self.lon) <= math.pi:
            raise ValueError(f"longitude {self.lon} outside [-pi, pi]")
        if not math.isfinite(self.height):
            raise ValueError("height must be finite")


@dataclass(frozen=True)
class EcefCoord:
    """Earth-centered Earth-fixed Cartesian coordinates in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise ValueError("ECEF components must be finite")

    def as_array(self):
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class LocalEnu:
    """East-North-Up offsets in meters relative to a fixed origin."""

    east: float
    north: float
    up: float

    def __post_init__(self):
        for name in ("east", "north", "up"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(map(math.isfinite, (self.east, self.north, self.up))):
            raise ValueError("ENU components must be finite")

    def as_array(self):
        return np.array([self.east, self.north, self.up])


def normal_radius(lat):
    """Prime-vertical radius of curvature at geodetic latitude ``lat``.

    Evaluates a / sqrt(1 - e^2 sin^2(lat)); ranges from ``a`` at the
    equator to a / sqrt(1 - e^2) at the poles.
    """
    s = math.sin(lat)
    return WGS84.a / math.sqrt(1.0 - WGS84.e2 * s * s)


def geodetic_to_ecef(g):
    """Convert geodetic coordinates to ECEF.

    x = (R_N + h) cos(lat) cos(lon)
    y = (R_N + h) cos(lat) sin(lon)
    z = (R_N (1 - e^2) + h) sin(lat)
    """
    rn = normal_radius(g.lat)
    cl, sl = math.cos(g.lat), math.sin(g.lat)
    co, so = math.cos(g.lon), math.sin(g.lon)
    return EcefCoord(
        (rn + g.height) * cl * co,
        (rn + g.height) * cl * so,
        (rn * (1.0 - WGS84.e2) + g.height) * sl,
    )


def ecef_to_geodetic(p):
    """Invert :func:`geodetic_to_ecef`.

    Uses a Bowring-style starting latitude followed by a fixed-point
    refinement (at most 10 iterations, convergence 1e-12 rad).  The
    fixed point iterates tan(lat) = (z + e^2 R_N sin(lat)) / rho, which
    stays well conditioned at all latitudes.  Longitude at the poles is
    reported as 0 by convention.

    Raises
    ------
    NearSingularity
        If the point lies within 1 km of the Earth's center.
    """
    a, b, e2 = WGS84.a, WGS84.b, WGS84.e2
    r = math.sqrt(p.x * p.x + p.y * p.y + p.z * p.z)
    if r < 1000.0:
        raise NearSingularity(f"point {r:.1f} m from Earth's center cannot be inverted")
    rho = math.hypot(p.x, p.y)
    if rho < 1e-9:
        # On the polar axis: latitude is +-pi/2, longitude 0 by convention.
        lat = math.copysign(math.pi / 2, p.z)
        return GeodeticCoord(lat, 0.0, abs(p.z) - b)
    lon = math.atan2(p.y, p.x)

    ep2 = (a * a - b * b) / (b * b)
    beta = math.atan2(p.z * a, rho * b)
    lat = math.atan2(
        p.z + ep2 * b * math.sin(beta) ** 3,
        rho - e2 * a * math.cos(beta) ** 3,
    )
    for _ in range(10):
        s = math.sin(lat)
        rn = a / math.sqrt(1.0 - e2 * s * s)
        new_lat = math.atan2(p.z + e2 * rn * s, rho)
        done = abs(new_lat - lat) < 1e-12
        lat = new_lat
        if done:
            break

    s, c = math.sin(lat), math.cos(lat)
    rn = a / math.sqrt(1.0 - e2 * s * s)
    if abs(c) > abs(s):
        height = rho / c - rn
    else:
        height = p.z / s - rn * (1.0 - e2)
    return GeodeticCoord(lat, lon, height)


def enu_rotation(origin):
    """Rotation matrix taking ECEF offsets to ENU axes at ``origin``.

    Rows are the unit east, north, and up vectors; the matrix is
    orthonormal by construction.
    """
    so, co = math.sin(origin.lon), math.cos(origin.lon)
    sa, ca = math.sin(origin.lat), math.cos(origin.lat)
    return np.array(
        [
            [-so, co, 0.0],
            [-sa * co, -sa * so, ca],
            [ca * co, ca * so, sa],
        ]
    )


@dataclass(frozen=True, eq=False)
class EnuFrame:
    """The ENU frame anchored at ``origin``, with the origin's ECEF position
    and the ECEF->ENU rotation computed once for any number of conversions."""

    origin: GeodeticCoord
    origin_ecef: np.ndarray = field(init=False, repr=False)
    rotation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "origin_ecef", geodetic_to_ecef(self.origin).as_array())
        object.__setattr__(self, "rotation", enu_rotation(self.origin))

    def to_local(self, p):
        """ECEF point ``p`` in this frame."""
        e, n, u = self.rotation @ (p.as_array() - self.origin_ecef)
        return LocalEnu(e, n, u)

    def to_ecef(self, l):
        """Invert :meth:`to_local`."""
        return EcefCoord(*(self.origin_ecef + self.rotation.T @ l.as_array()))


def enu_frame(origin):
    """``origin`` as an :class:`EnuFrame`: a frame passes through, a
    :class:`GeodeticCoord` gets a new one."""
    return origin if isinstance(origin, EnuFrame) else EnuFrame(origin)


def ecef_to_enu(p, origin):
    """Express ECEF point ``p`` in the ENU frame anchored at ``origin``
    (a :class:`GeodeticCoord` or an :class:`EnuFrame`)."""
    return enu_frame(origin).to_local(p)


def enu_to_ecef(l, origin):
    """Invert :func:`ecef_to_enu` for the same ``origin``."""
    return enu_frame(origin).to_ecef(l)
