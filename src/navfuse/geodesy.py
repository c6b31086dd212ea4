"""WGS84 geodesy: geodetic <-> ECEF <-> local East-North-Up transforms.

All angles are radians; degrees are converted at ingestion/export
boundaries only.  The local-level frame is East-North-Up (ENU) anchored
at a fixed reference origin, and the ECEF->ENU transform uses the
standard orthonormal rotation so that local distances equal ECEF chord
distances.

Geodetic points convert to ENU in one array pass,
:func:`geodetic_to_enu`, ENU offsets to ECEF in one,
:meth:`EnuFrame.points_to_ecef`, and ECEF points to geodetic in one,
:func:`ecef_to_geodetic`; the scalar conversions are those passes applied
to one point, so every path gives the same bits.
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
        error = _range_error(self.lat, self.lon, self.height)
        if error:
            raise ValueError(error)


def _range_error(lat, lon, height):
    """Why a geodetic triple is out of range, or None when it is valid."""
    if not abs(lat) <= math.pi / 2:
        return f"latitude {lat} outside [-pi/2, pi/2]"
    if not abs(lon) <= math.pi:
        return f"longitude {lon} outside [-pi, pi]"
    if not math.isfinite(height):
        return "height must be finite"
    return None


def geodetic_in_range(lat, lon, height):
    """Elementwise form of the :class:`GeodeticCoord` range checks."""
    return (np.abs(lat) <= math.pi / 2) & (np.abs(lon) <= math.pi) & np.isfinite(height)


def check_geodetic(lat, lon, height):
    """Raise ``ValueError`` with the :class:`GeodeticCoord` message of the
    first point (arrays of equal length) out of range, naming its row."""
    ok = geodetic_in_range(lat, lon, height)
    if not ok.all():
        k = int(np.argmin(ok))
        error = _range_error(float(lat[k]), float(lon[k]), float(height[k]))
        raise ValueError(f"row {k}: {error}")


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
    """Prime-vertical radius of curvature at geodetic latitude ``lat`` (a
    scalar or an array).

    Evaluates a / sqrt(1 - e^2 sin^2(lat)); ranges from ``a`` at the
    equator to a / sqrt(1 - e^2) at the poles.
    """
    s = np.sin(lat)
    return WGS84.a / np.sqrt(1.0 - WGS84.e2 * s * s)


def _ecef_xyz(lat, lon, height):
    """ECEF x, y, z of geodetic coordinates (scalars or arrays):

    x = (R_N + h) cos(lat) cos(lon)
    y = (R_N + h) cos(lat) sin(lon)
    z = (R_N (1 - e^2) + h) sin(lat)
    """
    rn = normal_radius(lat)
    cl, sl = np.cos(lat), np.sin(lat)
    co, so = np.cos(lon), np.sin(lon)
    return (
        (rn + height) * cl * co,
        (rn + height) * cl * so,
        (rn * (1.0 - WGS84.e2) + height) * sl,
    )


def geodetic_to_ecef(g):
    """Convert geodetic coordinates to ECEF (see :func:`_ecef_xyz`)."""
    return EcefCoord(*_ecef_xyz(g.lat, g.lon, g.height))


def ecef_to_geodetic(p):
    """Invert :func:`geodetic_to_ecef`: an :class:`EcefCoord` gives a
    :class:`GeodeticCoord`, and an (n, 3) array of ECEF points the arrays
    (lat, lon, height), each point with the bits it gets alone.

    Uses a Bowring-style starting latitude followed by a fixed-point
    refinement (at most 10 iterations, convergence 1e-12 rad), elementwise:
    a point is frozen at the iteration where it converges.  The fixed
    point iterates tan(lat) = (z + e^2 R_N sin(lat)) / rho, which stays
    well conditioned at all latitudes.  On the polar axis the latitude is
    +-pi/2 and the longitude 0 by convention.

    Raises
    ------
    NearSingularity
        If a point lies within 1 km of the Earth's center.
    """
    if isinstance(p, EcefCoord):
        lat, lon, height = ecef_to_geodetic(p.as_array()[None])
        return GeodeticCoord(lat[0], lon[0], height[0])
    a, b, e2 = WGS84.a, WGS84.b, WGS84.e2
    # Contiguous rows, so that every point takes the same ufunc loops.
    x, y, z = np.array(p, dtype=float).reshape(-1, 3).T.copy()
    r = np.sqrt(x * x + y * y + z * z)
    if (r < 1000.0).any():
        raise NearSingularity(f"point {r.min():.1f} m from Earth's center cannot be inverted")
    rho = np.hypot(x, y)
    polar = rho < 1e-9
    lon = np.where(polar, 0.0, np.arctan2(y, x))

    ep2 = (a * a - b * b) / (b * b)
    beta = np.arctan2(z * a, rho * b)
    lat = np.arctan2(
        z + ep2 * b * np.float_power(np.sin(beta), 3.0),
        rho - e2 * a * np.float_power(np.cos(beta), 3.0),
    )
    active = np.flatnonzero(~polar)
    for _ in range(10):
        s = np.sin(lat[active])
        rn = a / np.sqrt(1.0 - e2 * s * s)
        new_lat = np.arctan2(z[active] + e2 * rn * s, rho[active])
        done = np.abs(new_lat - lat[active]) < 1e-12
        lat[active] = new_lat
        active = active[~done]
        if not active.size:
            break

    s, c = np.sin(lat), np.cos(lat)
    rn = a / np.sqrt(1.0 - e2 * s * s)
    with np.errstate(divide="ignore", invalid="ignore"):  # in the branch not taken
        height = np.where(np.abs(c) > np.abs(s), rho / c - rn, z / s - rn * (1.0 - e2))
    lat = np.where(polar, np.copysign(math.pi / 2, z), lat)
    height = np.where(polar, np.abs(z) - b, height)
    return lat, lon, height


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
        return LocalEnu(*self.points_to_local(p.as_array()[None])[0])

    def points_to_local(self, ecef):
        """ECEF points (n, 3) in this frame, as (n, 3) ENU offsets.

        The stacked product rotation @ d[:, :, None] gives each point the
        bits of rotation @ d; ``d @ rotation.T`` would not.  Raises
        ``ValueError`` when an offset is not finite, as :class:`LocalEnu`.
        """
        enu = (self.rotation @ (ecef - self.origin_ecef)[:, :, None])[:, :, 0]
        if not np.isfinite(enu).all():
            raise ValueError("ENU components must be finite")
        return enu

    def to_ecef(self, l):
        """Invert :meth:`to_local`."""
        return EcefCoord(*self.points_to_ecef(l.as_array()[None])[0])

    def points_to_ecef(self, enu):
        """Invert :meth:`points_to_local`: ENU offsets (n, 3) as (n, 3) ECEF
        points, each with the bits of origin_ecef + rotation.T @ offset."""
        rotated = (self.rotation.T @ np.asarray(enu, dtype=float)[:, :, None])[:, :, 0]
        return self.origin_ecef + rotated


def enu_frame(origin):
    """``origin`` as an :class:`EnuFrame`: a frame passes through, a
    :class:`GeodeticCoord` gets a new one."""
    return origin if isinstance(origin, EnuFrame) else EnuFrame(origin)


def geodetic_to_enu(lat, lon, height, origin):
    """Geodetic points (equal-length arrays, or scalars, of radians and
    meters) as (n, 3) ENU offsets in the frame anchored at ``origin`` (a
    :class:`GeodeticCoord` or an :class:`EnuFrame`).

    Raises ``ValueError`` as :func:`check_geodetic`, and when an offset is
    not finite.
    """
    lat, lon, height = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (lat, lon, height))
    check_geodetic(lat, lon, height)
    return enu_frame(origin).points_to_local(np.stack(_ecef_xyz(lat, lon, height), axis=-1))


def ecef_to_enu(p, origin):
    """Express ECEF point ``p`` in the ENU frame anchored at ``origin``
    (a :class:`GeodeticCoord` or an :class:`EnuFrame`)."""
    return enu_frame(origin).to_local(p)


def enu_to_ecef(l, origin):
    """Invert :func:`ecef_to_enu` for the same ``origin``."""
    return enu_frame(origin).to_ecef(l)
