"""WGS84 geodesy: geodetic <-> ECEF <-> local East-North-Up transforms.

All angles are radians; degrees are converted at ingestion/export
boundaries only.  The local-level frame is East-North-Up (ENU) anchored
at a fixed reference origin, and the ECEF->ENU transform uses the
standard orthonormal rotation so that local distances equal ECEF chord
distances.

Every conversion takes and returns whole arrays, one point per row:
:func:`geodetic_to_ecef` and its inverse :func:`ecef_to_geodetic`, and
:func:`geodetic_to_enu` and its inverse :func:`enu_to_geodetic` about a
:class:`GeodeticCoord` origin, whose ECEF position and rotation each
call computes.
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


def normal_radius(lat):
    """Prime-vertical radius of curvature at geodetic latitude ``lat`` (a
    scalar or an array).

    Evaluates a / sqrt(1 - e^2 sin^2(lat)); ranges from ``a`` at the
    equator to a / sqrt(1 - e^2) at the poles.
    """
    s = np.sin(lat)
    return WGS84.a / np.sqrt(1.0 - WGS84.e2 * s * s)


def geodetic_to_ecef(lat, lon, height):
    """ECEF points (n, 3) of geodetic points (equal-length arrays, or
    scalars, of radians and meters):

    x = (R_N + h) cos(lat) cos(lon)
    y = (R_N + h) cos(lat) sin(lon)
    z = (R_N (1 - e^2) + h) sin(lat)
    """
    lat, lon, height = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (lat, lon, height))
    rn = normal_radius(lat)
    cl, sl = np.cos(lat), np.sin(lat)
    co, so = np.cos(lon), np.sin(lon)
    return np.stack(
        [(rn + height) * cl * co, (rn + height) * cl * so, (rn * (1.0 - WGS84.e2) + height) * sl],
        axis=-1,
    )


def _rows(points, name):
    """``points``, one (3,) or n (n, 3), as an (n, 3) float array."""
    points = np.asarray(points, dtype=float)
    if points.ndim not in (1, 2) or points.shape[-1] != 3:
        raise ValueError(f"{name} must have shape (3,) or (n, 3), not {points.shape}")
    return points.reshape(-1, 3)


def ecef_to_geodetic(points):
    """Invert :func:`geodetic_to_ecef`: ECEF points, one (3,) or n (n, 3),
    as the arrays (lat, lon, height).

    Heikkinen's closed form (Z. f. Vermessungswesen 1982; in Zhu, IEEE
    TAES 1994), elementwise: lat = arctan2(z + e'^2 z0, rho) and
    h = U (1 - b^2 / (a V)), where e'^2 z0 = e^2 a z / V.  On the polar
    axis (rho < 1e-9 m) the latitude is +-pi/2, the longitude 0 and the
    height |z| - b.  Raises ``ValueError`` on another shape or a
    non-finite point (naming its row), and :class:`NearSingularity`
    within (a^2 - b^2) / b = 42.84 km of the center: that ball holds the
    evolute of the meridian ellipse, inside which a point has more than
    one latitude and the closed form no real root.
    """
    a, b, e2 = WGS84.a, WGS84.b, WGS84.e2
    points = _rows(points, "ECEF points")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))}: ECEF point is not finite")
    # Contiguous rows, so that every point takes the same ufunc loops.
    x, y, z = points.T.copy()
    r = np.sqrt(x * x + y * y + z * z)
    if (r <= (a * a - b * b) / b).any():
        raise NearSingularity(f"point {r.min():.1f} m from Earth's center cannot be inverted")
    rho = np.hypot(x, y)
    polar = rho < 1e-9
    f = 54.0 * b * b * z * z
    g = rho * rho + (1.0 - e2) * z * z - e2 * (a * a - b * b)
    fg = f / (g * g)  # first, as g^3 overflows beyond about 1e51 m
    c = e2 * e2 * fg * (rho * rho / g)
    s = np.cbrt(1.0 + c + np.sqrt(c * c + 2.0 * c))
    p = fg / (3.0 * (s + 1.0 + 1.0 / s) ** 2)
    q = np.sqrt(1.0 + 2.0 * e2 * e2 * p)
    # On the polar axis this can round below 0.
    root = 0.5 * a * a * (1.0 + 1.0 / q) - p * (1.0 - e2) * z * z / (q * (1.0 + q))
    root -= 0.5 * p * rho * rho
    t = rho - e2 * (np.sqrt(np.maximum(root, 0.0)) - p * e2 * rho / (1.0 + q))
    v = np.sqrt(t * t + (1.0 - e2) * z * z)
    lat = np.where(polar, np.copysign(math.pi / 2, z), np.arctan2(z + e2 * a * z / v, rho))
    height = np.where(polar, np.abs(z) - b, np.sqrt(t * t + z * z) * (1.0 - b * b / (a * v)))
    return lat, np.where(polar, 0.0, np.arctan2(y, x)), height


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


def geodetic_to_enu(lat, lon, height, origin):
    """Geodetic points (equal-length arrays, or scalars, of radians and
    meters) as (n, 3) ENU offsets in the frame anchored at the
    :class:`GeodeticCoord` ``origin``.

    The stacked product rotation @ d[:, :, None] gives each point the bits
    of rotation @ d; ``d @ rotation.T`` would not.  Raises ``ValueError``
    as :func:`check_geodetic`, and when an offset is not finite.
    """
    lat, lon, height = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (lat, lon, height))
    check_geodetic(lat, lon, height)
    d = geodetic_to_ecef(lat, lon, height) - geodetic_to_ecef(origin.lat, origin.lon, origin.height)
    enu = (enu_rotation(origin) @ d[:, :, None])[:, :, 0]
    if not np.isfinite(enu).all():
        raise ValueError("ENU components must be finite")
    return enu


def enu_to_geodetic(enu, origin):
    """Invert :func:`geodetic_to_enu`: ENU offsets, one (3,) or n (n, 3),
    from the :class:`GeodeticCoord` ``origin`` as the arrays (lat, lon,
    height), each point the :func:`ecef_to_geodetic` of origin_ecef +
    rotation.T @ offset."""
    rotated = (enu_rotation(origin).T @ _rows(enu, "ENU offsets")[:, :, None])[:, :, 0]
    return ecef_to_geodetic(geodetic_to_ecef(origin.lat, origin.lon, origin.height) + rotated)
