"""WGS84 conversions written independently of navfuse.

The benchmark generates its KITTI drive and checks navfuse's outputs with
these functions, so a fault in ``navfuse.geodesy`` cannot cancel itself
out.  All functions are vectorised over leading axes; angles are degrees
at this interface because the CSV and OXTS files carry degrees.
"""

import numpy as np

A = 6378137.0
F = 1.0 / 298.257223563
E2 = F * (2.0 - F)
B = A * (1.0 - F)


def geodetic_to_ecef(lat_deg, lon_deg, alt):
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    sl = np.sin(lat)
    rn = A / np.sqrt(1.0 - E2 * sl * sl)
    cl = np.cos(lat)
    return np.stack(
        [
            (rn + alt) * cl * np.cos(lon),
            (rn + alt) * cl * np.sin(lon),
            (rn * (1.0 - E2) + alt) * sl,
        ],
        axis=-1,
    )


def enu_rotation(lat_deg, lon_deg):
    """Rows are the east, north and up unit vectors in ECEF at the origin."""
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    so, co = np.sin(lon), np.cos(lon)
    sa, ca = np.sin(lat), np.cos(lat)
    return np.array([[-so, co, 0.0], [-sa * co, -sa * so, ca], [ca * co, ca * so, sa]])


def geodetic_to_enu(lat_deg, lon_deg, alt, origin):
    """(n, 3) ENU offsets of geodetic points from ``origin`` = (lat, lon, alt)."""
    offset = geodetic_to_ecef(lat_deg, lon_deg, alt) - geodetic_to_ecef(*origin)
    return offset @ enu_rotation(origin[0], origin[1]).T


def ecef_to_geodetic(xyz):
    """Heikkinen's closed-form inversion; returns (lat_deg, lon_deg, alt)."""
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    ep2 = (A * A - B * B) / (B * B)
    p = np.hypot(x, y)
    f54 = 54.0 * B * B * z * z
    g = p * p + (1.0 - E2) * z * z - E2 * (A * A - B * B)
    c = E2 * E2 * f54 * p * p / g**3
    s = np.cbrt(1.0 + c + np.sqrt(c * c + 2.0 * c))
    pp = f54 / (3.0 * (s + 1.0 / s + 1.0) ** 2 * g * g)
    q = np.sqrt(1.0 + 2.0 * E2 * E2 * pp)
    r0 = -(pp * E2 * p) / (1.0 + q) + np.sqrt(
        0.5 * A * A * (1.0 + 1.0 / q) - pp * (1.0 - E2) * z * z / (q * (1.0 + q)) - 0.5 * pp * p * p
    )
    u = np.hypot(p - E2 * r0, z)
    v = np.sqrt((p - E2 * r0) ** 2 + (1.0 - E2) * z * z)
    z0 = B * B * z / (A * v)
    alt = u * (1.0 - B * B / (A * v))
    lat = np.arctan((z + ep2 * z0) / p)
    lon = np.arctan2(y, x)
    return np.degrees(lat), np.degrees(lon), alt


def enu_to_geodetic(enu, origin):
    """Geodetic (lat_deg, lon_deg, alt) of ENU offsets from ``origin``."""
    xyz = geodetic_to_ecef(*origin) + enu @ enu_rotation(origin[0], origin[1])
    return ecef_to_geodetic(xyz)
