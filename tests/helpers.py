"""Stream builders shared by the test modules."""

import numpy as np

from navfuse.geodesy import enu_to_geodetic
from navfuse.gnss import GnssStream
from navfuse.simulate import SCENARIO_ORIGIN

#: A GNSS stream without fixes.
NO_FIXES = GnssStream(*np.empty((4, 0)))


def nav_state(p=(0, 0, 0), v=(0, 0, 0), q=(1, 0, 0, 0), bg=(0, 0, 0), ba=(0, 0, 0)):
    """The packed navigation state [p, v, q, bg, ba] (16,); the defaults
    give the identity state at rest at the origin."""
    return np.concatenate([p, v, q, bg, ba]).astype(float)


def truth_fixes(truth, origin=SCENARIO_ORIGIN):
    """The positions of a simulated :class:`Truth` (ENU offsets from
    ``origin``) as noiseless GNSS fixes, all converted in one array pass."""
    lat, lon, alt = enu_to_geodetic(truth.position, origin)
    return GnssStream(truth.t, lat, lon, alt)
