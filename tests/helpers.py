"""Stream builders shared by the test modules."""

import numpy as np

from navfuse.geodesy import enu_to_geodetic
from navfuse.gnss import GnssStream
from navfuse.simulate import SCENARIO_ORIGIN

#: A GNSS stream without fixes.
NO_FIXES = GnssStream(*np.empty((4, 0)))


def truth_fixes(truth, origin=SCENARIO_ORIGIN):
    """The positions of a simulated :class:`Truth` (ENU offsets from
    ``origin``) as noiseless GNSS fixes, all converted in one array pass."""
    lat, lon, alt = enu_to_geodetic(truth.position, origin)
    return GnssStream(truth.t, lat, lon, alt)
