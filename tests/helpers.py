"""Stream builders shared by the test modules."""

import numpy as np

from navfuse.geodesy import EnuFrame, ecef_to_geodetic
from navfuse.gnss import GnssStream
from navfuse.simulate import SCENARIO_ORIGIN

#: A GNSS stream without fixes.
NO_FIXES = GnssStream(*np.empty((4, 0)))


def truth_fixes(truth, origin=SCENARIO_ORIGIN):
    """The positions of a simulated :class:`Truth` (ENU offsets from
    ``origin``) as noiseless GNSS fixes, all converted in one array pass."""
    lat, lon, alt = ecef_to_geodetic(EnuFrame(origin).points_to_ecef(truth.position))
    return GnssStream(truth.t, lat, lon, alt)
