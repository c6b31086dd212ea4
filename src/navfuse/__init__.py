"""navfuse: loosely-coupled GNSS/IMU fusion with an unscented Kalman filter."""

__version__ = "0.1.0"

from .errors import NavFuseError
from .fusion import FusionConfig, FusionResult, run_fusion, run_gnss_only
from .geodesy import (
    WGS84,
    GeodeticCoord,
    Wgs84Constants,
    ecef_to_geodetic,
    enu_to_geodetic,
    geodetic_to_ecef,
    geodetic_to_enu,
    normal_radius,
)
from .gnss import GnssNoise, GnssStream, measurement_cov
from .simulate import SensorCorruption, TrajectoryProfile, corrupt, generate_truth
from .strapdown import ImuNoiseParams, ImuStream, NavState, propagate
from .ukf import (
    GaussianBelief,
    SigmaParams,
    SigmaSet,
    compute_weights,
    generate_sigma_points,
    unscented_predict,
    unscented_update,
)

__all__ = [
    "__version__",
    "NavFuseError",
    "FusionConfig",
    "FusionResult",
    "run_fusion",
    "run_gnss_only",
    "WGS84",
    "GeodeticCoord",
    "Wgs84Constants",
    "ecef_to_geodetic",
    "enu_to_geodetic",
    "geodetic_to_ecef",
    "geodetic_to_enu",
    "normal_radius",
    "GnssNoise",
    "GnssStream",
    "measurement_cov",
    "SensorCorruption",
    "TrajectoryProfile",
    "corrupt",
    "generate_truth",
    "ImuNoiseParams",
    "ImuStream",
    "NavState",
    "propagate",
    "GaussianBelief",
    "SigmaParams",
    "SigmaSet",
    "compute_weights",
    "generate_sigma_points",
    "unscented_predict",
    "unscented_update",
]
