"""Exception hierarchy shared across the package."""


class NavFuseError(Exception):
    """Base class for all errors raised by this package."""


class NearSingularity(NavFuseError):
    """Cartesian point too close to the Earth's center to invert."""


class InvalidScaling(NavFuseError):
    """Sigma-point scaling parameters violate n + kappa > 0."""


class DecompositionFailure(NavFuseError):
    """Covariance square root failed even after a jitter retry."""


class SingularInnovationCov(NavFuseError):
    """Innovation covariance is not invertible within tolerance."""


class InvalidCovariance(NavFuseError, ValueError):
    """Covariance matrix is not finite, not symmetric or not positive
    semidefinite within tolerance."""


class InvalidNoise(NavFuseError):
    """Noise standard deviations must be strictly positive."""


class EmptyStream(NavFuseError):
    """Operation requires a non-empty input stream."""


class NonMonotonicTime(NavFuseError):
    """Timestamps regress within a stream.

    Carries the offending sample index in ``index``.
    """

    def __init__(self, message, index):
        super().__init__(f"{message} (index {index})")
        self.index = index


class UnknownProfileKind(NavFuseError):
    """Trajectory profile kind is not one of the supported names."""


class MalformedRecord(NavFuseError):
    """A sensor text record could not be parsed."""


class MissingTimestamps(NavFuseError):
    """Dataset directory lacks the expected timestamps file."""


class RecordCountMismatch(NavFuseError):
    """Data record count disagrees with the timestamp line count."""


class EmptySeries(NavFuseError):
    """Metric requested on an empty error series."""


class TimeSpanMismatch(NavFuseError):
    """Estimate timestamps fall outside the ground-truth time span."""
