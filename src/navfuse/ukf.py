"""Unscented Kalman filtering over plain vector states.

The filter is parameterized over arbitrary process and measurement
callables ``f(x) -> x'`` and ``h(x) -> y`` acting on 1-D state vectors.
Sigma points follow the symmetric 2n+1 construction

    X = [x, x + sqrt((n + kappa) P), x - sqrt((n + kappa) P)]

with kappa = alpha^2 (n + gamma) - n and weights

    W0_m = kappa / (n + kappa)
    W0_c = W0_m + (1 - alpha^2 + beta)
    Wi   = 1 / (2 (n + kappa)),   i = 1 .. 2n.

For Gaussian priors beta = 2 is the usual choice; gamma defaults to 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionFailure, InvalidCovariance, InvalidScaling, SingularInnovationCov

#: Tolerances used by :meth:`GaussianBelief.validate`.
SYMMETRY_TOL = 1e-12
EIGEN_FLOOR = -1e-9


@dataclass(frozen=True)
class SigmaParams:
    """Sigma-point scaling for an ``n``-dimensional state.

    Parameters
    ----------
    n : int
        State dimension (n >= 1).
    alpha : float
        Spread of the sigma points around the mean.
    beta : float
        Prior-knowledge weight applied to the center covariance weight;
        2 is optimal for Gaussian distributions.
    gamma : float
        Secondary scaling factor, typically 1.

    alpha, beta and gamma must be finite, and the derived ``kappa`` =
    alpha^2 (n + gamma) - n must satisfy n + kappa > 0.
    """

    n: int
    alpha: float = 1.0
    beta: float = 2.0
    gamma: float = 1.0

    @property
    def kappa(self):
        return self.alpha**2 * (self.n + self.gamma) - self.n

    def __post_init__(self):
        if self.n < 1:
            raise InvalidScaling(f"state dimension must be >= 1, got {self.n}")
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidScaling(f"{name} must be finite, got {getattr(self, name)}")
        if self.n + self.kappa <= 0:
            raise InvalidScaling(
                f"n + kappa must be positive, got {self.n + self.kappa}"
            )


@dataclass(frozen=True)
class GaussianBelief:
    """Mean vector and covariance matrix of a Gaussian state estimate."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        n = mean.shape[0]
        if mean.ndim != 1 or cov.shape != (n, n):
            raise ValueError(f"shape mismatch: mean {mean.shape}, cov {cov.shape}")
        self.validate()

    def validate(self):
        """Check symmetry and the positive-semidefinite eigenvalue floor."""
        validate_cov(self.cov)


def validate_cov(cov):
    """Check a covariance matrix as :meth:`GaussianBelief.validate` does.

    Returns ``(asymmetry, min_eig)``: the largest |cov - cov^T| entry and
    the smallest eigenvalue of the symmetrized matrix.

    Raises
    ------
    InvalidCovariance
        If an entry is not finite, the asymmetry exceeds
        :data:`SYMMETRY_TOL` or the smallest eigenvalue lies below
        :data:`EIGEN_FLOOR`, checked in that order.
    """
    if not np.isfinite(cov).all():
        raise InvalidCovariance("covariance is not finite")
    asym = float(np.max(np.abs(cov - cov.T)))
    if asym > SYMMETRY_TOL:
        raise InvalidCovariance(f"covariance asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (cov + cov.T))[0])
    if min_eig < EIGEN_FLOOR:
        raise InvalidCovariance(f"covariance min eigenvalue {min_eig:.3e} below {EIGEN_FLOOR}")
    return asym, min_eig


@dataclass(frozen=True)
class SigmaSet:
    """2n+1 sigma points (rows) with their mean and covariance weights."""

    points: np.ndarray
    w_mean: np.ndarray
    w_cov: np.ndarray

    def __post_init__(self):
        count, n = self.points.shape
        if count != 2 * n + 1:
            raise ValueError(f"expected {2 * n + 1} points for dimension {n}, got {count}")
        # Tiny alpha makes individual weights huge; the unit-sum check
        # must scale with their magnitude to stay meaningful in float64.
        tol = 1e-12 * max(1.0, float(np.max(np.abs(self.w_mean))))
        if abs(float(np.sum(self.w_mean)) - 1.0) > tol:
            raise ValueError("mean weights must sum to 1")


@dataclass(frozen=True)
class MeasurementPrediction:
    """Predicted measurement moments: mean, innovation covariance (with R
    folded in), and state-measurement cross covariance."""

    mean: np.ndarray
    cov: np.ndarray
    cross_cov: np.ndarray


def compute_weights(params):
    """Return ``(w_mean, w_cov)`` arrays of length 2n+1.

    The mean weights sum to one by the identity
    kappa/(n+kappa) + 2n/(2(n+kappa)) = 1.
    """
    n, kappa = params.n, params.kappa
    if n + kappa <= 0:
        raise InvalidScaling(f"n + kappa must be positive, got {n + kappa}")
    w_mean = np.full(2 * n + 1, 1.0 / (2.0 * (n + kappa)))
    w_cov = w_mean.copy()
    w_mean[0] = kappa / (n + kappa)
    w_cov[0] = kappa / (n + kappa) + (1.0 - params.alpha**2 + params.beta)
    return w_mean, w_cov


def cholesky_sqrt(cov):
    """Lower-triangular square root of a symmetric PSD matrix.

    Symmetrizes first, then attempts a Cholesky factorization; on
    failure adds diagonal jitter 1e-9 * trace / n once and retries.  An
    exactly zero matrix short-circuits to a zero factor (its unique PSD
    square root).

    Raises
    ------
    DecompositionFailure
        If the factorization still fails after the jitter retry.
    """
    sym = 0.5 * (cov + cov.T)
    if not sym.any():
        return np.zeros_like(sym)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-9 * float(np.trace(sym)) / sym.shape[0]
    if jitter > 0.0:
        try:
            return np.linalg.cholesky(sym + jitter * np.eye(sym.shape[0]))
        except np.linalg.LinAlgError:
            pass
    raise DecompositionFailure("covariance is indefinite beyond jitter tolerance")


def sigma_offsets(cov, params):
    """Offsets of the 2n+1 sigma points from their mean, one per column.

    Column 0 is zero; columns i and n+i are plus and minus column i of
    the square root of (n + kappa) * cov.  Returns an (n, 2n+1) array.
    """
    n = params.n
    spread = math.sqrt(n + params.kappa) * cholesky_sqrt(cov)
    out = np.empty((n, 2 * n + 1))
    out[:, 0] = 0.0
    out[:, 1 : n + 1] = spread
    out[:, n + 1 :] = -spread
    return out


def generate_sigma_points(belief, params):
    """Build the symmetric sigma-point set for ``belief``: its mean plus
    each column of :func:`sigma_offsets`, as rows."""
    n = params.n
    if belief.mean.shape[0] != n:
        raise ValueError(f"belief dimension {belief.mean.shape[0]} != params.n {n}")
    w_mean, w_cov = compute_weights(params)
    points = belief.mean + sigma_offsets(belief.cov, params).T
    return SigmaSet(points, w_mean, w_cov)


def unscented_predict(belief, transition, q_cov, params):
    """Propagate ``belief`` through ``transition`` and add process noise.

    Parameters
    ----------
    belief : GaussianBelief
        Prior state estimate.
    transition : callable
        State-transition function applied to each sigma point.
    q_cov : ndarray
        Additive process-noise covariance.
    params : SigmaParams

    Returns
    -------
    GaussianBelief
        Predicted mean and (symmetrized) covariance.
    """
    sp = generate_sigma_points(belief, params)
    propagated = np.array([np.asarray(transition(x), dtype=float) for x in sp.points])
    mean = sp.w_mean @ propagated
    dev = propagated - mean
    cov = (dev * sp.w_cov[:, None]).T @ dev + q_cov
    return GaussianBelief(mean, 0.5 * (cov + cov.T))


def unscented_measurement(belief, measure, r_cov, params):
    """Project ``belief`` through ``measure`` from freshly drawn sigma points.

    Regenerates the sigma points from the (predicted) belief, projects
    them, and forms the predicted measurement mean, the innovation
    covariance (measurement noise ``r_cov`` folded in), and the
    state-measurement cross covariance.
    """
    sp = generate_sigma_points(belief, params)
    projected = np.array([np.asarray(measure(x), dtype=float) for x in sp.points])
    y_mean = sp.w_mean @ projected
    y_dev = projected - y_mean
    x_dev = sp.points - belief.mean
    y_cov = (y_dev * sp.w_cov[:, None]).T @ y_dev + r_cov
    cross = (x_dev * sp.w_cov[:, None]).T @ y_dev
    return MeasurementPrediction(y_mean, 0.5 * (y_cov + y_cov.T), cross)


def check_innovation_eigs(eigs):
    """Reject an innovation covariance by its ascending eigenvalues: a
    smallest eigenvalue <= 0 or a reciprocal condition below 1e-14 raises
    :class:`SingularInnovationCov`."""
    rcond = eigs[0] / eigs[-1] if eigs[-1] > 0.0 else 0.0
    if eigs[0] <= 0.0 or rcond < 1e-14:
        raise SingularInnovationCov(
            f"innovation covariance reciprocal condition {rcond:.3e}"
        )


def innovation_inverse(s):
    """Inverse of a symmetric innovation covariance ``s`` from one ``eigh``,
    whose eigenvalues must first pass :func:`check_innovation_eigs`."""
    eigs, vecs = np.linalg.eigh(s)
    check_innovation_eigs(eigs)
    return (vecs / eigs) @ vecs.T


def innovation_nis(prediction, y):
    """Normalized innovation squared v^T P_y^{-1} v for measurement ``y``."""
    v = np.asarray(y, dtype=float) - prediction.mean
    return float(v @ innovation_inverse(prediction.cov) @ v)


def apply_measurement(belief, prediction, y):
    """Fold measurement ``y`` into ``belief`` given predicted moments.

    Computes the gain K = P_xy P_y^{-1} with :func:`innovation_inverse`,
    the innovation v = y - y_pred, the posterior mean x + K v, and the
    posterior covariance P - K P_y K^T (symmetrized).

    Returns
    -------
    (GaussianBelief, ndarray)
        Posterior belief and the innovation vector.
    """
    gain = prediction.cross_cov @ innovation_inverse(prediction.cov)
    innovation = np.asarray(y, dtype=float) - prediction.mean
    mean = belief.mean + gain @ innovation
    cov = belief.cov - gain @ prediction.cov @ gain.T
    return GaussianBelief(mean, 0.5 * (cov + cov.T)), innovation


def unscented_update(belief, measure, r_cov, y, params):
    """Full measurement update: regenerate sigma points, project, correct.

    Returns the posterior belief and the innovation ``y - y_pred``.
    """
    prediction = unscented_measurement(belief, measure, r_cov, params)
    return apply_measurement(belief, prediction, y)
