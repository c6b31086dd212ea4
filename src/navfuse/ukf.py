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
:func:`unscented_transform` is the one transform, on (n, 2n+1) columns;
its ``plus``, ``minus`` and ``average`` hooks are the boxplus/boxminus
encapsulation of Hertzberg et al. (Information Fusion 2013).  The
generic path runs it with vector addition, subtraction and the weighted
sum, and :mod:`navfuse.fusion` with the navigation state's quaternion
hooks.  Both updates correct through :func:`kalman_correct`, the one
place where an innovation covariance is formed, checked and inverted:
:func:`unscented_update` hands it the blocks of one transform of the
stacked columns [x; h(x)], and :mod:`navfuse.fusion` the blocks of its
affine position fix in closed form.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionFailure, InvalidCovariance, InvalidScaling, SingularInnovationCov

#: Tolerances used by :func:`validate_cov`.
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

    alpha, beta and gamma must be finite, alpha^2 and the derived
    ``kappa`` = alpha^2 (n + gamma) - n too, and n + kappa > 0.
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
        alpha = float(self.alpha)
        if not (math.isfinite(alpha * alpha) and math.isfinite(self.kappa)):
            raise InvalidScaling(f"alpha {self.alpha} overflows alpha^2 or kappa")
        if self.n + self.kappa <= 0:
            raise InvalidScaling(
                f"n + kappa must be positive, got {self.n + self.kappa}"
            )


@dataclass(frozen=True)
class GaussianBelief:
    """Mean vector and covariance matrix of a Gaussian state estimate; the
    covariance must pass :func:`validate_cov`, and the mean be finite."""

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
        validate_cov(cov)
        if not np.isfinite(mean).all():
            raise ValueError("mean is not finite")


def validate_cov(cov):
    """Check the finiteness, symmetry and eigenvalue floor of a covariance.

    Returns the smallest eigenvalue of the symmetrized matrix.

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
    return min_eig


@functools.cache
def compute_weights(params):
    """Return ``(w_mean, w_cov)`` arrays of length 2n+1, computed once per
    :class:`SigmaParams` and read-only.

    The mean weights sum to one by the identity
    kappa/(n+kappa) + 2n/(2(n+kappa)) = 1.
    """
    n, kappa = params.n, params.kappa
    w_mean = np.full(2 * n + 1, 1.0 / (2.0 * (n + kappa)))
    w_cov = w_mean.copy()
    w_mean[0] = kappa / (n + kappa)
    w_cov[0] = kappa / (n + kappa) + (1.0 - params.alpha**2 + params.beta)
    w_mean.setflags(write=False)
    w_cov.setflags(write=False)
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
    the square root of (n + kappa) * cov.  Returns an (n, 2n+1) array;
    raises ``ValueError`` unless ``cov`` is (n, n).
    """
    n = params.n
    if cov.shape != (n, n):
        raise ValueError(f"covariance shape {cov.shape} does not match params.n {n}")
    spread = math.sqrt(n + params.kappa) * cholesky_sqrt(cov)
    out = np.empty((n, 2 * n + 1))
    out[:, 0] = 0.0
    out[:, 1 : n + 1] = spread
    out[:, n + 1 :] = -spread
    return out


def unscented_transform(mean, cov, f, params, plus=lambda x, d: x[:, None] + d,
                        minus=lambda y, m: y - m[:, None], average=lambda y, w: y @ w):
    """Weighted mean and covariance of ``f`` over the sigma points of
    (``mean``, ``cov``).

    The points are ``plus(mean, sigma_offsets(cov, params))``, one per
    column, and ``f`` maps them as columns.  Their mean is ``average(points,
    w_mean)`` and their deviations ``minus(points, mean)``, (n', 2n+1)
    columns.  Returns the mean and the covariance sum_i w_cov[i] d_i d_i^T,
    with no noise added and not symmetrized.
    """
    w_mean, w_cov = compute_weights(params)
    points = f(plus(mean, sigma_offsets(cov, params)))
    out = average(points, w_mean)
    dev = minus(points, out)
    return out, (dev * w_cov) @ dev.T


def _per_point(fn):
    """The column map that applies the 1-D callable ``fn`` to each column."""
    return lambda x: np.column_stack([fn(c) for c in x.T])


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
    mean, cov = unscented_transform(belief.mean, belief.cov, _per_point(transition), params)
    cov = cov + q_cov
    return GaussianBelief(mean, 0.5 * (cov + cov.T))


def check_innovation_eigs(eigs):
    """Reject an innovation covariance by its ascending eigenvalues: a
    smallest eigenvalue <= 0 or a reciprocal condition below 1e-14 raises
    :class:`SingularInnovationCov`."""
    rcond = eigs[0] / eigs[-1] if eigs[-1] > 0.0 else 0.0
    if eigs[0] <= 0.0 or rcond < 1e-14:
        raise SingularInnovationCov(
            f"innovation covariance reciprocal condition {rcond:.3e}"
        )


def kalman_correct(cov, cross, hph, r_cov, v):
    """Correct a prior of covariance ``cov`` by the innovation ``v``, given
    the state cross covariance ``cross`` and the measurement covariance
    ``hph`` without noise.  S = hph + ``r_cov`` (symmetrized), then ``v``,
    must be finite, else :class:`InvalidCovariance`; the eigenvalues of
    S's one ``eigh`` must pass :func:`check_innovation_eigs`.  Returns the
    state correction K v for the gain K = cross S^-1, the posterior
    cov - K S K^T (symmetrized) and the NIS v^T S^-1 v."""
    s = hph + r_cov
    s = 0.5 * (s + s.T)
    if not np.isfinite(s).all():
        raise InvalidCovariance("innovation covariance is not finite")
    if not np.isfinite(v).all():
        raise InvalidCovariance("innovation is not finite")
    eigs, vecs = np.linalg.eigh(s)
    check_innovation_eigs(eigs)
    s_inv = (vecs / eigs) @ vecs.T
    nis = float(v @ s_inv @ v)
    gain = cross @ s_inv
    cov = cov - gain @ s @ gain.T
    return gain @ v, 0.5 * (cov + cov.T), nis


def unscented_update(belief, measure, r_cov, y, params):
    """Full measurement update: one :func:`unscented_transform` of the
    stacked columns [x; h(x)] from freshly drawn sigma points gives the
    predicted measurement, its covariance and, as the off-diagonal block,
    the state-measurement cross covariance; :func:`kalman_correct` applies
    them.

    Returns the posterior belief and the innovation ``y - y_pred``.
    """
    n = params.n
    project = _per_point(measure)
    mean, cov = unscented_transform(
        belief.mean, belief.cov, lambda x: np.vstack([x, project(x)]), params
    )
    v = np.asarray(y, dtype=float) - mean[n:]
    dx, posterior, _ = kalman_correct(belief.cov, cov[:n, n:], cov[n:, n:], r_cov, v)
    return GaussianBelief(belief.mean + dx, posterior), v
