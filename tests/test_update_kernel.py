"""The closed-form GNSS update against the generic UKF update chain.

``oracles.reference_update`` draws 31 sigma points of the error belief
with the generic functions of ``navfuse.ukf``, pushes them through
h(delta) = p + delta[0:3] and applies the gain solved by
``scipy.linalg.cho_solve``, then retracts the posterior error mean with
``scipy.spatial.transform.Rotation``;
``fusion._update`` must give the same state, covariance, NIS, innovation
and diagnostics to 1e-11 relative.  The scales are those of the
prediction kernel's test: |value| plus one standard deviation for the
state, sqrt(P_ii P_jj) for the covariance entry P_ij, |v| plus the
innovation standard deviation for the innovation, and the covariance
trace for the eigenvalue diagnostic (an eigenvalue is only resolved to
rounding of the matrix norm).
"""

import numpy as np
import pytest
from oracles import reference_update

import navfuse.fusion as fusion
import navfuse.ukf as ukf
from navfuse.errors import DecompositionFailure, InvalidCovariance, SingularInnovationCov
from navfuse.fusion import UPDATE_DTYPE, FusionConfig, run_fusion
from navfuse.gnss import GnssNoise, measurement_covs
from navfuse.simulate import SensorCorruption, TrajectoryProfile, corrupt, generate_truth
from navfuse.strapdown import GRAVITY

RTOL = 1e-11
CFG = FusionConfig()
PARAMS = CFG.sigma_params()
R_DEFAULT = measurement_covs(np.full(1, np.nan), CFG.gnss_noise)[0]


def assert_within(diff, scale, what):
    ratio = np.max(diff / np.maximum(scale, 1e-300))
    assert np.all(diff <= RTOL * scale), f"{what}: worst relative difference {ratio:.3e}"


def named(fields):
    """The fields that ``_update`` returns, by their ``UPDATE_DTYPE`` names."""
    return dict(zip(UPDATE_DTYPE.names[3:], fields, strict=True))


def assert_matches(kernel, oracle, prior_cov, r_cov):
    (state_k, cov_k, ev_k), (state_o, cov_o, ev_o) = kernel, oracle
    sd = np.sqrt(np.diag(cov_o))
    # State layout [p, v, q, bg, ba] against error layout [dp, dv, dtheta, dbg, dba].
    sd_state = np.concatenate([sd[0:6], np.full(4, sd[6:9].max()), sd[9:15]])
    assert_within(np.abs(state_k - state_o), np.abs(state_o) + sd_state, "state")
    assert_within(np.abs(cov_k - cov_o), np.outer(sd, sd), "covariance")
    ev_k, ev_o = named(ev_k), named(ev_o)
    assert ev_k["accepted"] == ev_o["accepted"]
    assert_within(abs(ev_k["nis"] - ev_o["nis"]), abs(ev_o["nis"]), "nis")
    sd_v = np.sqrt(np.diag(prior_cov[0:3, 0:3] + r_cov))
    innovation = np.abs(ev_k["innovation"] - ev_o["innovation"])
    assert_within(innovation, np.abs(ev_o["innovation"]) + sd_v, "innovation")
    for key in ("trace_before", "trace_after"):
        assert_within(abs(ev_k[key] - ev_o[key]), abs(ev_o[key]), key)
    assert_within(abs(ev_k["cov_min_eig"] - ev_o["cov_min_eig"]), ev_o["trace_after"],
                  "cov_min_eig")


def update_both(state, cov, y, r_cov=R_DEFAULT, gate=None):
    kernel = fusion._update(state, cov, y, r_cov, gate)
    oracle = reference_update(state, cov, y, r_cov, gate, PARAMS)
    assert_matches(kernel, oracle, cov, r_cov)
    state, cov, fields = kernel
    return state, cov, named(fields)


def nominal(q=(1.0, 0.0, 0.0, 0.0)):
    return np.concatenate([np.array([3.0, -4.0, 0.5, 1.0, 0.2, 0.0]), q, np.full(6, 1e-4)])


def run_checked(monkeypatch, imu, gnss, cfg=CFG):
    """Run the filter, checking every update against the oracle on the
    filter's own predicted states; returns the run's update events."""
    kernel = fusion._update

    def checked(state, cov, y, r_cov, gate):
        out = kernel(state, cov, y, r_cov, gate)
        assert_matches(out, reference_update(state, cov, y, r_cov, gate, PARAMS), cov, r_cov)
        return out

    monkeypatch.setattr(fusion, "_update", checked)
    return run_fusion(imu, gnss, cfg).updates


class TestAgainstOracle:
    def test_figure_eight_10hz_stream(self, monkeypatch):
        # A fix at every 10 Hz IMU sample: 600 updates, one prediction apart.
        profile = TrajectoryProfile("figure-eight", duration=60.0, imu_rate=10.0, gnss_rate=10.0)
        truth, ideal = generate_truth(profile)
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=10.0)
        assert len(run_checked(monkeypatch, imu, gnss)) >= 500

    def test_circ90_stream(self, monkeypatch):
        # The circ90 drive (100 Hz IMU, seed 42) with fixes at 10 Hz over
        # its first 60 s: 601 updates, ten predictions apart.
        truth, ideal = generate_truth(TrajectoryProfile("circular", duration=90.0))
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=10.0)
        imu = imu.take(imu.t <= 60.0)
        gnss = gnss.take(gnss.t <= 60.0)
        assert len(run_checked(monkeypatch, imu, gnss)) >= 500

    def test_gated_stream_rejects_some_fixes(self, monkeypatch):
        truth, ideal = generate_truth(TrajectoryProfile("circular", duration=10.0))
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=10.0)
        updates = run_checked(monkeypatch, imu, gnss, FusionConfig(gnss_gate=1.0))
        assert len(updates) == len(gnss)
        assert set(updates["accepted"].tolist()) == {True, False}


class TestEdgeCases:
    def test_zero_covariance(self):
        state, cov, event = update_both(nominal(), np.zeros((15, 15)), np.array([4.0, -3.0, 1.0]))
        assert not cov.any()
        np.testing.assert_array_equal(state, nominal())
        assert event["accepted"]

    def test_gated_rejection_leaves_state_and_cov(self):
        prior_state, prior_cov = nominal(), CFG.initial_covariance()
        y = prior_state[0:3] + np.array([40.0, -30.0, 20.0])
        state, cov, event = update_both(prior_state, prior_cov, y, gate=1.0)
        assert not event["accepted"]
        np.testing.assert_array_equal(state, prior_state)
        np.testing.assert_array_equal(cov, prior_cov)
        np.testing.assert_allclose(event["innovation"], [40.0, -30.0, 20.0], rtol=1e-15)
        assert event["trace_after"] == event["trace_before"]

    def test_per_fix_std(self):
        r_cov = measurement_covs(np.array([2.0]), GnssNoise())[0]
        update_both(nominal(), CFG.initial_covariance(), np.array([5.0, -2.0, 0.0]), r_cov)

    def test_nominal_quaternion_with_negative_w(self):
        q = np.array([-0.8, 0.1, -0.3, 0.5])
        rng = np.random.default_rng(5)
        b = rng.standard_normal((15, 15))
        cov = 0.1 * (b @ b.T) + CFG.initial_covariance()
        state, _, _ = update_both(nominal(q / np.linalg.norm(q)), cov, np.array([9.0, 1.0, -2.0]))
        assert state[6] < 0.0

    def test_diagnostics_describe_the_posterior(self):
        # The position variances are the smallest eigenvalues, and the
        # update halves them: min eig 1 before, 0.5 after.
        cov = np.diag(np.r_[np.ones(3), np.full(12, 4.0)])
        _, _, event = update_both(nominal(), cov, np.zeros(3), np.eye(3))
        assert event["cov_min_eig"] == pytest.approx(0.5, rel=1e-14)
        assert event["trace_after"] == pytest.approx(49.5, rel=1e-14)

    def test_indefinite_posterior_raises(self):
        # An R that is not PSD (S stays positive definite) drives the
        # position variance to 1 - 2 * 0.5 * 2 = -1; the posterior check
        # must reject it.
        cov = np.diag(np.r_[np.ones(3), np.full(12, 4.0)])
        for update in (fusion._update, self.reference):
            with pytest.raises(ValueError, match="eigenvalue"):
                update(nominal(), cov, np.zeros(3), -0.5 * np.eye(3), None)

    def test_indefinite_prior_raises(self):
        # The kernel checks only the covariance it leaves: the prior when
        # the gate rejects the fix, else the posterior P - K S K^T, whose
        # smallest eigenvalue is at most the prior's as K S K^T is PSD.
        cov = CFG.initial_covariance()
        cov[0, 0] = -1.0
        priors = [cov]
        rng = np.random.default_rng(24)
        for _ in range(40):
            basis = np.linalg.qr(rng.standard_normal((15, 15)))[0]
            eigs = np.r_[10.0 ** rng.uniform(-6.0, 2.0, 14), -(10.0 ** rng.uniform(-8.7, 0.0))]
            prior = (basis * eigs) @ basis.T
            priors.append(0.5 * (prior + prior.T))
        y = nominal()[0:3] + np.array([40.0, -30.0, 20.0])
        for prior in priors:
            assert np.linalg.eigvalsh(prior)[0] <= -2e-9
            for gate in (None, 1e-3):
                for update in (fusion._update, self.reference):
                    with pytest.raises(InvalidCovariance, match="eigenvalue"):
                        update(nominal(), prior, y, R_DEFAULT, gate)

    def test_prior_failing_cholesky_after_jitter(self, monkeypatch):
        # Minimum eigenvalue -5e-10 passes the -1e-9 floor, but the jitter
        # 1e-9 * trace / 15 is only ~1e-12.  The kernel leaves it in the
        # posterior, and the prediction that follows fails to factor it.
        cov = np.diag(np.r_[np.full(14, 1e-3), -5e-10])
        state, left, _ = fusion._update(nominal(), cov, np.zeros(3), R_DEFAULT, None)
        with pytest.raises(DecompositionFailure):
            fusion._predict(state, left, np.zeros(3), np.array([0.0, 0.0, GRAVITY]), 0.01,
                            PARAMS, np.zeros(15))
        with pytest.raises(DecompositionFailure):
            self.reference(nominal(), cov, np.zeros(3), R_DEFAULT, None)
        # As the initial covariance of a run with a fix at t = 0, the
        # update of IMU sample 0 leaves it and the prediction of sample 1
        # raises.
        monkeypatch.setattr(FusionConfig, "initial_covariance", lambda self: cov.copy())
        truth, ideal = generate_truth(TrajectoryProfile("circular", duration=2.0))
        imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=10.0)
        assert gnss.t[0] == imu.t[0] == 0.0
        with pytest.raises(DecompositionFailure, match=r"^IMU sample 1 \(t = 0\.01 s\): "):
            run_fusion(imu, gnss, CFG)

    def test_ill_conditioned_innovation_covariance(self):
        r_cov = np.diag([1.0, 1.0, 1e-15])
        for update in (fusion._update, self.reference):
            with pytest.raises(SingularInnovationCov):
                update(nominal(), np.zeros((15, 15)), np.zeros(3), r_cov, None)

    def test_non_finite_innovation_messages(self):
        # ``kalman_correct`` checks S, then v; ``unscented_update`` gives
        # the same messages (test_ukf.py).
        cases = [
            ("^innovation is not finite$", CFG.initial_covariance(), np.array([np.nan, 0.0, 0.0])),
            ("^innovation covariance is not finite$", np.full((15, 15), np.inf), np.zeros(3)),
        ]
        for message, cov, y in cases:
            with pytest.raises(InvalidCovariance, match=message):
                fusion._update(nominal(), cov, y, R_DEFAULT, None)

    def test_nan_state_raises(self):
        state = nominal()
        state[0] = np.nan
        for update in (fusion._update, self.reference):
            with pytest.raises(ValueError):
                update(state, CFG.initial_covariance(), np.zeros(3), R_DEFAULT, None)

    @staticmethod
    def reference(state, cov, y, r_cov, gate):
        return reference_update(state, cov, y, r_cov, gate, PARAMS)


def test_one_eigendecomposition_of_the_covariance_left(monkeypatch):
    """Per fix, the run makes one 15x15 eigvalsh, of the covariance the
    update leaves (the posterior, or the prior when the gate rejects the
    fix), and one 3x3 eigh of S, corrects once through
    ``ukf.kalman_correct``, factors nothing, and never draws measurement
    sigma points.  Per prediction it makes the one 4x4 eigh of the
    attitude mean and the one Cholesky factor of the sigma points, and
    no other decomposition."""
    shapes = []
    factored = []
    corrections = []
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            shapes.append((fn.__name__, a.shape))
            return fn(a, *args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("the closed-form update must not use the generic UKF update")

    monkeypatch.setattr(np.linalg, "eigvalsh", counted(eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counted(eigh))
    cholesky = np.linalg.cholesky

    def counted_cholesky(a):
        factored.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    for name in ("unscented_update", "GaussianBelief"):
        monkeypatch.setattr(ukf, name, forbidden)

    def correct(*args):
        corrections.append(args)
        return ukf.kalman_correct(*args)

    assert fusion.kalman_correct is ukf.kalman_correct
    monkeypatch.setattr(fusion, "kalman_correct", correct)
    truth, ideal = generate_truth(TrajectoryProfile("circular", duration=5.0))
    imu, gnss = corrupt(truth, ideal, SensorCorruption(seed=42), gnss_rate=10.0)
    result = run_fusion(imu, gnss, FusionConfig(gnss_gate=1.0))
    accepted = int(result.updates["accepted"].sum())
    assert 0 < accepted < len(gnss)
    assert shapes.count(("eigvalsh", (15, 15))) == len(gnss)
    assert shapes.count(("eigh", (3, 3))) == len(gnss)
    assert shapes.count(("eigh", (4, 4))) == len(imu) - 1
    assert len(shapes) == 2 * len(gnss) + len(imu) - 1
    assert factored == [(15, 15)] * (len(imu) - 1)
    assert len(corrections) == len(gnss)
