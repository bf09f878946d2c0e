import math

import numpy as np
import pytest

from stve import KalmanConfig, RegressionDataset, run_filter

from conftest import dense_system_matrix, make_dataset, per_step_filter


def scalar_oracle(y, u, observed, sigma2, eta2, x0, c0):
    """Independently coded scalar predict/update filter (innovations form)."""
    x, P = x0, c0
    states, covs, preds, inns = [], [], [], []
    loglik = 0.0
    for t in range(len(y)):
        Pp = P + sigma2
        pred = u[t] * x
        preds.append(pred)
        if observed[t]:
            e = y[t] - pred
            s = u[t] * u[t] * Pp + eta2
            K = Pp * u[t] / s
            x = x + K * e
            P = (1.0 - K * u[t]) * Pp
            inns.append(e)
            loglik += -0.5 * (math.log(2.0 * math.pi * s) + e * e / s)
        else:
            P = Pp
            inns.append(math.nan)
        states.append(x)
        covs.append(P)
    return np.array(states), np.array(covs), np.array(preds), np.array(inns), loglik


class TestKalmanConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            KalmanConfig(sigma2=-1.0, eta2=1.0)
        with pytest.raises(ValueError):
            KalmanConfig(sigma2=1.0, eta2=0.0)
        with pytest.raises(ValueError):
            KalmanConfig(sigma2=1.0, eta2=1.0, c0_scale=0.0)

    def test_x0_shape_checked_at_run(self, rng):
        ds = make_dataset(rng, 5, 2)
        config = KalmanConfig(sigma2=1.0, eta2=1.0, x0=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            run_filter(ds, config)


class TestHarmonicClosedForm:
    def test_covariance_harmonic_decay(self):
        # constant scalar design with no process noise: starting the
        # covariance at eta2 gives C_t = eta2 / (t + 1)
        T = 1000
        eta2 = 3.7
        ds = RegressionDataset(u=np.ones((T, 1)), y=np.zeros(T))
        trajectory = run_filter(ds, KalmanConfig(sigma2=0.0, eta2=eta2, c0_scale=eta2))
        expected = eta2 / (np.arange(1, T + 1) + 1.0)
        assert np.allclose(trajectory.scales, expected, rtol=0.0, atol=1e-12)


class TestScalarOracle:
    @pytest.mark.parametrize("trial", range(100))
    def test_matches_independent_scalar_filter(self, trial):
        rng = np.random.default_rng(5000 + trial)
        T = int(rng.integers(5, 40))
        sigma2 = float(rng.uniform(0.0, 3.0))
        eta2 = float(rng.uniform(0.1, 3.0))
        x0 = float(rng.normal())
        c0 = float(rng.uniform(0.1, 10.0))
        u = rng.normal(size=(T, 1))
        y = rng.normal(size=T)
        observed = rng.uniform(size=T) > 0.2
        observed[:2] = True
        ds = RegressionDataset(u=u, y=y, observed=observed)
        trajectory = run_filter(
            ds, KalmanConfig(sigma2=sigma2, eta2=eta2, x0=[x0], c0_scale=c0)
        )
        states, covs, preds, inns, loglik = scalar_oracle(
            y, u[:, 0], observed, sigma2, eta2, x0, c0
        )
        assert np.allclose(trajectory.states[:, 0], states, atol=1e-10)
        assert np.allclose(trajectory.scales, covs, atol=1e-10)
        assert np.allclose(trajectory.predictions, preds, atol=1e-10)
        assert np.allclose(trajectory.innovations, inns, atol=1e-10, equal_nan=True)
        assert trajectory.loglik == pytest.approx(loglik, rel=1e-10, abs=1e-10)


class TestFilterBehavior:
    def test_huge_observation_variance_freezes_states(self, rng):
        ds = make_dataset(rng, 50, 2)
        trajectory = run_filter(ds, KalmanConfig(sigma2=0.1, eta2=1e12))
        assert np.max(np.abs(trajectory.states)) < 1e-3

    def test_noiseless_consistent_data_converges_scalar(self, rng):
        T = 200
        u = rng.normal(size=(T, 1))
        y = u[:, 0] * 1.5
        ds = RegressionDataset(u=u, y=y)
        trajectory = run_filter(ds, KalmanConfig(sigma2=0.0, eta2=1e-6))
        sq = (y - trajectory.predictions) ** 2
        assert sq[-50:].mean() < 1e-9
        assert sq[-50:].mean() < sq[:50].mean()

    def test_noiseless_consistent_data_improves_multidim(self, rng):
        # the isotropic covariance cannot collapse along a single direction,
        # so multi-dimensional convergence is gradual; errors still shrink by
        # orders of magnitude relative to the response scale
        T, n = 400, 2
        coef = np.array([1.5, -0.5])
        u = rng.normal(size=(T, n))
        y = u @ coef
        ds = RegressionDataset(u=u, y=y)
        trajectory = run_filter(ds, KalmanConfig(sigma2=0.0, eta2=1.0))
        sq = (y - trajectory.predictions) ** 2
        assert sq[-100:].mean() < 0.02 * np.var(y)
        assert sq[-100:].mean() < 0.05 * sq[:100].mean()

    def test_missing_steps_propagate_only(self, rng):
        T = 20
        sigma2 = 0.3
        ds = make_dataset(rng, T, 2, missing=(7, 8))
        trajectory = run_filter(ds, KalmanConfig(sigma2=sigma2, eta2=1.0))
        # states do not move and the covariance inflates by sigma2 * I
        assert np.array_equal(trajectory.states[6], trajectory.states[5])
        assert np.array_equal(trajectory.states[7], trajectory.states[6])
        assert np.allclose(trajectory.scales[6], trajectory.scales[5] + sigma2, atol=1e-12)
        assert np.isnan(trajectory.innovations[6])
        assert np.isnan(trajectory.innovations[7])

    def test_loglik_sums_observed_innovation_terms(self, rng):
        ds = make_dataset(rng, 30, 2, missing=(4, 11))
        config = KalmanConfig(sigma2=0.5, eta2=2.0)
        trajectory = run_filter(ds, config)
        # recompute from recorded innovations and per-step variances
        total = 0.0
        cov = config.c0_scale * np.eye(2)
        for t in range(30):
            prior = cov + config.sigma2 * np.eye(2)
            u_t = ds.u[t]
            s = float(prior @ u_t @ u_t) + config.eta2
            if ds.observed[t]:
                e = trajectory.innovations[t]
                total += -0.5 * (math.log(2.0 * math.pi * s) + e * e / s)
                cov = (config.eta2 / s) * prior
            else:
                cov = prior
        assert trajectory.loglik == pytest.approx(total, rel=1e-12)

    def test_covariances_symmetric_psd(self, rng):
        ds = make_dataset(rng, 40, 3)
        trajectory = run_filter(ds, KalmanConfig(sigma2=0.7, eta2=1.3))
        # C_t = scales[t] * I is symmetric by construction and PSD iff its
        # scale is non-negative
        assert np.all(trajectory.scales > 0.0)

    def test_covariance_recursion_literal_form(self, rng):
        # the filtered covariance is the scalar eta2/s times the prior at
        # every observed step, in any dimension
        ds = make_dataset(rng, 25, 3)
        config = KalmanConfig(sigma2=0.4, eta2=1.1)
        trajectory = run_filter(ds, config)
        cov = config.c0_scale * np.eye(3)
        for t in range(25):
            prior = cov + config.sigma2 * np.eye(3)
            u_t = ds.u[t]
            s = float(prior @ u_t @ u_t) + config.eta2
            cov = (config.eta2 / s) * prior
            assert np.allclose(trajectory.scales[t] * np.eye(3), cov, rtol=1e-12, atol=1e-12)

    def test_non_finite_propagation_raises(self):
        u = np.full((3, 1), 1e200)
        ds = RegressionDataset(u=u, y=np.zeros(3))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            run_filter(ds, KalmanConfig(sigma2=1.0, eta2=1.0))


    def test_scales_are_the_isotropic_covariances(self, rng):
        ds = make_dataset(rng, 20, 3, missing=(5, 6, 13))
        trajectory = run_filter(ds, KalmanConfig(sigma2=0.3, eta2=0.8))
        assert trajectory.scales.shape == (20,)
        with pytest.raises(ValueError):
            trajectory.scales[0] = 1.0


class TestGappedTimeLabels:
    def test_n1_loglik_is_the_dense_gaussian_density(self, rng):
        # A gap of k labels is k walk steps: at n = 1, started at x0 = 0 with
        # a vanishing covariance, the filter computes the exact density.
        labels = np.sort(rng.choice(np.arange(2, 81), size=40, replace=False))
        ds = RegressionDataset(u=rng.normal(size=(40, 1)), y=rng.normal(size=40), time_index=labels)
        sigma2, eta2 = 0.5, 2.0
        trajectory = run_filter(ds, KalmanConfig(sigma2=sigma2, eta2=eta2, c0_scale=1e-14))
        dense = dense_system_matrix(ds)
        cov = sigma2 * dense @ dense.T + eta2 * np.eye(40)
        _sign, logdet = np.linalg.slogdet(cov)
        expected = -0.5 * (40 * math.log(2.0 * math.pi) + logdet + float(ds.y @ np.linalg.solve(cov, ds.y)))
        np.testing.assert_allclose(trajectory.loglik, expected, rtol=1e-10)

    @pytest.mark.parametrize("n", [2, 5])
    def test_gap_equals_inserted_unobserved_rows(self, rng, n):
        labels = np.array([1, 2, 5, 6, 7, 12, 13, 20, 21, 22])
        gapped = RegressionDataset(
            u=rng.normal(size=(10, n)), y=rng.normal(size=10), observed=[True] * 4 + [False] + [True] * 5,
            time_index=labels,
        )
        u, y = np.ones((22, n)), np.full(22, np.nan)
        u[labels - 1], y[labels - 1] = gapped.u, gapped.y
        observed = np.zeros(22, dtype=bool)
        observed[labels - 1] = gapped.observed
        filled = RegressionDataset(u=u, y=y, observed=observed)
        config = KalmanConfig(sigma2=0.3, eta2=0.8)
        sparse, full = run_filter(gapped, config), run_filter(filled, config)
        rows = labels - 1
        np.testing.assert_allclose(sparse.states, full.states[rows], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sparse.scales, full.scales[rows], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sparse.predictions, full.predictions[rows], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sparse.loglik, full.loglik, rtol=1e-12)


class TestPredictNext:
    def test_matches_recorded_predictions(self, rng):
        # the one-step prediction is <x_{t-1}, u_t> from the recorded states
        ds = make_dataset(rng, 15, 2)
        trajectory = run_filter(ds, KalmanConfig(sigma2=0.2, eta2=0.9))
        for t in range(1, 15):
            replay = float(trajectory.states[t - 1] @ ds.u[t])
            assert replay == pytest.approx(trajectory.predictions[t], rel=1e-12, abs=1e-12)


class TestBlockedRecursion:
    # T = 300 spans four full blocks of 64 rows and a short last one.
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("c0_scale", [1e-14, 1e4])
    def test_matches_per_step_reference(self, rng, n, c0_scale):
        T = 300
        labels = np.cumsum(rng.integers(1, 4, size=T))
        observed = rng.uniform(size=T) > 0.15
        observed[[0, 63, 64, 65, 127, 128, 299]] = False
        ds = RegressionDataset(
            u=rng.normal(size=(T, n)), y=rng.normal(size=T) * 3.0, observed=observed, time_index=labels
        )
        config = KalmanConfig(sigma2=0.4, eta2=1.3, c0_scale=c0_scale)
        trajectory = run_filter(ds, config)
        states, scales, predictions, innovations, loglik = per_step_filter(ds, config)

        def rel(a, b):
            return np.nanmax(np.abs(a - b)) / np.nanmax(np.abs(b))

        assert np.array_equal(np.isnan(trajectory.innovations), ~observed)
        assert rel(trajectory.predictions, predictions) <= 1e-12
        assert rel(trajectory.innovations, innovations) <= 1e-12
        assert rel(trajectory.scales, scales) <= 1e-12
        assert rel(trajectory.states, states) <= 1e-12
        assert abs(trajectory.loglik - loglik) <= 1e-12 * abs(loglik)
