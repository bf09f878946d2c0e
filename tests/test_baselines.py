"""Online-gradient forecaster, learning-rate tuner, stationary least squares,
and the exact Gaussian maximum-likelihood fit of the two noise variances."""
import tracemalloc

import numpy as np
import pytest

from stve import (
    KalmanConfig,
    MleResult,
    RegressionDataset,
    SimulationConfig,
    baselines,
    estimate,
    mle_fit,
    online_gradient_run,
    run_filter,
    select_rows,
    simulate,
    stationary_regression,
    tune_learning_rate,
)
from stve.estimator import spectral_system

from conftest import dense_system_matrix, make_dataset


# ---------------------------------------------------------------------------
# online gradient


def test_zero_rate_default_origin_predicts_zero(rng):
    dataset = make_dataset(rng, T=9, n=2)
    run = online_gradient_run(dataset, 0.0)
    assert np.all(run.states == 0.0)
    assert np.all(run.predictions == 0.0)
    np.testing.assert_allclose(run.sse, float(dataset.y @ dataset.y), rtol=1e-12)


def test_unit_rate_scalar_constant_u_tracks_last_observation(rng):
    # n=1, u = 1, rate 1: the update fully corrects, so the state equals the
    # latest observation and each prediction is the previous one.
    T = 20
    y = rng.normal(size=T)
    dataset = make_dataset(rng, T=T, n=1, y=y, u=np.ones((T, 1)))
    run = online_gradient_run(dataset, 1.0)
    np.testing.assert_allclose(run.states[:, 0], y, rtol=0, atol=1e-14)
    np.testing.assert_allclose(run.predictions[1:], y[:-1], rtol=0, atol=1e-14)
    assert run.predictions[0] == 0.0


def test_three_step_hand_trace(rng):
    # Identical to a filter whose gain matrix is frozen at 0.5*I:
    #   t=1: predict 0,  err 2, state 0 + 0.5*2*1  = 1
    #   t=2: predict 2,  err 2, state 1 + 0.5*2*2  = 3
    #   t=3: predict -3, err 4, state 3 + 0.5*4*(-1) = 1
    u = np.array([[1.0], [2.0], [-1.0]])
    y = np.array([2.0, 4.0, 1.0])
    dataset = make_dataset(rng, T=3, n=1, y=y, u=u)
    run = online_gradient_run(dataset, 0.5)
    np.testing.assert_allclose(run.predictions, [0.0, 2.0, -3.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(run.states[:, 0], [1.0, 3.0, 1.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(run.sse, 24.0, rtol=1e-14)


def test_missing_steps_predict_but_do_not_update(rng):
    T = 10
    y = rng.normal(size=T)
    dataset = make_dataset(rng, T=T, n=2, missing=(4, 8), y=y)  # positions 3, 7
    run = online_gradient_run(dataset, 0.3)
    assert np.array_equal(run.states[3], run.states[2])
    assert np.array_equal(run.states[7], run.states[6])
    # sse counts observed steps only
    errors = dataset.y - run.predictions
    expected = float(np.sum(errors[dataset.observed] ** 2))
    np.testing.assert_allclose(run.sse, expected, rtol=1e-12)


def test_divergence_raises(rng):
    # rate 2.5 on u = y = 1 iterates x <- 2.5 - 1.5 x, growing by 1.5 per step.
    T = 80
    dataset = make_dataset(rng, T=T, n=1, y=np.ones(T), u=np.ones((T, 1)))
    # The state is 1 - (-1.5)^t, so its square first exceeds 1e24 at t = 69.
    with pytest.raises(RuntimeError, match="diverged at step 69$"):
        online_gradient_run(dataset, 2.5)


@pytest.mark.parametrize(
    "rate",
    [-0.5, np.nan, np.inf, np.array([[0.1, 0.2]])],
    ids=["negative", "nan", "inf", "matrix"],
)
def test_learning_rate_validation(rng, rate):
    dataset = make_dataset(rng, T=8, n=1)
    with pytest.raises(ValueError):
        online_gradient_run(dataset, rate)


# ---------------------------------------------------------------------------
# learning-rate tuner


def test_tuned_rate_on_pure_noise_is_near_zero():
    # X = 0 throughout: every update chases observation noise, so alpha = 0
    # is optimal and the endpoint is inside the search interval.
    dataset, _ = simulate(SimulationConfig(T=150, n=2, sigma2=0.0, eta2=1.0, seed=5))
    alpha = tune_learning_rate(dataset)
    assert 0.0 <= alpha < 0.02


def test_tuned_rate_on_drifting_data_is_bounded_away_from_zero():
    dataset, _ = simulate(SimulationConfig(T=150, n=2, sigma2=5.0, eta2=0.1, seed=6))
    alpha = tune_learning_rate(dataset)
    assert alpha > 0.1
    sse_0 = online_gradient_run(dataset, 0.0).sse
    sse_best = online_gradient_run(dataset, alpha).sse
    assert sse_best < 0.2 * sse_0


@pytest.mark.parametrize("seed", [5, 6, 23])
def test_tuned_rate_beats_dense_grid(seed):
    dataset, _ = simulate(
        SimulationConfig(T=120, n=2, sigma2=0.8, eta2=0.5, seed=seed)
    )
    alpha = tune_learning_rate(dataset)
    sse_best = online_gradient_run(dataset, alpha).sse
    for a in np.linspace(0.0, 2.0, 100):
        try:
            sse_a = online_gradient_run(dataset, float(a)).sse
        except RuntimeError:
            continue  # diverged: infinite sse, trivially beaten
        assert sse_best <= sse_a + 1e-9


def test_tuner_pass_count(monkeypatch):
    # Tuning runs no online_gradient_run pass.  The batched scan sees the
    # 101-rate grid first, then 21-rate grids, each inside the two cells
    # beside the previous grid's best rate.
    dataset, _ = simulate(SimulationConfig(T=40, n=2, sigma2=0.8, eta2=0.5, seed=5))
    runs, scans = [], []
    scan_sse = baselines._scan_sse

    def recording_scan(data, rates):
        scans.append((np.array(rates), scan_sse(data, rates)))
        return scans[-1][1]

    monkeypatch.setattr(
        baselines, "online_gradient_run", lambda data, rate: runs.append(rate) or online_gradient_run(data, rate)
    )
    monkeypatch.setattr(baselines, "_scan_sse", recording_scan)
    tune_learning_rate(dataset)
    assert runs == []
    np.testing.assert_array_equal(scans[0][0], np.linspace(0.0, 2.0, 101))
    assert 2 <= len(scans) <= 7
    for (previous, sse), (rates, _sse) in zip(scans, scans[1:]):
        k = int(np.argmin(sse))
        assert rates.shape == (21,)
        assert previous[max(0, k - 1)] <= rates[0] < rates[-1] <= previous[min(len(previous) - 1, k + 1)]


@pytest.mark.parametrize("n, scale", [(1, 2.0), (5, 1.0)])
def test_scan_matches_single_rate_runs(n, scale):
    # One pass over all rates gives each rate's sse, inf where it diverges.
    rng = np.random.default_rng(40 + n)
    dataset = make_dataset(rng, T=200, n=n, missing=(1, 3, 50, 51, 200), u=scale * rng.normal(size=(200, n)))
    rates = np.linspace(0.0, 2.0, 101)
    scan = baselines._scan_sse(dataset, rates)
    for rate, value in zip(rates, scan):
        try:
            expected = online_gradient_run(dataset, float(rate)).sse
        except RuntimeError:
            expected = np.inf
        if np.isinf(expected):
            assert np.isinf(value)
        elif n == 1:
            # One feature: the scan does the run's arithmetic exactly.
            assert value == expected
        else:
            assert value == pytest.approx(expected, rel=1e-12)
    assert np.isfinite(scan).sum() >= 10
    assert np.isinf(scan).sum() >= 10


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_scan_chunks_do_not_change_a_bit(monkeypatch, chunk):
    # The scan folds its errors and state norms into the sums a chunk of rows
    # at a time; the sse and the diverged rates must not depend on where the
    # chunks end.  195 observed rows: one chunk by default.
    rng = np.random.default_rng(45)
    dataset = make_dataset(rng, T=200, n=5, missing=(1, 3, 50, 51, 200), u=rng.normal(size=(200, 5)))
    rates = np.linspace(0.0, 2.0, 101)
    whole = baselines._scan_sse(dataset, rates)
    monkeypatch.setattr(baselines, "_SCAN_CHUNK", chunk)
    chunked = baselines._scan_sse(dataset, rates)
    assert chunked.tobytes() == whole.tobytes()
    assert np.isinf(whole).sum() >= 10


def test_scan_memory_is_bounded_by_the_chunk():
    # 20000 rows at 101 rates: one buffer of rows x rates would take 16 MB.
    rng = np.random.default_rng(46)
    dataset = make_dataset(rng, T=20_000, n=2, u=0.1 * rng.normal(size=(20_000, 2)))
    tracemalloc.start()
    try:
        baselines._scan_sse(dataset, np.linspace(0.0, 2.0, 101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# stationary regression


def test_exact_linear_data_recovers_coefficients(rng):
    coef = np.array([2.0, -1.0, 0.25])
    u = rng.normal(size=(40, 3))
    dataset = make_dataset(rng, T=40, n=3, y=u @ coef, u=u)
    np.testing.assert_allclose(stationary_regression(dataset), coef, rtol=0, atol=1e-8)


def test_constant_design_returns_mean(rng):
    T = 25
    y = rng.normal(size=T)
    dataset = make_dataset(rng, T=T, n=1, y=y, u=np.ones((T, 1)))
    np.testing.assert_allclose(
        stationary_regression(dataset)[0], float(np.mean(y)), rtol=1e-12
    )


def test_residuals_orthogonal_to_design(rng):
    dataset = make_dataset(rng, T=60, n=4)
    coef = stationary_regression(dataset)
    residual = dataset.y - dataset.u @ coef
    np.testing.assert_allclose(
        dataset.u.T @ residual, np.zeros(4), rtol=0, atol=1e-8
    )


def test_masked_rows_are_excluded(rng):
    coef = np.array([1.5, -0.5])
    u = rng.normal(size=(30, 2))
    y = u @ coef
    y[10] = 999.0  # junk at rows the mask removes
    y[20] = -999.0
    dataset = make_dataset(rng, T=30, n=2, missing=(11, 21), y=y, u=u)
    np.testing.assert_allclose(stationary_regression(dataset), coef, rtol=0, atol=1e-8)


def test_rank_deficient_design_raises(rng):
    u = rng.normal(size=(20, 1))
    duplicated = np.hstack([u, u])
    dataset = make_dataset(rng, T=20, n=2, u=duplicated)
    with pytest.raises(ValueError, match="rank-deficient"):
        stationary_regression(dataset)


def test_too_few_observed_rows_raises(rng):
    dataset = make_dataset(rng, T=4, n=3, missing=(1, 2))
    with pytest.raises(ValueError, match="observed rows"):
        stationary_regression(dataset)


def test_half_split_coefficients_differ_on_drifting_data():
    # On random-walk data a time-invariant regression is unstable: the two
    # half-sample fits differ by far more than their joint standard error.
    dataset, _ = simulate(SimulationConfig(T=400, n=3, sigma2=1.0, eta2=1.0, seed=13))
    first, second = select_rows(dataset, np.arange(200)), select_rows(dataset, np.arange(200, 400))

    def fit_and_se(subset):
        design = subset.u[subset.observed]
        response = subset.y[subset.observed]
        coef = stationary_regression(subset)
        residual_var = float(np.sum((response - design @ coef) ** 2)) / (
            design.shape[0] - design.shape[1]
        )
        se = np.sqrt(residual_var * np.trace(np.linalg.inv(design.T @ design)))
        return coef, se

    coef_first, se_first = fit_and_se(first)
    coef_second, se_second = fit_and_se(second)
    distance = float(np.linalg.norm(coef_first - coef_second))
    joint_se = float(np.hypot(se_first, se_second))
    # measured: distance 24.5 vs 5 * joint_se 11.2
    assert distance > 5.0 * joint_se


# ---------------------------------------------------------------------------
# maximum likelihood


def _dense_density(dataset):
    """Gaussian log-density of the observed responses as a function of the
    variances: Cov = sigma2 D D^T + eta2 I, D the materialized system matrix."""
    rows = dataset.observed
    observed = RegressionDataset(u=dataset.u[rows], y=dataset.y[rows], time_index=dataset.time_index[rows])
    dense = dense_system_matrix(observed)
    gram = dense @ dense.T
    y = observed.y

    def loglik(sigma2, eta2):
        cov = sigma2 * gram + eta2 * np.eye(y.shape[0])
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        return -0.5 * (y.shape[0] * np.log(2.0 * np.pi) + logdet + float(y @ np.linalg.solve(cov, y)))

    return loglik


def test_fit_loglik_is_the_dense_gaussian_density():
    # n=3 with missing rows: the reported loglik is the exact density at the
    # fitted point, and no nearby point (nor the truth) has a higher one.
    dataset, _ = simulate(
        SimulationConfig(T=150, n=3, sigma2=0.5, eta2=2.0, seed=3, missing=(5, 17, 90, 91))
    )
    density = _dense_density(dataset)
    fit = mle_fit(dataset)
    assert isinstance(fit, MleResult)
    assert fit.converged
    dense = density(fit.sigma2, fit.eta2)
    np.testing.assert_allclose(fit.loglik, dense, rtol=1e-10)
    assert fit.loglik >= density(0.5, 2.0)
    for a, b in [(a, b) for a in (0.9, 1.0, 1.1) for b in (0.9, 1.0, 1.1) if (a, b) != (1.0, 1.0)]:
        assert fit.loglik >= density(a * fit.sigma2, b * fit.eta2)


def test_n1_fit_is_the_scalar_filter_likelihood():
    # n=1 is the regime where the filter recursion is the exact scalar Kalman
    # filter; started at x0 = 0 with a vanishing covariance it computes the
    # same likelihood.  From the fitted point the truth is at most
    # Wilks-scale (chi^2_2 / 2) log-likelihood away, and each variance moves
    # by a small relative amount.  measured: gain 0.11, moves 4.2% / 0.2%.
    dataset, _ = simulate(SimulationConfig(T=2000, n=1, sigma2=0.5, eta2=2.0, seed=31, missing=(7, 800)))
    fit = mle_fit(dataset)
    filtered = run_filter(dataset, KalmanConfig(sigma2=fit.sigma2, eta2=fit.eta2, c0_scale=1e-14))
    np.testing.assert_allclose(fit.loglik, filtered.loglik, rtol=1e-9)
    truth_loglik = run_filter(dataset, KalmanConfig(sigma2=0.5, eta2=2.0, c0_scale=1e-14)).loglik
    assert fit.converged
    assert fit.loglik >= truth_loglik
    assert fit.loglik - truth_loglik <= 5.0
    assert abs(fit.sigma2 - 0.5) / 0.5 <= 0.25
    assert abs(fit.eta2 - 2.0) / 2.0 <= 0.25


def test_n5_fit_recovers_sigma2():
    # At n > 1 the isotropic filter is not the model's likelihood; the exact
    # one recovers sigma2.  measured: mean abs error 0.042.
    errors = []
    for child in np.random.SeedSequence(404).spawn(8):
        seed = int(child.generate_state(1, np.uint64)[0])
        dataset, _ = simulate(SimulationConfig(T=400, n=5, sigma2=0.5, eta2=2.0, seed=seed))
        errors.append(abs(mle_fit(dataset).sigma2 - 0.5))
    assert np.mean(errors) <= 0.25


def test_mle_and_stve_agree_within_monte_carlo_spread():
    # Replicated scalar datasets: the two estimators' means differ by less
    # than the sum of their replication spreads, for both variances.
    replications = 24
    stve_values = np.empty((replications, 2))
    mle_values = np.empty((replications, 2))
    for i, child in enumerate(np.random.SeedSequence(909).spawn(replications)):
        seed = int(child.generate_state(1, np.uint64)[0])
        dataset, _ = simulate(
            SimulationConfig(T=500, n=1, sigma2=0.5, eta2=2.0, seed=seed)
        )
        result = estimate(dataset)
        stve_values[i] = (result.sigma2, result.eta2)
        fit = mle_fit(dataset)
        mle_values[i] = (fit.sigma2, fit.eta2)
    for j in range(2):
        gap = abs(stve_values[:, j].mean() - mle_values[:, j].mean())
        spread = stve_values[:, j].std() + mle_values[:, j].std()
        assert gap <= spread


def test_fit_beats_a_wide_grid_of_variances():
    # The scan over log(sigma2/eta2) finds the global maximum: no point of a
    # wide log grid over both variances has a higher dense density.
    dataset, _ = simulate(SimulationConfig(T=120, n=2, sigma2=0.5, eta2=2.0, seed=21))
    density = _dense_density(dataset)
    fit = mle_fit(dataset)
    for sigma2 in np.logspace(-8, 2, 21):
        for eta2 in np.logspace(-3, 2, 21):
            assert fit.loglik >= density(sigma2, eta2)


def test_zero_process_noise_fit_stays_finite():
    dataset, _ = simulate(SimulationConfig(T=300, n=3, sigma2=0.0, eta2=2.0, seed=4))
    density = _dense_density(dataset)
    fit = mle_fit(dataset)
    assert np.isfinite([fit.sigma2, fit.eta2, fit.loglik]).all()
    assert 0.0 < fit.sigma2 < 1e-2
    assert abs(fit.eta2 - 2.0) / 2.0 <= 0.25
    assert fit.loglik >= density(0.0, fit.eta2)


def test_boundary_optimum_reports_unconverged():
    # Here the likelihood keeps rising as sigma2 / eta2 -> 0: the search ends
    # at the bracket's lower end, with sigma2 negligible and the flag down.
    dataset, _ = simulate(SimulationConfig(T=30, n=1, sigma2=0.01, eta2=5.0, seed=4))
    density = _dense_density(dataset)
    fit = mle_fit(dataset)
    assert not fit.converged
    assert fit.sigma2 < 1e-8 * fit.eta2
    np.testing.assert_allclose(fit.loglik, density(fit.sigma2, fit.eta2), rtol=1e-10)
    assert fit.loglik >= density(0.0, fit.eta2) - 1e-9
    assert fit.loglik > density(1e-4, fit.eta2)


@pytest.mark.parametrize(
    "config",
    [
        SimulationConfig(T=150, n=3, sigma2=0.5, eta2=2.0, seed=3),
        SimulationConfig(T=30, n=1, sigma2=0.01, eta2=5.0, seed=4),  # optimum at the bracket's end
    ],
)
def test_mle_evaluation_count(config):
    # A 61-point scan, then k 21-point rescans.  Each rescan narrows the
    # bracket 10x, or 20x when its best point is at an end, from one or two
    # scan cells down to 1e-8.
    dataset, _ = simulate(config)
    fit = mle_fit(dataset)
    passes, rest = divmod(fit.iterations - 61, 21)
    assert rest == 0
    assert 1 <= passes <= 10
    lam = spectral_system(dataset)[2].eigenvalues
    cell = (abs(np.log(lam[0] / lam[-1])) + 40.0) / 60
    assert np.ceil(np.log(cell / 1e-8) / np.log(20.0)) <= passes <= np.ceil(np.log10(2 * cell / 1e-8))


def test_all_zero_responses_have_no_interior_optimum(rng):
    dataset = make_dataset(rng, T=10, n=2, y=np.zeros(10))
    fit = mle_fit(dataset)
    assert (fit.sigma2, fit.eta2, fit.loglik, fit.converged) == (0.0, 0.0, np.inf, False)
