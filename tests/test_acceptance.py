"""End-to-end acceptance checks, one test per shipped guarantee.

Each test covers one numbered guarantee, asserts its stated tolerance (and
runtime budget, where one is stated), and prints a single
"criterion N (...): PASS" line on success.
"""

import math
import time

import numpy as np
import pytest

from conftest import brute_force_pinv_quantities, difference_spectrum, make_dataset, moment_equation_check
from test_cli import parse_table, run_cli
from test_kalman import scalar_oracle

from stve.baselines import online_gradient_run, stationary_regression, tune_learning_rate
from stve.cli import _stve_point_estimator
from stve.dataio import write_csv
from stve.estimator import estimate
from stve.kalman import KalmanConfig, run_filter
from stve.operators import (
    RegressionDataset,
    gram_matrix,
    select_rows,
)
from stve.simulator import NoiseSpec, SimulationConfig, benchmark_table, simulate
from stve.spectral import eigendecompose, functionals, quadratic_forms


def test_criterion_1_closed_form_spectrum_oracle():
    started = time.perf_counter()

    # The first-difference singular values follow the sine closed form.
    for T in (2, 3, 5, 8, 20, 100, 357):
        ls = np.arange(1, T, dtype=np.float64)
        expected = 2.0 * np.sin(np.pi * (T - ls) / (2.0 * T))
        assert np.array_equal(difference_spectrum(T), expected)

    # Cross-check against a dense SVD of the materialized difference map.
    for T in (5, 20, 100):
        diff = np.eye(T - 1, T, k=1) - np.eye(T - 1, T)
        np.testing.assert_allclose(
            difference_spectrum(T),
            np.linalg.svd(diff, compute_uv=False),
            rtol=0.0,
            atol=1e-9,
        )

    # All-ones design: the inverse prefix-sum spectrum sits inside the
    # shifted-sine sandwich.
    for T in (5, 20, 100):
        ds = RegressionDataset(u=np.ones((T, 1)), y=np.zeros(T))
        lam = np.sort(1.0 / np.sqrt(eigendecompose(gram_matrix(ds)).eigenvalues))[::-1]
        t = np.arange(1, T + 1, dtype=np.float64)
        lower = 2.0 * np.sin(np.pi * (T - t) / (2.0 * (T + 1)))
        upper = 2.0 * np.sin(np.pi * (T + 1 - t) / (2.0 * (T + 1)))
        assert np.all(lam >= lower - 1e-9)
        assert np.all(lam <= upper + 1e-9)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 (closed-form spectrum oracle): PASS in {elapsed:.2f}s")


def test_criterion_2_brute_force_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    for _ in range(50):
        T = int(rng.integers(3, 13))
        n = int(rng.integers(1, 5))
        u = rng.normal(size=(T, n)) * float(rng.uniform(0.5, 2.0))
        y = rng.normal(size=T)
        observed = np.ones(T, dtype=bool)
        if T >= 6 and rng.random() < 0.4:
            drop = rng.choice(T, size=int(rng.integers(1, 3)), replace=False)
            observed[drop] = False
        ds = RegressionDataset(u=u, y=y, observed=observed)
        reduced = select_rows(ds, np.flatnonzero(ds.observed))

        p = int(rng.integers(1, reduced.horizon + 1))
        spectrum = eigendecompose(gram_matrix(reduced))
        full_sq, trunc_sq = quadratic_forms(spectrum, reduced.y, p)
        funcs = functionals(spectrum, p)
        oracle = brute_force_pinv_quantities(reduced, reduced.y, p)

        assert full_sq == pytest.approx(oracle["rY_sq"], rel=1e-9)
        assert trunc_sq == pytest.approx(oracle["rpY_sq"], rel=1e-9)
        assert funcs.pinv_hs_sq == pytest.approx(oracle["hs_R_sq"], rel=1e-9)
        assert funcs.trunc_hs_sq == pytest.approx(oracle["hs_Rp_sq"], rel=1e-9)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 2 (brute-force equivalence, 50 instances): PASS in {elapsed:.2f}s")


def test_criterion_3_moment_identity():
    started = time.perf_counter()
    idx = 0
    for family in ("gaussian", "rademacher", "uniform"):
        for sigma2, eta2 in ((1.0, 0.0), (0.0, 1.0), (0.5, 2.0)):
            for n in (1, 5):
                design_rng = np.random.default_rng(1000 + idx)
                ds = RegressionDataset(
                    u=design_rng.normal(size=(300, n)), y=np.zeros(300)
                )
                check = moment_equation_check(
                    ds,
                    NoiseSpec(family, sigma2),
                    NoiseSpec(family, eta2),
                    replications=400,
                    seed=2000 + idx,
                )
                for analytic, sample, stderr in (
                    (check.analytic_full, check.sample_full, check.stderr_full),
                    (check.analytic_trunc, check.sample_trunc, check.stderr_trunc),
                ):
                    scale = max(1.0, abs(analytic))
                    if stderr < 1e-9 * scale:
                        # Degenerate cell: the statistic is exactly constant
                        # (e.g. n=1 unmasked with two-point increments and no
                        # observation noise), so the observed spread is float
                        # rounding and a z-score would compare rounding noise
                        # with rounding noise.  Require absolute agreement at
                        # the same 1e-9 scale instead, which is far stricter
                        # than any 4-stderr band the z-branch accepts.
                        assert abs(sample - analytic) <= 1e-9 * scale
                    else:
                        assert abs(sample - analytic) <= 4.0 * stderr
                idx += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 3 (moment identity, 18 cells x 400 reps): PASS in {elapsed:.2f}s")


def test_criterion_4_error_decay_rates():
    started = time.perf_counter()
    rows = benchmark_table(
        SimulationConfig(T=125, n=5, sigma2=0.5, eta2=2.0, noise_family="gaussian", seed=0),
        [125, 250, 500, 1000],
        150,
        {"stve": _stve_point_estimator},
    )
    ordered = sorted(rows, key=lambda row: row["T"])
    sig = [row["mean_abs_err_sigma2"] for row in ordered]
    eta = [row["mean_abs_err_eta2"] for row in ordered]
    assert all(a > b for a, b in zip(sig, sig[1:])), f"sigma2 errors not decreasing: {sig}"
    assert all(a > b for a, b in zip(eta, eta[1:])), f"eta2 errors not decreasing: {eta}"
    assert all(row["slope_defined"] for row in rows)
    slopes = {param: rows[0][f"slope_{param}"] for param in ("sigma2", "eta2")}
    for param, slope in slopes.items():
        assert -0.9 <= slope <= -0.2, f"{param} slope {slope}"

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(
        "criterion 4 (error decay over T-grid): PASS in "
        f"{elapsed:.1f}s, slopes sigma2={slopes['sigma2']:.2f} eta2={slopes['eta2']:.2f}"
    )


def test_criterion_5_spectrum_gap_reproduction(tmp_path):
    started = time.perf_counter()
    dataset, _states = simulate(SimulationConfig(T=500, n=5, sigma2=0.5, eta2=2.0, seed=11))
    path = tmp_path / "gapcheck.csv"
    write_csv(dataset, str(path))

    code, out, _err = run_cli(["spectrum", "--input", str(path)])
    assert code == 0
    _comments, header, rows = parse_table(out)
    assert header == ["i", "gamma_sq", "chi_sq", "truncated_mean", "full_mean"]
    p = 500 // 4
    row = rows[p - 1]
    assert int(row[0]) == p
    gap_ratio = float(row[3]) / float(row[4])
    assert gap_ratio > 2.0

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 5 (spectrum gap at p=T/4): PASS, ratio {gap_ratio:.2f} in {elapsed:.2f}s")


def test_criterion_6_kalman_closed_form_and_scalar_oracle():
    started = time.perf_counter()

    # Harmonic covariance decay: sigma2 = 0, C_0 = eta2, u constant.
    eta2 = 2.0
    T = 1000
    ds = RegressionDataset(u=np.ones((T, 1)), y=np.zeros(T))
    traj = run_filter(ds, KalmanConfig(sigma2=0.0, eta2=eta2, c0_scale=eta2))
    expected = eta2 / (np.arange(1, T + 1, dtype=np.float64) + 1.0)
    assert float(np.max(np.abs(traj.scales - expected))) <= 1e-12

    # Agreement with an independently coded scalar filter on random instances.
    rng = np.random.default_rng(606)
    for _ in range(100):
        T = int(rng.integers(5, 61))
        sigma2 = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.85 else 0.0
        eta2 = float(rng.uniform(0.05, 3.0))
        c0 = float(rng.uniform(0.1, 50.0))
        x0 = float(rng.normal()) if rng.random() < 0.5 else 0.0
        u = rng.normal(size=(T, 1))
        y = rng.normal(size=T)
        observed = np.ones(T, dtype=bool)
        if rng.random() < 0.5:
            k = int(rng.integers(1, max(2, T // 4)))
            observed[rng.choice(T, size=k, replace=False)] = False
        ds = RegressionDataset(u=u, y=y, observed=observed)

        traj = run_filter(
            ds, KalmanConfig(sigma2=sigma2, eta2=eta2, x0=np.array([x0]), c0_scale=c0)
        )
        states, covs, preds, inns, loglik = scalar_oracle(
            ds.y, ds.u[:, 0], ds.observed, sigma2, eta2, x0, c0
        )
        np.testing.assert_allclose(traj.states[:, 0], states, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(traj.scales, covs, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(traj.predictions, preds, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(
            traj.innovations, inns, rtol=1e-10, atol=1e-10, equal_nan=True
        )
        assert abs(traj.loglik - loglik) <= 1e-10 * max(1.0, abs(loglik))

    elapsed = time.perf_counter() - started
    print(f"criterion 6 (filter closed form + scalar oracle x100): PASS in {elapsed:.2f}s")


def test_criterion_7_masking_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(20):
        T = int(rng.integers(40, 121))
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, T // 3))
        missing = 1 + rng.choice(T, size=k, replace=False)
        ds = make_dataset(rng, T, n, missing=tuple(int(m) for m in missing))
        reduced = select_rows(ds, np.flatnonzero(ds.observed))

        masked_est = estimate(ds)
        reduced_est = estimate(reduced)
        assert masked_est.effective_T == reduced_est.effective_T
        for got, want in (
            (masked_est.sigma2, reduced_est.sigma2),
            (masked_est.eta2, reduced_est.eta2),
            (masked_est.sigma2_raw, reduced_est.sigma2_raw),
            (masked_est.eta2_raw, reduced_est.eta2_raw),
        ):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    elapsed = time.perf_counter() - started
    print(f"criterion 7 (masking equivalence, 20 patterns): PASS in {elapsed:.2f}s")


def test_criterion_8_baseline_ordering_on_drifting_data():
    started = time.perf_counter()
    T, n, sigma2, eta2, split, jump = 500, 3, 1.0, 1.0, 250, 5.0
    results = []
    for seed in np.random.SeedSequence(2024).spawn(50):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((T, n))
        steps = rng.standard_normal((T, n)) * math.sqrt(sigma2)
        states = np.cumsum(steps, axis=0)
        direction = rng.standard_normal(n)
        direction *= jump / np.linalg.norm(direction)
        states[split:] += direction
        y = np.einsum("ti,ti->t", u, states) + rng.standard_normal(T) * math.sqrt(eta2)
        ds = RegressionDataset(u=u, y=y)
        train = RegressionDataset(u=u[:split], y=y[:split])
        tail = slice(split, T)

        est = estimate(train)
        cfg = KalmanConfig(sigma2=max(est.sigma2, 0.0), eta2=max(est.eta2, 1e-8))
        kalman_err = float(np.mean((y[tail] - run_filter(ds, cfg).predictions[tail]) ** 2))

        rate = tune_learning_rate(train)
        og_run = online_gradient_run(ds, rate)
        og_err = float(np.mean((y[tail] - og_run.predictions[tail]) ** 2))

        coef = stationary_regression(train)
        stat_err = float(np.mean((y[tail] - u[tail] @ coef) ** 2))
        results.append((kalman_err, og_err, stat_err))

    errs = np.array(results)
    mean_kalman, mean_og, mean_stat = errs.mean(axis=0)
    assert mean_kalman < mean_og < mean_stat
    rate_kalman_beats_og = float(np.mean(errs[:, 0] < errs[:, 1]))
    rate_og_beats_stat = float(np.mean(errs[:, 1] < errs[:, 2]))
    assert rate_kalman_beats_og >= 0.70
    assert rate_og_beats_stat >= 0.95

    elapsed = time.perf_counter() - started
    print(
        "criterion 8 (two-regime baseline ordering): PASS in "
        f"{elapsed:.1f}s, means {mean_kalman:.2f} < {mean_og:.2f} < {mean_stat:.1f}, "
        f"rates {rate_kalman_beats_og:.2f}/{rate_og_beats_stat:.2f}"
    )


def test_criterion_9_nuclear_norm_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    for _ in range(100):
        T = int(rng.integers(10, 201))
        n = int(rng.integers(1, 9))
        u = rng.normal(size=(T, n)) * float(rng.uniform(0.3, 3.0))
        ds = RegressionDataset(u=u, y=np.zeros(T))
        nuclear = float(np.sqrt(eigendecompose(gram_matrix(ds)).eigenvalues).sum())
        u_max = float(np.linalg.norm(u, axis=1).max())
        assert nuclear <= 4.0 * n * u_max * T * math.log(T)

    elapsed = time.perf_counter() - started
    print(f"criterion 9 (nuclear-norm bound, 100 instances): PASS in {elapsed:.2f}s")
