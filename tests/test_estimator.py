import dataclasses
import gc
import weakref

import numpy as np
import pytest

from stve import (
    FlatSpectrumError,
    NoiseSpec,
    RegressionDataset,
    SimulationConfig,
    StveConfig,
    eigendecompose,
    estimate,
    filter_rows,
    functionals,
    gram_matrix,
    mle_fit,
    quadratic_forms,
    replicate,
    simulate,
    truncation_size,
    write_csv,
)
from stve.cli import main
from stve.estimator import GAP_WARN_THRESHOLD, spectral_system

from conftest import make_dataset, moment_equation_check


def flat_instance():
    """Rows e_t / sqrt(t) make the Gram matrix exactly the identity."""
    T = 4
    u = np.zeros((T, T))
    for t in range(T):
        u[t, t] = 1.0 / np.sqrt(t + 1.0)
    return RegressionDataset(u=u, y=np.ones(T))


class TestTruncationSize:
    def test_quarter_defaults(self):
        assert truncation_size(100, 0.25) == 25
        assert truncation_size(10, 0.25) == 3  # ceil(2.5)
        assert truncation_size(5, 0.5) == 3
        assert truncation_size(1, 0.25) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            truncation_size(0, 0.25)
        with pytest.raises(ValueError):
            truncation_size(10, 0.0)
        with pytest.raises(ValueError):
            truncation_size(10, 1.5)


class TestStveConfig:
    def test_defaults(self):
        cfg = StveConfig()
        assert cfg.alpha == 0.25
        assert [f.name for f in dataclasses.fields(cfg)] == ["alpha"]

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            StveConfig(alpha=0.0)
        with pytest.raises(ValueError):
            StveConfig(alpha=1.2)


class TestEstimate:
    def test_zero_response_gives_zero_estimates(self, rng):
        ds = make_dataset(rng, 30, 3, y=np.zeros(30))
        result = estimate(ds)
        assert result.sigma2 == 0.0
        assert result.eta2 == 0.0
        assert result.sigma2_raw == 0.0
        assert result.eta2_raw == 0.0

    def test_raw_solution_satisfies_both_identities(self, rng):
        ds = make_dataset(rng, 50, 3)
        result = estimate(ds)
        filtered, _ = filter_rows(ds)
        spec = eigendecompose(gram_matrix(filtered))
        p = result.functionals.p
        full, trunc = quadratic_forms(spec, filtered.y, p)
        T_eff = filtered.horizon
        lhs_full = full / T_eff
        lhs_trunc = trunc / p
        rhs_full = result.sigma2_raw + (result.functionals.pinv_hs_sq / T_eff) * result.eta2_raw
        rhs_trunc = result.sigma2_raw + (result.functionals.trunc_hs_sq / p) * result.eta2_raw
        assert rhs_full == pytest.approx(lhs_full, rel=1e-10, abs=1e-12)
        assert rhs_trunc == pytest.approx(lhs_trunc, rel=1e-10, abs=1e-12)

    def test_deterministic(self, rng):
        ds = make_dataset(rng, 40, 2)
        a = estimate(ds)
        b = estimate(ds)
        assert a.sigma2 == b.sigma2 and a.eta2 == b.eta2

    def test_flat_spectrum_raises(self):
        with pytest.raises(FlatSpectrumError):
            estimate(flat_instance())
        assert issubclass(FlatSpectrumError, RuntimeError)

    def test_near_flat_warns_but_runs(self):
        T = 4
        u = np.zeros((T, T))
        for t in range(T):
            u[t, t] = 1.0 / np.sqrt(t + 1.0)
        u[:, 0] += 1e-3  # tiny shared component lifts the gap off 1
        ds = RegressionDataset(u=u, y=np.ones(T))
        result = estimate(ds)
        assert any("gap ratio" in w for w in result.warnings)
        assert result.functionals.gap_ratio > 1.0

    def test_too_few_rows(self, rng):
        ds = make_dataset(rng, 3, 1)
        with pytest.raises(ValueError):
            estimate(ds)
        # stricter alpha needs more rows: ceil(1/0.05) = 20
        ds10 = make_dataset(rng, 10, 1)
        with pytest.raises(ValueError):
            estimate(ds10, StveConfig(alpha=0.05))

    def test_masked_rows_are_dropped_not_imputed(self, rng):
        ds = make_dataset(rng, 40, 2, missing=(5, 6, 7))
        result = estimate(ds)
        assert result.effective_T == 37
        assert result.dropped.tolist() == [5, 6, 7]
        assert not result.dropped.flags.writeable

    def test_eta_clamp_branch(self):
        # true eta2 = 0 makes a negative raw eta2 likely at short horizons
        ds, _ = simulate(SimulationConfig(T=40, n=2, sigma2=1.0, eta2=0.0, seed=0))
        result = estimate(ds)
        assert result.eta2_raw < 0.0
        assert result.eta2 == 0.0
        # sigma2 re-solved from the full-spectrum identity with eta2 = 0
        filtered, _ = filter_rows(ds)
        spec = eigendecompose(gram_matrix(filtered))
        full, _trunc = quadratic_forms(spec, filtered.y, result.functionals.p)
        assert result.sigma2 == pytest.approx(full / filtered.horizon, rel=1e-12)
        assert any("clamped" in w for w in result.warnings)

    def test_sigma_clamp_branch(self):
        ds, _ = simulate(SimulationConfig(T=40, n=2, sigma2=0.0, eta2=1.0, seed=4))
        result = estimate(ds)
        assert result.sigma2_raw < 0.0
        assert result.sigma2 == 0.0
        filtered, _ = filter_rows(ds)
        spec = eigendecompose(gram_matrix(filtered))
        full, _trunc = quadratic_forms(spec, filtered.y, result.functionals.p)
        assert result.eta2 == pytest.approx(full / result.functionals.pinv_hs_sq, rel=1e-12)
        assert any("clamped" in w for w in result.warnings)

    def test_clamped_outputs_never_negative(self):
        for seed in range(30):
            ds, _ = simulate(SimulationConfig(T=25, n=2, sigma2=0.3, eta2=0.3, seed=seed))
            result = estimate(ds)
            assert result.sigma2 >= 0.0
            assert result.eta2 >= 0.0

    def test_monte_carlo_concentration_no_observation_noise(self):
        # constant scalar design, sigma2 = 1, eta2 = 0: averaged estimates
        # concentrate near the truth (margins ~3x the observed mean errors)
        config = SimulationConfig(T=200, n=1, sigma2=1.0, eta2=0.0, u=[1.0], seed=77)

        def point(ds):
            r = estimate(ds)
            return r.sigma2, r.eta2

        result = replicate(config, 200, {"stve": point})["stve"]
        assert result.mean_abs_error_sigma2 < 0.35
        assert result.mean_abs_error_eta2 < 0.12


class TestMomentEquationCheck:
    @pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
    def test_pure_process_noise(self, rng, family):
        ds = make_dataset(rng, 60, 2)
        check = moment_equation_check(
            ds,
            NoiseSpec(family, 1.0),
            NoiseSpec(family, 0.0),
            replications=400,
            seed=11,
        )
        assert check.analytic_full == pytest.approx(1.0, abs=1e-15)
        assert check.analytic_trunc == pytest.approx(1.0, abs=1e-15)
        assert abs(check.z_full) < 4.0
        assert abs(check.z_trunc) < 4.0

    def test_pure_observation_noise(self, rng):
        ds = make_dataset(rng, 60, 2)
        filtered, _ = filter_rows(ds)
        spec = eigendecompose(gram_matrix(filtered))
        p = truncation_size(filtered.horizon, 0.25)
        funcs = functionals(spec, p)
        check = moment_equation_check(
            ds, NoiseSpec("gaussian", 0.0), NoiseSpec("gaussian", 1.0), 400, seed=12
        )
        assert check.analytic_full == pytest.approx(funcs.pinv_hs_sq / filtered.horizon, rel=1e-12)
        assert check.analytic_trunc == pytest.approx(funcs.trunc_hs_sq / p, rel=1e-12)
        assert abs(check.z_full) < 4.0
        assert abs(check.z_trunc) < 4.0

    def test_mixed_variances(self, rng):
        ds = make_dataset(rng, 60, 3)
        check = moment_equation_check(
            ds, NoiseSpec("gaussian", 0.5), NoiseSpec("gaussian", 2.0), 400, seed=13
        )
        assert abs(check.z_full) < 4.0
        assert abs(check.z_trunc) < 4.0

    def test_respects_mask_time_labels(self, rng):
        ds = make_dataset(rng, 50, 2, missing=(10, 11, 12))
        check = moment_equation_check(
            ds, NoiseSpec("gaussian", 1.0), NoiseSpec("gaussian", 1.0), 300, seed=14
        )
        assert check.effective_T == 47
        assert abs(check.z_full) < 4.0
        assert abs(check.z_trunc) < 4.0

    def test_replication_floor(self, rng):
        ds = make_dataset(rng, 20, 1)
        with pytest.raises(ValueError):
            moment_equation_check(ds, NoiseSpec(), NoiseSpec(), 1)


class TestGapDiagnostic:
    def test_all_ones_instance(self):
        # the quarter-truncation gap of the all-ones design converges to
        # about 1.90 from T = 5 up (computed directly; it never reaches 2)
        T = 100
        ds = RegressionDataset(u=np.ones((T, 1)), y=np.zeros(T))
        result = estimate(ds)
        funcs = result.functionals
        assert funcs.gap_ratio > 1.8
        assert funcs.gap_ratio >= 1.0 + GAP_WARN_THRESHOLD
        assert not any("gap ratio" in w for w in result.warnings)
        assert result.gap_lower_bound > 0.0
        # with n = 1 and unit rows the bound collapses to the mean inverse mass
        assert result.gap_lower_bound == pytest.approx(funcs.pinv_hs_sq / T, rel=1e-12)

    def test_small_gap_warns(self):
        # Orthogonal rows u_t = sqrt(lambda_t / t) e_t make the Gram matrix
        # diag(lambda); with p = 1 the gap ratio is (1/0.98) / mean(1/lambda).
        lam = np.array([1.0, 1.0, 1.0, 0.98])
        ds = RegressionDataset(u=np.diag(np.sqrt(lam / np.arange(1, 5))), y=np.ones(4))
        result = estimate(ds)
        assert result.functionals.p == 1
        assert result.functionals.gap_ratio == pytest.approx((1 / 0.98) / np.mean(1 / lam), rel=1e-12)
        assert 1.0 + 1e-12 < result.functionals.gap_ratio < 1.0 + GAP_WARN_THRESHOLD
        assert "gap ratio 1.015228 below 1 + 0.05; estimates may be unstable" in result.warnings

    def test_estimate_reports_same_bound(self, rng):
        # the reported bound is the row-norm formula
        # min_t |sum_j u_tj| / (n max_t ||u_t||) times the mean inverse mass
        ds = make_dataset(rng, 60, 2)
        result = estimate(ds)
        ratio = np.abs(ds.u.sum(axis=1)).min() / (2 * np.linalg.norm(ds.u, axis=1).max())
        expected = ratio * result.functionals.pinv_hs_sq / 60
        assert result.gap_lower_bound == pytest.approx(expected, rel=1e-12)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts calls of np.linalg.eigh."""
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Counts calls of np.linalg.eigvalsh."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


class TestSpectralSystem:
    def test_one_eigh_per_dataset(self, rng, eigh_calls):
        ds = make_dataset(rng, 60, 3)
        estimate(ds)
        mle_fit(ds)
        moment_equation_check(ds, NoiseSpec(), NoiseSpec(), 10)
        assert len(eigh_calls) == 1

    def test_spectrum_command_computes_eigenvalues_only(self, rng, tmp_path, eigh_calls, eigvalsh_calls):
        path = tmp_path / "data.csv"
        write_csv(make_dataset(rng, 60, 3, missing=(7, 30)), str(path))
        assert main(["spectrum", "--input", str(path), "--out", str(tmp_path / "spectrum.csv")]) == 0
        assert (len(eigh_calls), len(eigvalsh_calls)) == (0, 1)

    def test_cached_spectrum_dies_with_its_dataset(self, rng):
        ds = make_dataset(rng, 30, 2)
        filtered, dropped, spectrum = spectral_system(ds)
        assert spectral_system(ds)[2] is spectrum
        assert not dropped.flags.writeable
        ref = weakref.ref(spectrum)
        del ds, filtered, dropped, spectrum
        gc.collect()
        assert ref() is None

    def test_too_short_data_fails_before_eigh(self, rng, eigh_calls):
        ds = make_dataset(rng, 300, 2)
        message = "need at least 10000 rows after filtering, have 300"
        with pytest.raises(ValueError, match=message):
            estimate(ds, StveConfig(alpha=1e-4))
        assert len(eigh_calls) == 0
        spectral_system(ds)  # cached now; the check must still run on a hit
        with pytest.raises(ValueError, match=message):
            estimate(ds, StveConfig(alpha=1e-4))
        assert len(eigh_calls) == 1


def benchmark_replication(seed, replication):
    """Dataset `replication` of the T=1000 row of `stve benchmark --n 1
    --T-grid 250,500,1000 --reps 100 --seed <seed>`, seeded the way
    benchmark_table and replicate seed it."""
    horizon_seed = np.random.SeedSequence(seed).spawn(3)[2].generate_state(1, np.uint64)[0]
    config = SimulationConfig(T=1000, n=1, sigma2=0.5, eta2=2.0, seed=int(horizon_seed))
    dataset, _states = simulate(config, np.random.SeedSequence(config.seed).spawn(100)[replication])
    return dataset


class TestRowFloor:
    @pytest.mark.parametrize("seed, replication, label", [(1, 78, 254), (2, 57, 372)])
    def test_benchmark_replication_drops_its_negligible_row(self, seed, replication, label):
        # One row with |u_t| far below the rest (Gram diagonal 1e-15 and 3e-12
        # of the largest) left an eigenvalue that eigh cannot resolve, and the
        # whole benchmark table was refused as numerically singular.
        result = estimate(benchmark_replication(seed, replication))
        assert result.dropped.tolist() == [label]
        assert np.all(np.isfinite([result.sigma2, result.eta2, result.sigma2_raw, result.eta2_raw]))

    def test_rescaled_design_drops_the_same_rows(self, rng):
        u = rng.normal(size=(40, 2))
        u[6] *= 1e-9
        y = rng.normal(size=40)
        base = estimate(RegressionDataset(u=u, y=y))
        scaled = estimate(RegressionDataset(u=u * 2.0**-30, y=y))
        assert base.dropped.tolist() == scaled.dropped.tolist() == [7]
        for name in ("sigma2", "sigma2_raw"):
            assert getattr(scaled, name) == pytest.approx(getattr(base, name) * 2.0**60, rel=1e-12)
        for name in ("eta2", "eta2_raw"):
            assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-12)
