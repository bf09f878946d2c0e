"""Noise families, trajectory generation, and the replication harness."""
import math
from dataclasses import replace

import numpy as np
import pytest

from stve import (
    NOISE_FAMILIES,
    NoiseSpec,
    ReplicationResult,
    SimulationConfig,
    estimate,
    mle_fit,
    replicate,
    simulate,
)
from stve.simulator import benchmark_table


def _second_moment_stub(dataset):
    # Cheap deterministic per-dataset estimator with O(1) spread across
    # replications.
    return float(np.mean(dataset.y**2)), float(np.var(dataset.y))


# ---------------------------------------------------------------------------
# noise families


@pytest.mark.parametrize("family", NOISE_FAMILIES)
def test_sample_moments(family):
    variance = 1.7
    draws = NoiseSpec(family, variance).sample(np.random.default_rng(3), 200_000)
    se_mean = math.sqrt(variance / draws.size)
    assert abs(draws.mean()) < 5 * se_mean
    # variance of the sample variance ~ (E X^4 - v^2)/N <= 3 v^2 / N here
    se_var = math.sqrt(3.0 * variance**2 / draws.size)
    assert abs(draws.var() - variance) < 5 * se_var


def test_rademacher_support():
    variance = 0.49
    draws = NoiseSpec("rademacher", variance).sample(np.random.default_rng(4), 10_000)
    root = math.sqrt(variance)
    assert set(np.unique(draws)) == {-root, root}
    # both signs get roughly half the mass
    share = np.mean(draws > 0)
    assert 0.45 < share < 0.55


def test_uniform_support():
    variance = 2.0
    bound = math.sqrt(3.0 * variance)
    draws = NoiseSpec("uniform", variance).sample(np.random.default_rng(5), 50_000)
    assert np.all(np.abs(draws) <= bound)
    assert np.max(np.abs(draws)) > 0.999 * bound


def test_gaussian_has_unbounded_tails():
    variance = 1.0
    draws = NoiseSpec("gaussian", variance).sample(np.random.default_rng(6), 50_000)
    assert np.max(np.abs(draws)) > math.sqrt(3.0 * variance)


@pytest.mark.parametrize("family", NOISE_FAMILIES)
def test_zero_variance_collapses_to_zero(family):
    draws = NoiseSpec(family, 0.0).sample(np.random.default_rng(7), 1000)
    assert np.all(draws == 0.0)


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="family"):
        NoiseSpec("cauchy", 1.0)
    with pytest.raises(ValueError, match="variance"):
        NoiseSpec("gaussian", -0.5)
    with pytest.raises(ValueError, match="variance"):
        NoiseSpec("gaussian", np.inf)


# ---------------------------------------------------------------------------
# simulate


def test_noiseless_simulation_is_identically_zero():
    dataset, states = simulate(SimulationConfig(T=50, n=2, sigma2=0.0, eta2=0.0, seed=1))
    assert np.all(dataset.y == 0.0)
    assert np.all(states == 0.0)


def test_zero_process_noise_freezes_states():
    # The walk starts at the first process-noise draw, so sigma2 = 0 pins the
    # coefficients at zero and leaves pure observation noise.
    config = SimulationConfig(T=2000, n=3, sigma2=0.0, eta2=1.5, seed=2)
    dataset, states = simulate(config)
    assert np.all(states == 0.0)
    se_var = math.sqrt(3.0 * 1.5**2 / config.T)
    assert abs(np.var(dataset.y) - 1.5) < 5 * se_var


def test_zero_observation_noise_gives_exact_inner_products():
    dataset, states = simulate(SimulationConfig(T=40, n=2, sigma2=1.0, eta2=0.0, seed=3))
    np.testing.assert_array_equal(dataset.y, np.einsum("ti,ti->t", dataset.u, states))


def test_states_are_prefix_sums_with_matching_increment_variance():
    sigma2 = 0.6
    config = SimulationConfig(T=20_000, n=3, sigma2=sigma2, eta2=0.0, seed=4)
    _dataset, states = simulate(config)
    increments = np.diff(states, axis=0, prepend=np.zeros((1, 3)))
    assert np.any(states[0] != 0.0)  # initial coefficient is a noise draw
    count = increments.size
    se_var = math.sqrt(3.0 * sigma2**2 / count)
    assert abs(np.var(increments) - sigma2) < 5 * se_var


@pytest.mark.parametrize("family", NOISE_FAMILIES)
def test_observation_noise_variance_monte_carlo(family):
    # Sample variance of Y_t - <X_t, u_t> over 1e5 steps is within Monte-Carlo
    # precision of eta2.
    eta2 = 2.0
    config = SimulationConfig(
        T=100_000, n=1, sigma2=0.5, eta2=eta2, noise_family=family, seed=9
    )
    dataset, states = simulate(config)
    residual = dataset.y - np.einsum("ti,ti->t", dataset.u, states)
    se_var = math.sqrt(3.0 * eta2**2 / config.T)
    assert abs(np.var(residual) - eta2) < 3 * se_var


def test_bitwise_determinism():
    config = SimulationConfig(T=64, n=4, sigma2=0.3, eta2=0.9, seed=77, missing=(5,))
    first_ds, first_states = simulate(config)
    again = SimulationConfig(T=64, n=4, sigma2=0.3, eta2=0.9, seed=77, missing=(5,))
    second_ds, second_states = simulate(again)
    assert np.array_equal(first_ds.u, second_ds.u)
    assert np.array_equal(first_ds.y, second_ds.y)
    assert np.array_equal(first_ds.observed, second_ds.observed)
    assert np.array_equal(first_states, second_states)


def test_explicit_seed_sequence_matches_config_seed():
    config = SimulationConfig(T=32, n=2, sigma2=1.0, eta2=1.0, seed=123)
    implicit, _ = simulate(config)
    explicit, _ = simulate(config, np.random.SeedSequence(123))
    assert np.array_equal(implicit.y, explicit.y)


def test_different_seeds_differ():
    base = SimulationConfig(T=32, n=2, sigma2=1.0, eta2=1.0, seed=1)
    other = SimulationConfig(T=32, n=2, sigma2=1.0, eta2=1.0, seed=2)
    assert not np.array_equal(simulate(base)[0].y, simulate(other)[0].y)


def test_missing_pattern_masks_one_based_indices():
    dataset, _ = simulate(
        SimulationConfig(T=10, n=1, sigma2=1.0, eta2=1.0, seed=5, missing=(1, 5))
    )
    expected = np.ones(10, dtype=bool)
    expected[[0, 4]] = False
    assert np.array_equal(dataset.observed, expected)


def test_constant_u_rows():
    vec = np.array([1.0, -2.0])
    config = SimulationConfig(T=12, n=2, sigma2=0.5, eta2=0.5, u=vec, seed=6)
    dataset, _ = simulate(config)
    assert np.array_equal(dataset.u, np.tile(vec, (12, 1)))
    # benchmark_table sets T per horizon; a row carries over to any T
    dataset, _ = simulate(replace(config, T=7))
    assert np.array_equal(dataset.u, np.tile(vec, (7, 1)))


def test_array_u_passthrough(rng):
    mat = rng.normal(size=(9, 2))
    dataset, _ = simulate(SimulationConfig(T=9, n=2, sigma2=0.5, eta2=0.5, u=mat, seed=8))
    assert np.array_equal(dataset.u, mat)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(T=1, n=1, sigma2=1.0, eta2=1.0), "T"),
        (dict(T=5, n=0, sigma2=1.0, eta2=1.0), "n"),
        (dict(T=5, n=1, sigma2=-1.0, eta2=1.0), "sigma2"),
        (dict(T=5, n=1, sigma2=1.0, eta2=np.nan), "eta2"),
        (dict(T=5, n=1, sigma2=1.0, eta2=1.0, noise_family="levy"), "family"),
        (dict(T=5, n=2, sigma2=1.0, eta2=1.0, u=[1.0, np.inf]), "u must be"),
        (dict(T=5, n=2, sigma2=1.0, eta2=1.0, u=[1.0]), "u must be"),
        (dict(T=5, n=1, sigma2=1.0, eta2=1.0, u=1.0), "u must be"),
        (dict(T=5, n=1, sigma2=1.0, eta2=1.0, u=np.full((5, 1), np.nan)), "u must be"),
        (dict(T=5, n=2, sigma2=1.0, eta2=1.0, u=np.ones((4, 2))), "u must be"),
        (dict(T=5, n=1, sigma2=1.0, eta2=1.0, missing=(0,)), "missing"),
        (dict(T=5, n=1, sigma2=1.0, eta2=1.0, missing=(6,)), "missing"),
        (dict(T=5, n=1, sigma2=1.0, eta2=1.0, missing=(2, 2)), "distinct"),
        (dict(T=5, n=1, sigma2=1.0, eta2=1.0, seed=-1), "seed"),
        (dict(T=5, n=1, sigma2=1.0, eta2=1.0, seed=1.5), "seed"),
        (dict(T=10, n=2, sigma2=0.5, eta2=2.0, missing=tuple(range(1, 10))), "2 observed rows"),
    ],
)
def test_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SimulationConfig(**kwargs)


# ---------------------------------------------------------------------------
# replicate


def test_truth_stub_gives_zero_errors():
    config = SimulationConfig(T=30, n=2, sigma2=0.4, eta2=1.1, seed=11)
    result = replicate(config, 8, {"truth": lambda dataset: (0.4, 1.1)})["truth"]
    assert isinstance(result, ReplicationResult)
    assert result.replications == 8
    assert result.mean_abs_error_sigma2 == 0.0
    assert result.mean_abs_error_eta2 == 0.0
    assert result.stderr_sigma2 == 0.0
    assert result.stderr_eta2 == 0.0


def test_replications_are_independent_draws():
    config = SimulationConfig(T=30, n=2, sigma2=0.4, eta2=1.1, seed=11)
    result = replicate(config, 16, {"stub": _second_moment_stub})["stub"]
    assert result.sigma2_errors.std() > 0.0
    assert len(np.unique(result.eta2_errors)) == 16
    other = replicate(
        SimulationConfig(T=30, n=2, sigma2=0.4, eta2=1.1, seed=12), 16, {"stub": _second_moment_stub}
    )["stub"]
    assert not np.array_equal(result.sigma2_errors, other.sigma2_errors)


def test_doubling_replications_shrinks_stderr_by_root_two():
    config = SimulationConfig(T=30, n=2, sigma2=0.4, eta2=1.1, seed=13)
    half = replicate(config, 200, {"stub": _second_moment_stub})["stub"]
    full = replicate(config, 400, {"stub": _second_moment_stub})["stub"]
    # spawned children are keyed by index, so the first 200 replications agree
    np.testing.assert_array_equal(full.sigma2_errors[:200], half.sigma2_errors)
    ratio = half.stderr_sigma2 / full.stderr_sigma2
    assert 1.2 < ratio < 1.7
    ratio_eta = half.stderr_eta2 / full.stderr_eta2
    assert 1.2 < ratio_eta < 1.7


def test_replicate_requires_two_replications():
    config = SimulationConfig(T=10, n=1, sigma2=1.0, eta2=1.0, seed=15)
    with pytest.raises(ValueError, match="replications"):
        replicate(config, 1, {"stub": _second_moment_stub})


def test_estimators_share_each_dataset_without_changing_results():
    # one replicate over two estimators equals one replicate per estimator
    def stve_point(dataset):
        result = estimate(dataset)
        return result.sigma2, result.eta2

    def mle_point(dataset):
        result = mle_fit(dataset)
        return result.sigma2, result.eta2

    config = SimulationConfig(T=40, n=3, sigma2=0.5, eta2=2.0, seed=16)
    both = replicate(config, 6, {"stve": stve_point, "mle": mle_point})
    assert list(both) == ["stve", "mle"]
    for name, fn in (("stve", stve_point), ("mle", mle_point)):
        alone = replicate(config, 6, {name: fn})[name]
        assert np.array_equal(both[name].sigma2_errors, alone.sigma2_errors)
        assert np.array_equal(both[name].eta2_errors, alone.eta2_errors)


@pytest.mark.filterwarnings("error")
def test_benchmark_table_slope_undefined_on_a_single_horizon():
    # repeating one horizon gives nothing to fit a decay slope to
    cell = SimulationConfig(T=20, n=2, sigma2=0.4, eta2=1.1)
    rows = benchmark_table(cell, [20, 20, 20], 3, {"stub": _second_moment_stub})
    assert [row["T"] for row in rows] == [20, 20, 20]
    for row in rows:
        assert row["slope_defined"] is False
        assert math.isnan(row["slope_sigma2"])
        assert math.isnan(row["slope_eta2"])
