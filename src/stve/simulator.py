"""Sub-Gaussian simulator for the random-walk regression model.

Data generation is bitwise reproducible from the config seed: the generator
is numpy's default PRNG seeded through a SeedSequence, and draws happen in a
fixed order (feature rows if none are given, then process noise, then
observation noise).  Replications derive independent child streams by
spawning the base SeedSequence, so results do not depend on execution order.

Estimators only ever receive the dataset; the hidden coefficient path is
returned separately and never crosses that interface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .operators import RegressionDataset

__all__ = [
    "NOISE_FAMILIES",
    "NoiseSpec",
    "SimulationConfig",
    "ReplicationResult",
    "simulate",
    "replicate",
    "benchmark_table",
]

NOISE_FAMILIES = ("gaussian", "rademacher", "uniform")

# Point estimator protocol: dataset -> (sigma2_hat, eta2_hat).
Estimator = Callable[[RegressionDataset], tuple[float, float]]


@dataclass(frozen=True)
class NoiseSpec:
    """A zero-mean sub-Gaussian family at a given variance.

    Families: "gaussian"; "rademacher" (+-sqrt(variance) with equal mass);
    "uniform" (uniform on [-sqrt(3 variance), +sqrt(3 variance)]).
    """

    family: str = "gaussian"
    variance: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not (np.isfinite(self.variance) and self.variance >= 0.0):
            raise ValueError("variance must be finite and non-negative")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.variance == 0.0:
            return np.zeros(size)
        root = math.sqrt(self.variance)
        if self.family == "gaussian":
            return rng.normal(0.0, root, size)
        if self.family == "rademacher":
            return (rng.integers(0, 2, size) * 2 - 1) * root
        bound = math.sqrt(3.0 * self.variance)
        return rng.uniform(-bound, bound, size)


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Config for one simulated trajectory.

    u gives the feature rows: None draws iid standard normal rows, a finite
    row of length n is used at every step, and a finite (T, n) array is used
    as given.  missing lists distinct 1-based time indices whose responses
    are masked; at least 2 rows stay observed.  seed is a non-negative
    integer.
    """

    T: int
    n: int
    sigma2: float
    eta2: float
    noise_family: str = "gaussian"
    u: np.ndarray | None = None
    seed: int = 0
    missing: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.T < 2:
            raise ValueError("T must be at least 2")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        for name in ("sigma2", "eta2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative")
        if self.noise_family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.noise_family!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.u is not None:
            u = np.array(self.u, dtype=np.float64)
            if u.shape not in ((self.n,), (self.T, self.n)) or not np.all(np.isfinite(u)):
                raise ValueError("u must be a finite row of length n or a finite array of shape (T, n)")
            u.setflags(write=False)
            object.__setattr__(self, "u", u)
        missing = tuple(sorted(int(t) for t in self.missing))
        if missing and (missing[0] < 1 or missing[-1] > self.T):
            raise ValueError("missing indices must lie in [1, T]")
        if len(set(missing)) != len(missing):
            raise ValueError("missing indices must be distinct")
        if self.T - len(missing) < 2:
            raise ValueError("missing indices must leave at least 2 observed rows")
        object.__setattr__(self, "missing", missing)


def simulate(
    config: SimulationConfig, seed_sequence: np.random.SeedSequence | None = None
) -> tuple[RegressionDataset, np.ndarray]:
    """Simulate one trajectory; returns (dataset, hidden coefficient path).

    The walk starts from zero: the first coefficient vector is the first
    process-noise draw, so the path is exactly the per-coordinate prefix sum
    of the process noise and the observations are the system operator applied
    to that noise plus observation noise.
    """
    if seed_sequence is None:
        seed_sequence = np.random.SeedSequence(config.seed)
    rng = np.random.default_rng(seed_sequence)
    if config.u is None:
        u = rng.standard_normal((config.T, config.n))
    else:
        u = np.broadcast_to(config.u, (config.T, config.n)).copy()
    steps = NoiseSpec(config.noise_family, config.sigma2).sample(rng, (config.T, config.n))
    states = np.cumsum(steps, axis=0)
    noise = NoiseSpec(config.noise_family, config.eta2).sample(rng, config.T)
    y = np.einsum("ti,ti->t", u, states) + noise
    observed = np.ones(config.T, dtype=bool)
    if config.missing:
        observed[np.array(config.missing) - 1] = False
    dataset = RegressionDataset(u=u, y=y, observed=observed)
    states.setflags(write=False)
    return dataset, states


@dataclass(frozen=True, eq=False)
class ReplicationResult:
    """Per-replication absolute estimation errors and their summary stats."""

    sigma2_errors: np.ndarray
    eta2_errors: np.ndarray

    @property
    def replications(self) -> int:
        return self.sigma2_errors.shape[0]

    @property
    def mean_abs_error_sigma2(self) -> float:
        return float(self.sigma2_errors.mean())

    @property
    def mean_abs_error_eta2(self) -> float:
        return float(self.eta2_errors.mean())

    @property
    def stderr_sigma2(self) -> float:
        return float(self.sigma2_errors.std(ddof=1) / math.sqrt(self.replications))

    @property
    def stderr_eta2(self) -> float:
        return float(self.eta2_errors.std(ddof=1) / math.sqrt(self.replications))


def replicate(
    config: SimulationConfig,
    replications: int,
    estimators: dict[str, Estimator],
) -> dict[str, ReplicationResult]:
    """Run independent replications of simulate + estimate and collect |error|s.

    Every estimator sees the same simulated dataset in each replication, so
    estimators that share a spectrum (stve.estimator.spectral_system) compute
    it once.  Returns one ReplicationResult per estimator name.  Child streams
    are spawned from SeedSequence(config.seed), one per replication, so the
    result is deterministic for a given config.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications for standard errors")
    pairs = []
    for child in np.random.SeedSequence(config.seed).spawn(replications):
        dataset, _states = simulate(config, child)
        estimates = [estimator(dataset) for estimator in estimators.values()]
        pairs.append([(abs(float(s) - config.sigma2), abs(float(e) - config.eta2)) for s, e in estimates])
    errors = np.array(pairs, dtype=np.float64)  # (replication, estimator, variance)
    return {
        name: ReplicationResult(sigma2_errors=errors[:, k, 0].copy(), eta2_errors=errors[:, k, 1].copy())
        for k, name in enumerate(estimators)
    }


def benchmark_table(
    cell: SimulationConfig,
    t_grid,
    replications: int,
    estimators: dict[str, Estimator],
) -> list[dict]:
    """The error-decay table over a horizon grid: one row per (T, estimator),
    keyed by the table's column names.

    Each horizon runs one replicate of `cell` with T set to that horizon and
    its own child seed spawned from cell.seed, so every estimator sees the
    same simulated datasets and comparisons are paired.  Every row carries
    its estimator's log-log decay slope of the mean absolute error per
    variance.  A slope is NaN when it is undefined: the grid has fewer than 2
    distinct horizons, or a mean error is zero or not finite (e.g. under a
    truth-returning estimator).  slope_defined is True only when both slopes
    are defined.
    """
    grid = [int(t) for t in t_grid]
    children = np.random.SeedSequence(cell.seed).spawn(len(grid))
    results = []
    for horizon, child in zip(grid, children):
        config = replace(cell, T=horizon, seed=int(child.generate_state(1, np.uint64)[0]))
        results.append(replicate(config, replications, estimators))
    distinct = len(set(grid)) >= 2
    log_t = np.log(np.array(grid, dtype=np.float64))

    def slope(errors: list[float]) -> float:
        values = np.array(errors)
        if distinct and np.all(values > 0.0) and np.all(np.isfinite(values)):
            return float(np.polyfit(log_t, np.log(values), 1)[0])
        return math.nan

    slopes = {
        name: (
            slope([by_name[name].mean_abs_error_sigma2 for by_name in results]),
            slope([by_name[name].mean_abs_error_eta2 for by_name in results]),
        )
        for name in estimators
    }
    return [
        {
            "T": horizon,
            "estimator": name,
            "mean_abs_err_sigma2": result.mean_abs_error_sigma2,
            "stderr_sigma2": result.stderr_sigma2,
            "mean_abs_err_eta2": result.mean_abs_error_eta2,
            "stderr_eta2": result.stderr_eta2,
            "replications": replications,
            "slope_sigma2": slopes[name][0],
            "slope_eta2": slopes[name][1],
            "slope_defined": not (math.isnan(slopes[name][0]) or math.isnan(slopes[name][1])),
        }
        for horizon, by_name in zip(grid, results)
        for name, result in by_name.items()
    ]
