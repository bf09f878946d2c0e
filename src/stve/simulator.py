"""Sub-Gaussian simulator for the random-walk regression model.

Data generation is bitwise reproducible from the config seed: the generator
is numpy's default PRNG seeded through a SeedSequence, and draws happen in a
fixed order (observation vectors if random, then process noise, then
observation noise).  Replications derive independent child streams by
spawning the base SeedSequence, so results do not depend on execution order.

Estimators only ever receive the dataset; the hidden coefficient path is
returned separately and never crosses that interface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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

U_KINDS = ("gaussian", "constant", "array")

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

    u_kind selects the observation-vector process: "gaussian" (iid standard
    normal rows), "constant" (u_constant repeated) or "array" (u_matrix
    passed through).  missing lists 1-based time indices whose
    responses are masked.  seed is a non-negative integer.
    """

    T: int
    n: int
    sigma2: float
    eta2: float
    noise_family: str = "gaussian"
    u_kind: str = "gaussian"
    u_constant: np.ndarray | None = None
    u_matrix: np.ndarray | None = None
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
        if self.u_kind not in U_KINDS:
            raise ValueError(f"unknown u_kind {self.u_kind!r}")
        if self.u_kind == "constant":
            vec = np.array(self.u_constant, dtype=np.float64).reshape(-1)
            if vec.shape[0] != self.n or not np.all(np.isfinite(vec)):
                raise ValueError("u_constant must be a finite vector of length n")
            vec.setflags(write=False)
            object.__setattr__(self, "u_constant", vec)
        if self.u_kind == "array":
            mat = np.array(self.u_matrix, dtype=np.float64)
            if mat.shape != (self.T, self.n) or not np.all(np.isfinite(mat)):
                raise ValueError("u_matrix must be a finite array of shape (T, n)")
            mat.setflags(write=False)
            object.__setattr__(self, "u_matrix", mat)
        missing = tuple(sorted(int(t) for t in self.missing))
        if missing and (missing[0] < 1 or missing[-1] > self.T):
            raise ValueError("missing indices must lie in [1, T]")
        if len(set(missing)) != len(missing):
            raise ValueError("missing indices must be distinct")
        object.__setattr__(self, "missing", missing)


def _draw_u(config: SimulationConfig, rng: np.random.Generator) -> np.ndarray:
    if config.u_kind == "gaussian":
        return rng.standard_normal((config.T, config.n))
    if config.u_kind == "constant":
        return np.tile(config.u_constant, (config.T, 1))
    return np.array(config.u_matrix)


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
    u = _draw_u(config, rng)
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
    t_grid,
    replications: int,
    estimators: dict[str, Estimator],
    sigma2: float,
    eta2: float,
    n: int,
    noise_family: str = "gaussian",
    seed: int = 0,
):
    """Error table over a horizon grid: one row dict per (T, estimator).

    Each grid cell derives its own child seed from the base seed and runs
    one replicate over all estimators, so every estimator sees the same
    simulated datasets and comparisons are paired.  Returns (rows, slopes)
    where slopes maps estimator name to a dict with the log-log decay slope
    per variance and a defined flag (False when the grid has fewer than 2
    distinct horizons, or when a mean error is zero or not finite, e.g. under
    a truth-returning estimator).
    """
    grid = [int(t) for t in t_grid]
    children = np.random.SeedSequence(seed).spawn(len(grid))
    rows = []
    for horizon, child in zip(grid, children):
        cell_seed = int(child.generate_state(1, np.uint64)[0])
        config = SimulationConfig(
            T=horizon, n=n, sigma2=sigma2, eta2=eta2, noise_family=noise_family, seed=cell_seed
        )
        for name, result in replicate(config, replications, estimators).items():
            rows.append(
                {
                    "T": horizon,
                    "estimator": name,
                    "mean_abs_err_sigma2": result.mean_abs_error_sigma2,
                    "stderr_sigma2": result.stderr_sigma2,
                    "mean_abs_err_eta2": result.mean_abs_error_eta2,
                    "stderr_eta2": result.stderr_eta2,
                    "replications": replications,
                }
            )
    slopes: dict[str, dict] = {}
    distinct = len(set(grid)) >= 2
    log_t = np.log(np.array(grid, dtype=np.float64))
    for name in estimators:
        slopes[name] = {}
        for param in ("sigma2", "eta2"):
            values = np.array([row[f"mean_abs_err_{param}"] for row in rows if row["estimator"] == name])
            if distinct and np.all(values > 0.0) and np.all(np.isfinite(values)):
                slope = float(np.polyfit(log_t, np.log(values), 1)[0])
                slopes[name][param] = {"slope": slope, "defined": True}
            else:
                slopes[name][param] = {"slope": math.nan, "defined": False}
    return rows, slopes
