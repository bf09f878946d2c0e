import math
from dataclasses import dataclass

import numpy as np
import pytest

from stve import NoiseSpec, RegressionDataset, functionals, truncation_size
from stve.estimator import spectral_system


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_dataset(rng, T, n, missing=(), y=None, u=None):
    """Random dataset with optional 1-based missing indices."""
    if u is None:
        u = rng.normal(size=(T, n))
    if y is None:
        y = rng.normal(size=T)
    observed = np.ones(T, dtype=bool)
    for t in missing:
        observed[t - 1] = False
    return RegressionDataset(u=u, y=y, observed=observed)


def per_step_filter(dataset, config):
    """The isotropic filter of `stve.kalman`, one update per step in Python:
    the reference for the blocked state recursion.  Returns (states, scales,
    predictions, innovations, loglik)."""
    horizon, dim = dataset.horizon, dataset.dim
    state = np.zeros(dim) if config.x0 is None else np.array(config.x0)
    scale = config.c0_scale
    drift = config.sigma2 * np.diff(dataset.time_index, prepend=0)
    states = np.empty((horizon, dim))
    scales = np.empty(horizon)
    predictions = np.empty(horizon)
    innovations = np.full(horizon, np.nan)
    loglik = 0.0
    for t in range(horizon):
        u = dataset.u[t]
        prior = scale + drift[t]
        predictions[t] = state @ u
        if dataset.observed[t]:
            s = prior * float(u @ u) + config.eta2
            residual = dataset.y[t] - predictions[t]
            innovations[t] = residual
            scale = (config.eta2 / s) * prior
            state = state + (prior / s) * residual * u
            loglik -= 0.5 * (math.log(2.0 * math.pi * s) + residual * residual / s)
        else:
            scale = prior
        states[t] = state
        scales[t] = scale
    return states, scales, predictions, innovations, loglik


def difference_spectrum(horizon):
    """Singular values of the (T-1) x T first-difference map, descending.

    Closed form: 2 sin(pi (T - l) / (2 T)) for l = 1, ..., T-1.
    """
    l = np.arange(1, horizon, dtype=np.float64)
    return 2.0 * np.sin(np.pi * (horizon - l) / (2.0 * horizon))


def dense_system_matrix(dataset):
    """The system matrix, materialized row by row; the dense test oracle.

    Row a (a row with original time r) holds u_a in every coordinate block
    i <= r: entry (a, (i-1)*n + j) = u[a, j] for i <= r, else 0.  Multiplying
    the flat process-noise vector by it gives the observation means, and its
    Gram matrix is the closed form min(time_s, time_t) <u_s, u_t>.  The
    dataset must already be row-filtered.
    """
    times = dataset.time_index
    T_eff, n = dataset.u.shape
    dense = np.zeros((T_eff, int(times[-1]) * n))
    for a in range(T_eff):
        for i in range(int(times[a])):
            dense[a, i * n : (i + 1) * n] = dataset.u[a]
    return dense


def brute_force_pinv_quantities(dataset, y, p):
    """Quadratic forms and HS norms via the explicitly materialized system.

    Independent of the spectral module: builds the dense system matrix row by
    row, runs a full SVD, forms the pseudo-inverse R and its truncation R'
    (p largest singular values of R), and evaluates everything directly.
    """
    U, s, Vt = np.linalg.svd(dense_system_matrix(dataset), full_matrices=False)
    # pseudo-inverse R = V diag(1/s) U^T; R' keeps the p largest 1/s
    chi = 1.0 / s
    R = Vt.T @ np.diag(chi) @ U.T
    order = np.argsort(chi)[::-1]
    keep = order[:p]
    chi_trunc = np.zeros_like(chi)
    chi_trunc[keep] = chi[keep]
    Rp = Vt.T @ np.diag(chi_trunc) @ U.T
    return {
        "rY_sq": float(np.sum((R @ y) ** 2)),
        "rpY_sq": float(np.sum((Rp @ y) ** 2)),
        "hs_R_sq": float(np.sum(chi**2)),
        "hs_Rp_sq": float(np.sum(chi[keep] ** 2)),
        "gamma_sq": np.sort(s**2)[::-1],
    }


@dataclass(frozen=True)
class MomentCheck:
    """Monte-Carlo check of the two moment identities on a fixed design.

    sample_* are means over replications of the full and truncated statistics;
    analytic_* are their exact expectations under the given noise variances.
    """

    analytic_full: float
    analytic_trunc: float
    sample_full: float
    sample_trunc: float
    stderr_full: float
    stderr_trunc: float
    replications: int
    p: int
    effective_T: int

    @property
    def z_full(self) -> float:
        return (self.sample_full - self.analytic_full) / self.stderr_full

    @property
    def z_trunc(self) -> float:
        return (self.sample_trunc - self.analytic_trunc) / self.stderr_trunc


def moment_equation_check(
    dataset: RegressionDataset,
    process_noise: NoiseSpec,
    observation_noise: NoiseSpec,
    replications: int,
    alpha: float = 0.25,
    seed: int = 0,
) -> MomentCheck:
    """Simulate fresh responses on the dataset's design and compare the sample
    means of the two statistics against their analytic expectations; the
    Monte-Carlo oracle for the estimator's moment identities.

    The design (observation vectors, row mask, time labels) is taken from the
    dataset; only the noises are redrawn, so the spectrum is computed once.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications")
    filtered, _dropped, spectrum = spectral_system(dataset)
    effective = filtered.horizon
    p = truncation_size(effective, alpha)
    funcs = functionals(spectrum, p)

    max_time = int(filtered.time_index[-1])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    steps = process_noise.sample(rng, (replications, max_time, filtered.dim))
    noise = observation_noise.sample(rng, (replications, effective))
    paths = np.cumsum(steps, axis=1)[:, filtered.time_index - 1, :]
    responses = np.einsum("rti,ti->rt", paths, filtered.u) + noise

    coords = responses @ spectrum.vectors  # (replications, effective)
    weights = (coords * coords) / spectrum.eigenvalues
    full = weights.sum(axis=1) / effective
    trunc = weights[:, effective - p :].sum(axis=1) / p

    root = math.sqrt(replications)
    return MomentCheck(
        analytic_full=process_noise.variance
        + (funcs.pinv_hs_sq / effective) * observation_noise.variance,
        analytic_trunc=process_noise.variance
        + (funcs.trunc_hs_sq / p) * observation_noise.variance,
        sample_full=float(full.mean()),
        sample_trunc=float(trunc.mean()),
        stderr_full=float(full.std(ddof=1) / root),
        stderr_trunc=float(trunc.std(ddof=1) / root),
        replications=int(replications),
        p=int(p),
        effective_T=effective,
    )
