"""Prediction baselines: online gradient descent, stationary least squares,
and the exact Gaussian maximum-likelihood fit of the two noise variances.

Both searches here are one fixed policy, `_scan_and_zoom`: an equispaced
scan, then rescans of the two cells beside the best point at 21 points each,
which narrow the bracket 10x per pass, until it is within tolerance.  Every
scan is one batched call.  `tune_learning_rate` gets the online-gradient sse
of all a scan's rates in one pass over the rows, so tuning runs no
single-rate `online_gradient_run` pass.  `mle_fit` reads the Gram spectrum
from `stve.estimator.spectral_system`, so after `estimate` on the same
dataset it costs no second eigendecomposition: eta2 is profiled out in
closed form and the search runs over log(sigma2 / eta2), O(T') per
evaluation."""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .estimator import spectral_system
# Not called here: perfbench's tracer wraps stve.baselines.run_filter.
from .kalman import run_filter  # noqa: F401
from .operators import RegressionDataset

__all__ = [
    "OnlineGradientRun",
    "MleResult",
    "online_gradient_run",
    "tune_learning_rate",
    "stationary_regression",
    "mle_fit",
]

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class OnlineGradientRun:
    states: np.ndarray
    predictions: np.ndarray
    sse: float


def online_gradient_run(dataset: RegressionDataset, rate: float) -> OnlineGradientRun:
    """x <- x + rate * u * (y - <x, u>) from x = 0, at observed steps; missing
    steps predict but do not update.  sse sums squared prediction errors over
    observed steps.  Raises ValueError unless rate is a finite non-negative
    scalar.  Divergence is checked once, after the pass: if any state norm
    exceeds 1e12, RuntimeError names the first step where it does."""
    if np.ndim(rate) != 0:
        raise ValueError("learning rate must be a scalar")
    rate = float(rate)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError("learning rate must be finite and non-negative")
    state = np.zeros(dataset.dim)
    states = np.empty((dataset.horizon, dataset.dim))
    predictions = array("d")
    sse = 0.0
    # Row views and Python scalars, produced as the loop goes.  A diverging
    # state may overflow before the check after the loop.
    rows = zip(dataset.u, memoryview(dataset.y), memoryview(dataset.observed))
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (u, y, seen) in enumerate(rows):
            pred = float(state @ u)
            predictions.append(pred)
            if seen:
                err = y - pred
                sse += err * err
                state = state + rate * err * u
            states[t] = state
        over = np.einsum("ij,ij->i", states, states) > DIVERGENCE_LIMIT * DIVERGENCE_LIMIT
    if over.any():
        raise RuntimeError(f"online gradient diverged at step {int(np.argmax(over)) + 1}")
    predictions = np.frombuffer(predictions)
    states.setflags(write=False)
    predictions.setflags(write=False)
    return OnlineGradientRun(states=states, predictions=predictions, sse=float(sse))


# The learning-rate search scans [0, _RATE_MAX] and refines to width _RATE_TOL.
_RATE_MAX = 2.0
_RATE_SCAN_POINTS = 101
_RATE_TOL = 1e-6
# The likelihood search scans log(sigma2/eta2) over a bracket that reaches
# this far past the spectrum's range: at its ends q*lambda stays below
# exp(-_BRACKET_MARGIN) for every eigenvalue, or above exp(_BRACKET_MARGIN)
# for every eigenvalue.  It refines to width _MLE_TOL.
_BRACKET_MARGIN = 20.0
_SCAN_POINTS = 61
_MLE_TOL = 1e-8
# Each zoom pass rescans the two cells beside the best point at this many
# points, so the bracket narrows 10x per pass.
_ZOOM_POINTS = 21


def _scan_and_zoom(values, grid: np.ndarray, tol: float) -> tuple[float, float, int]:
    # Minimise over the grid, then rescan the two cells beside the best point
    # until they span at most tol.  values maps a 1-D array of points to their
    # values in one batched call.  Returns the best evaluated point, its value
    # and the number of points evaluated.
    points, vals = grid, values(grid)
    k = int(np.argmin(vals))
    best_x, best_f, evaluations = points[k], vals[k], len(grid)
    while True:
        lo, hi = points[max(0, k - 1)], points[min(len(points) - 1, k + 1)]
        if hi - lo <= tol:
            return float(best_x), float(best_f), evaluations
        points = np.linspace(lo, hi, _ZOOM_POINTS)
        vals = values(points)
        evaluations += _ZOOM_POINTS
        k = int(np.argmin(vals))
        if vals[k] < best_f:
            best_x, best_f = points[k], vals[k]


# Rows of errors and state norms that `_scan_sse` holds before it folds them
# into the sums, so its memory is bounded by this many rows times the rates.
_SCAN_CHUNK = 1024


def _scan_sse(dataset: RegressionDataset, rates: np.ndarray) -> np.ndarray:
    # online_gradient_run's sse at every rate in one pass over the observed
    # rows, one state per rate.  A rate whose state norm exceeds the
    # divergence limit at some step reads inf; its state keeps updating and
    # may overflow, which no other rate's arithmetic sees.
    u = dataset.u[dataset.observed]
    y = dataset.y[dataset.observed]
    count = rates.shape[0]
    states = np.zeros((count, dataset.dim))
    gains = np.asarray(rates, dtype=np.float64)
    diverged = np.zeros(count, dtype=bool)
    # Row 0 carries the running sse, rows 1.. a chunk's errors, squared in
    # place.  Running sums along axis 0 add them in row order, so the sse is
    # bit for bit the per-step sse += err * err.
    chunk = min(_SCAN_CHUNK, len(y))
    errors = np.zeros((chunk + 1, count))
    norms = np.empty((chunk, count))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(y), chunk):
            size = min(chunk, len(y) - start)
            for k, (u_t, y_t) in enumerate(zip(u[start : start + size], y[start : start + size])):
                err = np.subtract(y_t, states @ u_t, out=errors[k + 1])
                states += np.multiply.outer(gains * err, u_t)
                np.einsum("ij,ij->i", states, states, out=norms[k])
            block = errors[: size + 1]
            np.multiply(block[1:], block[1:], out=block[1:])
            np.cumsum(block, axis=0, out=block)
            errors[0] = block[-1]
            diverged |= (norms[:size] > DIVERGENCE_LIMIT * DIVERGENCE_LIMIT).any(axis=0)
    sse = errors[0].copy()
    sse[diverged] = math.inf
    return sse


def tune_learning_rate(dataset: RegressionDataset) -> float:
    """Minimize the online-gradient sse over the learning rate in [0, 2].

    A scan of 101 equispaced rates, then 21-rate rescans of the two cells
    beside the best rate until they span at most 1e-6 (at most five); each
    scan is one pass over the rows for all its rates.  A diverging rate
    counts as infinite sse.
    """
    grid = np.linspace(0.0, _RATE_MAX, _RATE_SCAN_POINTS)  # includes both ends
    return _scan_and_zoom(lambda rates: _scan_sse(dataset, rates), grid, _RATE_TOL)[0]


def stationary_regression(dataset: RegressionDataset) -> np.ndarray:
    """Ordinary least squares over the observed rows (SVD-based, rank-revealing)."""
    rows = dataset.observed
    design = dataset.u[rows]
    response = dataset.y[rows]
    if design.shape[0] < design.shape[1]:
        raise ValueError("need at least dim observed rows")
    coef, _residual, rank, _sv = np.linalg.lstsq(design, response, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("design matrix is rank-deficient")
    return coef


@dataclass(frozen=True)
class MleResult:
    """Maximum-likelihood fit of the two noise variances.

    iterations counts likelihood evaluations: 61 for the coarse scan plus 21
    per zoom pass.  converged is False when the optimum lies in the first or
    last cell of the scan over the log(sigma2/eta2) bracket, where one
    variance is negligible against the other; that is a flag, not an error.
    """

    sigma2: float
    eta2: float
    loglik: float
    iterations: int
    converged: bool


def mle_fit(dataset: RegressionDataset) -> MleResult:
    """Maximize the exact Gaussian likelihood of the observed responses.

    With the walk starting at zero, the responses of the row-filtered dataset
    have covariance sigma2 G + eta2 I = V (sigma2 Lambda + eta2) V^T, where
    G = V Lambda V^T is the Gram matrix.  With c = V^T y and q = sigma2 / eta2,
    eta2 is profiled out in closed form, eta2(q) = mean(c^2 / (q lambda + 1)),
    and the negative log-likelihood

        (T' log(2 pi eta2(q)) + sum log(q lambda + 1) + T') / 2

    costs O(T') per evaluation.  A 61-point scan over log q is followed by
    21-point rescans of the two cells beside the best point until they span
    at most 1e-8.  If every response is zero the likelihood is unbounded:
    both variances are returned as 0 with loglik inf and converged False.
    """
    filtered, _dropped, spectrum = spectral_system(dataset)
    coef = spectrum.vectors.T @ filtered.y
    c2 = coef * coef
    lam = spectrum.eigenvalues
    order = spectrum.order
    if not np.any(c2 > 0.0):
        return MleResult(sigma2=0.0, eta2=0.0, loglik=math.inf, iterations=0, converged=False)

    def profile(log_q):
        # Negative log-likelihood and eta2 at q = exp(log_q), eta2 profiled
        # out; log_q is a scalar or a 1-D grid.
        weights = np.multiply.outer(np.exp(log_q), lam) + 1.0
        eta2 = np.mean(c2 / weights, axis=-1)
        nll = 0.5 * (order * np.log(2.0 * math.pi * eta2) + np.log(weights).sum(axis=-1) + order)
        return nll, eta2

    lo = -math.log(lam[0]) - _BRACKET_MARGIN
    hi = -math.log(lam[-1]) + _BRACKET_MARGIN
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    best_x, best_f, evaluations = _scan_and_zoom(lambda log_q: profile(log_q)[0], grid, _MLE_TOL)
    eta2 = float(profile(best_x)[1])
    return MleResult(
        sigma2=float(math.exp(best_x) * eta2),
        eta2=eta2,
        loglik=-best_f,
        iterations=evaluations,
        converged=bool(grid[1] <= best_x <= grid[-2]),
    )
