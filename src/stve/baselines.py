"""Prediction baselines: online gradient descent, stationary least squares,
and simplex-search maximum likelihood over the filter's noise variances."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kalman import KalmanConfig, run_filter
from .operators import RegressionDataset

__all__ = [
    "OnlineGradientConfig",
    "OnlineGradientRun",
    "MleResult",
    "online_gradient_run",
    "tune_learning_rate",
    "stationary_regression",
    "mle_fit",
]

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class OnlineGradientConfig:
    """learning_rate is a non-negative scalar, or a per-step sequence so that
    externally computed gain schedules can be injected."""

    learning_rate: float | np.ndarray
    x0: np.ndarray | None = None

    def __post_init__(self) -> None:
        rate = np.array(self.learning_rate, dtype=np.float64)
        if rate.ndim not in (0, 1):
            raise ValueError("learning_rate must be a scalar or a 1-D sequence")
        if not (np.all(np.isfinite(rate)) and np.all(rate >= 0.0)):
            raise ValueError("learning_rate must be finite and non-negative")
        rate.setflags(write=False)
        object.__setattr__(self, "learning_rate", rate)
        if self.x0 is not None:
            vec = np.array(self.x0, dtype=np.float64).reshape(-1)
            if not np.all(np.isfinite(vec)):
                raise ValueError("x0 must be finite")
            vec.setflags(write=False)
            object.__setattr__(self, "x0", vec)


@dataclass(frozen=True, eq=False)
class OnlineGradientRun:
    states: np.ndarray
    predictions: np.ndarray
    sse: float


def online_gradient_run(dataset: RegressionDataset, config: OnlineGradientConfig) -> OnlineGradientRun:
    """x <- x + rate * u * (y - <x, u>) at observed steps; missing steps predict
    but do not update.  sse sums squared prediction errors over observed steps.
    Raises RuntimeError if the state norm exceeds 1e12."""
    horizon, dim = dataset.horizon, dataset.dim
    rate = config.learning_rate
    if rate.ndim == 0:
        rates = np.full(horizon, float(rate))
    else:
        if rate.shape[0] != horizon:
            raise ValueError("per-step learning_rate length must equal the horizon")
        rates = rate
    if config.x0 is None:
        state = np.zeros(dim)
    else:
        if config.x0.shape[0] != dim:
            raise ValueError("x0 length does not match the dataset dimension")
        state = np.array(config.x0)

    states = np.empty((horizon, dim))
    predictions = np.empty(horizon)
    sse = 0.0
    for t in range(horizon):
        u = dataset.u[t]
        pred = float(state @ u)
        predictions[t] = pred
        if dataset.observed[t]:
            err = dataset.y[t] - pred
            sse += err * err
            state = state + rates[t] * err * u
            if float(state @ state) > DIVERGENCE_LIMIT * DIVERGENCE_LIMIT:
                raise RuntimeError(f"online gradient diverged at step {t + 1}")
        states[t] = state
    states.setflags(write=False)
    predictions.setflags(write=False)
    return OnlineGradientRun(states=states, predictions=predictions, sse=float(sse))


def _golden_section(func, lo: float, hi: float, tol: float) -> tuple[float, float]:
    # Returns the best evaluated point; interval collapses to width tol.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = func(c), func(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = func(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = func(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def tune_learning_rate(
    dataset: RegressionDataset,
    search_interval: tuple[float, float] = (0.0, 2.0),
    x0: np.ndarray | None = None,
    tol: float = 1e-6,
) -> float:
    """Minimize the online-gradient sse over the learning rate.

    The sse is piecewise smooth but can have local minima, so golden-section
    search (refined to interval width tol) is multi-started on 8 equispaced
    cells, seeded by a coarse scan; a diverging rate counts as infinite sse.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 <= lo < hi):
        raise ValueError("search_interval must satisfy 0 <= lo < hi")

    def sse(rate: float) -> float:
        try:
            return online_gradient_run(dataset, OnlineGradientConfig(rate, x0)).sse
        except RuntimeError:
            return math.inf

    grid = np.linspace(lo, hi, 101)  # includes lo and hi
    grid_vals = np.array([sse(a) for a in grid])
    k = int(np.argmin(grid_vals))
    best_x, best_f = float(grid[k]), float(grid_vals[k])
    x, v = _golden_section(sse, grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)], tol)
    if v < best_f:
        best_x, best_f = x, v

    cells = np.linspace(lo, hi, 9)
    for a, b in zip(cells[:-1], cells[1:]):
        x, v = _golden_section(sse, a, b, tol)
        if v < best_f:
            best_x, best_f = x, v
    return float(best_x)


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


def _nelder_mead(func, start: np.ndarray, xtol: float, maxiter: int, step: float = 0.25):
    # Standard simplex search (reflection 1, expansion 2, contraction 1/2,
    # shrink 1/2), minimizing.  Converges when the max coordinate spread of the
    # simplex around its best vertex falls below xtol.  Returns
    # (x, f, iterations, converged, best-value history); the history is
    # nonincreasing because no step ever discards the best vertex.
    dim = start.shape[0]
    simplex = np.repeat(start[None, :].astype(np.float64), dim + 1, axis=0)
    for i in range(dim):
        simplex[i + 1, i] += step
    values = np.array([func(v) for v in simplex])

    def sort(s, v):
        order = np.argsort(v, kind="stable")
        return s[order], v[order]

    simplex, values = sort(simplex, values)
    history = [float(values[0])]
    iterations = 0
    converged = False
    while iterations < maxiter:
        if float(np.max(np.abs(simplex[1:] - simplex[0]))) < xtol:
            converged = True
            break
        iterations += 1
        centroid = simplex[:-1].mean(axis=0)
        worst, f_worst = simplex[-1], values[-1]
        reflected = centroid + (centroid - worst)
        f_r = func(reflected)
        if values[0] <= f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = func(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < f_worst:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (worst - centroid)
            f_c = func(contracted)
            if f_c < min(f_r, f_worst):
                simplex[-1], values[-1] = contracted, f_c
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = [func(v) for v in simplex[1:]]
        simplex, values = sort(simplex, values)
        history.append(float(values[0]))
    return simplex[0], float(values[0]), iterations, converged, history


@dataclass(frozen=True)
class MleResult:
    """Maximum-likelihood fit of the filter's noise variances.

    loglik_path is the best log-likelihood after each accepted simplex step,
    nondecreasing by construction.  converged is False when the iteration cap
    was hit first; that is a flag, not an error.
    """

    sigma2: float
    eta2: float
    loglik: float
    iterations: int
    converged: bool
    loglik_path: tuple[float, ...]


# Log-parameters are clipped to keep exp() finite and eta2 positive.
_LOG_CLIP = 60.0


def mle_fit(
    dataset: RegressionDataset,
    init: tuple[float, float] = (1.0, 1.0),
    max_iterations: int = 500,
    tolerance: float = 1e-8,
    c0_scale: float = 1e4,
    x0: np.ndarray | None = None,
) -> MleResult:
    """Maximize the filter log-likelihood over (log sigma2, log eta2).

    The log parameterization keeps both variances positive and lets the search
    recover from degenerate initial points.  Convergence: simplex diameter
    below `tolerance` in log-space, or `max_iterations` simplex steps.
    """
    init_s2, init_e2 = float(init[0]), float(init[1])
    if not (init_s2 > 0.0 and init_e2 > 0.0 and np.isfinite(init_s2) and np.isfinite(init_e2)):
        raise ValueError("init variances must be finite and strictly positive")

    def neg_loglik(theta: np.ndarray) -> float:
        clipped = np.clip(theta, -_LOG_CLIP, _LOG_CLIP)
        try:
            trajectory = run_filter(
                dataset,
                KalmanConfig(
                    sigma2=math.exp(clipped[0]),
                    eta2=math.exp(clipped[1]),
                    x0=x0,
                    c0_scale=c0_scale,
                ),
            )
        except FloatingPointError:
            return 1e300
        value = -trajectory.loglik
        return value if np.isfinite(value) else 1e300

    start = np.log(np.array([init_s2, init_e2]))
    best, f_best, iterations, converged, history = _nelder_mead(
        neg_loglik, start, xtol=tolerance, maxiter=max_iterations
    )
    clipped = np.clip(best, -_LOG_CLIP, _LOG_CLIP)
    return MleResult(
        sigma2=float(math.exp(clipped[0])),
        eta2=float(math.exp(clipped[1])),
        loglik=float(-f_best),
        iterations=int(iterations),
        converged=bool(converged),
        loglik_path=tuple(-v for v in history),
    )
