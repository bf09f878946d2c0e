"""Kalman filter for the random-walk regression model, in filtered form.

The recursion keeps the covariance isotropic, C_t = c_t I, and carries only
the scale c_t.  Per observed step, with prior state x and scale c:

    prior  = c + sigma^2 (t_k - t_{k-1})    (t_k the row's time label, t_0 = 0)
    s      = prior ||u||^2 + eta^2          (innovation variance)
    c_next = (eta^2 / s) prior
    x_next = x + (prior / s) u (y - <x, u>)

A gap of k time labels is k walk steps, as in the Gram matrix and the
likelihood, so the prior grows by sigma^2 per label; with contiguous labels
that is sigma^2 per row.  This is the exact Kalman update only for n = 1; for
n > 1 the exact posterior covariance is not a multiple of I.  Missing steps
propagate only: the scale becomes the prior and the state is unchanged.  The
log-likelihood accumulates Gaussian innovation terms over the observed steps.

`run_filter` computes in two passes.  The scale recursion is scalar and runs
as a loop over Python floats; it fixes every step's innovation variance s and
gain vector k = (prior / s) u (zero at missing steps).  The state recursion
x_next = x + k (y - <x, u>) is then solved for those gains 64 rows at a time,
one triangular LAPACK solve per block (see `_state_recursion`), which takes
any per-step gain vectors, not only isotropic ones.

The filter stays isotropic on purpose: it is the online-prediction baseline,
O(n) work per step.  It is not the model's likelihood for n > 1;
`stve.baselines.mle_fit` maximizes the exact Gaussian likelihood from the
Gram spectrum instead, and matches this filter's loglik at n = 1 when the
filter starts at x0 = 0 with a vanishing c0_scale.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .operators import RegressionDataset

__all__ = ["KalmanConfig", "KalmanTrajectory", "run_filter"]


@dataclass(frozen=True, eq=False)
class KalmanConfig:
    """Filter parameters: noise variances, initial state, initial covariance scale.

    The initial covariance is c0_scale * I; x0 defaults to the zero vector.
    eta2 must be strictly positive, sigma2 non-negative.
    """

    sigma2: float
    eta2: float
    x0: np.ndarray | None = None
    c0_scale: float = 1e4

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValueError("sigma2 must be finite and non-negative")
        if not (np.isfinite(self.eta2) and self.eta2 > 0.0):
            raise ValueError("eta2 must be finite and strictly positive")
        if not (np.isfinite(self.c0_scale) and self.c0_scale > 0.0):
            raise ValueError("c0_scale must be finite and strictly positive")
        if self.x0 is not None:
            vec = np.array(self.x0, dtype=np.float64).reshape(-1)
            if not np.all(np.isfinite(vec)):
                raise ValueError("x0 must be finite")
            vec.setflags(write=False)
            object.__setattr__(self, "x0", vec)


@dataclass(frozen=True, eq=False)
class KalmanTrajectory:
    """Filter output over the full horizon.

    states[t] is the filtered state after step t and scales[t] the scale of
    its covariance, scales[t] * I.  predictions[t] is the one-step-ahead mean
    <x_{t-1}, u_t>, defined at every step; innovations[t] is y_t minus that
    mean, NaN at missing steps.  loglik sums the Gaussian innovation terms of
    the observed steps.
    """

    states: np.ndarray
    scales: np.ndarray
    predictions: np.ndarray
    innovations: np.ndarray
    loglik: float


def run_filter(dataset: RegressionDataset, config: KalmanConfig) -> KalmanTrajectory:
    """Run the filter over the dataset; raises FloatingPointError if the
    recursion leaves the finite range."""
    dim = dataset.dim
    if config.x0 is None:
        state = np.zeros(dim)
    else:
        if config.x0.shape[0] != dim:
            raise ValueError("x0 length does not match the dataset dimension")
        state = np.array(config.x0)
    observed = dataset.observed
    scales, variances, factors = _scale_recursion(dataset, config)
    bad = observed & ~(np.isfinite(variances) & (variances > 0.0))
    if bad.any():
        raise FloatingPointError(
            f"non-finite or non-positive innovation variance at step {int(np.argmax(bad)) + 1}"
        )

    # The state recursion with gain vectors k_t = (prior / s) u_t.  A missing
    # step has k_t = 0, so its response is never read.
    with np.errstate(over="ignore", invalid="ignore"):
        states, predictions, residuals = _state_recursion(
            dataset.u, np.where(observed, dataset.y, 0.0), factors[:, None] * dataset.u, state
        )
        s, r = variances[observed], residuals[observed]
        loglik = -0.5 * float(np.sum(np.log(2.0 * math.pi * s) + r * r / s))
    innovations = np.where(observed, residuals, np.nan)

    if not (np.all(np.isfinite(states)) and np.isfinite(loglik)):
        raise FloatingPointError("filter recursion produced non-finite values")
    for arr in (states, scales, predictions, innovations):
        arr.setflags(write=False)
    return KalmanTrajectory(
        states=states,
        scales=scales,
        predictions=predictions,
        innovations=innovations,
        loglik=loglik,
    )


def _scale_recursion(
    dataset: RegressionDataset, config: KalmanConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scales, innovation variances, gain factors prior / s) per step, from a
    loop over Python floats with the walk variance added before each row.
    Missing steps propagate only; their variance reads 1 and their factor 0.
    The memoryviews and arrays hold the per-step values as doubles, not as
    float objects."""
    eta2 = config.eta2
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", dataset.u, dataset.u)
    drift = config.sigma2 * np.diff(dataset.time_index, prepend=0)
    scale = config.c0_scale
    scales, variances, factors = array("d"), array("d"), array("d")
    for added, norm, seen in zip(memoryview(drift), memoryview(norms), memoryview(dataset.observed)):
        prior = scale + added
        if seen:
            innovation_var = prior * norm + eta2
            scale = (eta2 / innovation_var) * prior
            variances.append(innovation_var)
            factors.append(prior / innovation_var)
        else:
            scale = prior
            variances.append(1.0)
            factors.append(0.0)
        scales.append(scale)
    return np.frombuffer(scales), np.frombuffer(variances), np.frombuffer(factors)


# Rows per triangular solve in `_state_recursion`, and the block's
# strict-lower mask and identity, sliced for a shorter last block.
_BLOCK = 64
_STRICT_LOWER = np.tri(_BLOCK, k=-1, dtype=bool)
_IDENTITY = np.eye(_BLOCK)
_STRICT_LOWER.setflags(write=False)
_IDENTITY.setflags(write=False)


def _state_recursion(
    u: np.ndarray, y: np.ndarray, gains: np.ndarray, state: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(states, predictions, residuals) of x_t = x_{t-1} + k_t r_t with
    r_t = y_t - <x_{t-1}, u_t>, for per-step gain vectors k_t (rows of gains),
    from the state before the first row.

    Within a block of rows entered with state x, the residuals solve
    (I + L) r = y - U x with L = tril(U K^T, -1), one LAPACK call per block;
    the predictions are U x + L r and the states x plus running sums of k_t r_t.
    Reversing rows and columns makes the system upper triangular with a unit
    diagonal, so partial pivoting swaps no rows and the solve is plain
    substitution.
    """
    horizon, dim = u.shape
    states = np.empty((horizon, dim))
    predictions = np.empty(horizon)
    residuals = np.empty(horizon)
    steps = np.empty((_BLOCK + 1, dim))
    for start in range(0, horizon, _BLOCK):
        stop = min(start + _BLOCK, horizon)
        size = stop - start
        rows, block_gains = u[start:stop], gains[start:stop]
        coupling = np.where(_STRICT_LOWER[:size, :size], rows @ block_gains.T, 0.0)
        base = rows @ state
        system = coupling[::-1, ::-1] + _IDENTITY[:size, :size]
        r = np.linalg.solve(system, (y[start:stop] - base)[::-1])[::-1]
        residuals[start:stop] = r
        predictions[start:stop] = base + coupling @ r
        # The state, then one step per row, summed in row order.
        steps[0] = state
        np.multiply(block_gains, r[:, None], out=steps[1 : size + 1])
        np.cumsum(steps[: size + 1], axis=0, out=steps[: size + 1])
        states[start:stop] = steps[1 : size + 1]
        state = states[stop - 1]
    return states, predictions, residuals
