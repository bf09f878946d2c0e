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

The filter stays isotropic on purpose: it is the online-prediction baseline,
one O(n) update per step.  It is not the model's likelihood for n > 1;
`stve.baselines.mle_fit` maximizes the exact Gaussian likelihood from the
Gram spectrum instead, and matches this filter's loglik at n = 1 when the
filter starts at x0 = 0 with a vanishing c0_scale.
"""
from __future__ import annotations

import math
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
    horizon, dim = dataset.horizon, dataset.dim
    if config.x0 is None:
        state = np.zeros(dim)
    else:
        if config.x0.shape[0] != dim:
            raise ValueError("x0 length does not match the dataset dimension")
        state = np.array(config.x0)
    scale = config.c0_scale
    eta2 = config.eta2
    # Walk variance added before each row, as Python floats for the loop.
    drift = (config.sigma2 * np.diff(dataset.time_index, prepend=0)).tolist()

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
            weighted = prior * u
            innovation_var = float(weighted @ u) + eta2
            if not (np.isfinite(innovation_var) and innovation_var > 0.0):
                raise FloatingPointError(
                    f"non-finite or non-positive innovation variance at step {t + 1}"
                )
            residual = dataset.y[t] - predictions[t]
            innovations[t] = residual
            scale = (eta2 / innovation_var) * prior
            # The gain (c_next / eta^2) u collapses to weighted / innovation_var.
            state = state + (residual / innovation_var) * weighted
            loglik -= 0.5 * (
                math.log(2.0 * math.pi * innovation_var) + residual * residual / innovation_var
            )
        else:
            scale = prior
        states[t] = state
        scales[t] = scale

    if not (np.all(np.isfinite(states)) and np.isfinite(loglik)):
        raise FloatingPointError("filter recursion produced non-finite values")
    for arr in (states, scales, predictions, innovations):
        arr.setflags(write=False)
    return KalmanTrajectory(
        states=states,
        scales=scales,
        predictions=predictions,
        innovations=innovations,
        loglik=float(loglik),
    )
