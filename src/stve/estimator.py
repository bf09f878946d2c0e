"""Spectrum-thresholding variance estimator for drifting linear regression.

The estimator recovers the process-noise variance sigma^2 and the
observation-noise variance eta^2 from a single trajectory, without filtering
and without distributional assumptions beyond zero-mean sub-Gaussian noise.
It solves the 2x2 linear system formed by two moment identities: the mean
squared pseudo-inverse image of the responses has expectation

    sigma^2 + (||pinv||_HS^2 / T') * eta^2,

and the same statistic truncated to the p largest pseudo-inverse directions
has expectation sigma^2 + (||trunc||_HS^2 / p) * eta^2.  Spectral decay makes
the two coefficient rows differ, which is what the gap ratio measures.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .operators import (
    DEFAULT_MIN_ROW_NORM,
    RegressionDataset,
    filter_rows,
    gram_matrix,
)
from .simulator import NoiseSpec
from .spectral import GramSpectrum, SpectralFunctionals, eigendecompose, functionals, quadratic_forms

__all__ = [
    "FlatSpectrumError",
    "StveConfig",
    "StveEstimate",
    "MomentCheck",
    "truncation_size",
    "spectral_system",
    "estimate",
    "moment_equation_check",
]

# Below this excess over 1 the two moment identities are numerically identical
# and the 2x2 system has no solution.
FLAT_SPECTRUM_TOL = 1e-12


class FlatSpectrumError(RuntimeError):
    """The spectrum has no decay, so the two moment identities coincide."""


@dataclass(frozen=True)
class StveConfig:
    """Estimator knobs.

    alpha sets the truncation size p = ceil(alpha * T').  min_row_norm is the
    row-filter threshold; rows at or below it are dropped before anything is
    computed.  gap_warn_threshold triggers a stability warning when the gap
    ratio falls below 1 + threshold.
    """

    alpha: float = 0.25
    min_row_norm: float = DEFAULT_MIN_ROW_NORM
    gap_warn_threshold: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if not (np.isfinite(self.min_row_norm) and self.min_row_norm >= 0.0):
            raise ValueError("min_row_norm must be finite and non-negative")
        if not (np.isfinite(self.gap_warn_threshold) and self.gap_warn_threshold >= 0.0):
            raise ValueError("gap_warn_threshold must be finite and non-negative")


@dataclass(frozen=True)
class StveEstimate:
    """Estimator output: final (clamped) and raw variance estimates plus diagnostics.

    gap_lower_bound is the structural lower-bound proxy for the gap built from
    row-norm extremes, (min_t |sum_j u_tj| / (n max_t ||u_t||)) times the mean
    inverse-eigenvalue mass; it is stated for the quarter truncation
    p = ceil(T'/4), so read it as indicative for other alpha.  warnings
    collects stability and clamping notes.
    """

    sigma2: float
    eta2: float
    sigma2_raw: float
    eta2_raw: float
    functionals: SpectralFunctionals
    effective_T: int
    gap_lower_bound: float
    warnings: tuple[str, ...]


def truncation_size(effective_horizon: int, alpha: float) -> int:
    """Truncation size p = ceil(alpha * T')."""
    if effective_horizon < 1:
        raise ValueError("effective horizon must be positive")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    return int(math.ceil(alpha * effective_horizon))


# dataset -> {min_row_norm: (filtered, dropped, spectrum)}.  Weak keys free a
# spectrum with its dataset; no cached value refers back to its key.
_SYSTEMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def spectral_system(
    dataset: RegressionDataset, min_row_norm: float = DEFAULT_MIN_ROW_NORM, min_rows: int = 2
) -> tuple[RegressionDataset, np.ndarray, GramSpectrum]:
    """(filtered dataset, dropped time labels, Gram spectrum), computed once
    per (dataset, min_row_norm) and shared by every caller; its arrays are
    read-only.  Raises ValueError when fewer than min_rows rows survive
    filtering, before any eigendecomposition.
    """
    system = _SYSTEMS.get(dataset, {}).get(min_row_norm)
    filtered, dropped = system[:2] if system is not None else filter_rows(dataset, min_row_norm)
    if filtered.horizon < min_rows:
        raise ValueError(f"need at least {min_rows} rows after filtering, have {filtered.horizon}")
    if system is None:
        dropped.setflags(write=False)
        system = (filtered, dropped, eigendecompose(gram_matrix(filtered)))
        _SYSTEMS.setdefault(dataset, {})[min_row_norm] = system
    return system


def estimate(dataset: RegressionDataset, config: StveConfig | None = None) -> StveEstimate:
    """Estimate (sigma^2, eta^2) from one trajectory.

    Rows are filtered first (unobserved or negligible-norm rows are dropped;
    surviving rows keep their original time labels, so missing responses cost
    observations but never re-time the hidden walk).  The Gram matrix of the
    reduced system is eigendecomposed (see spectral_system) and the two moment
    identities are solved.  A negative raw component is clamped to zero and
    the other unknown re-solved from the full-spectrum identity.

    Raises ValueError when fewer than max(4, ceil(1/alpha)) rows survive
    filtering, and FlatSpectrumError when the gap ratio is 1 within 1e-12
    (flat spectrum, the system is singular and estimation is impossible).
    """
    config = config if config is not None else StveConfig()
    required = max(4, math.ceil(1.0 / config.alpha))
    filtered, _dropped, spectrum = spectral_system(dataset, config.min_row_norm, required)
    effective = filtered.horizon
    p = truncation_size(effective, config.alpha)
    funcs = functionals(spectrum, p)
    if funcs.gap_ratio - 1.0 <= FLAT_SPECTRUM_TOL:
        raise FlatSpectrumError(
            f"gap ratio {funcs.gap_ratio!r} is 1 within {FLAT_SPECTRUM_TOL}; the "
            "spectrum is flat and the variance system is singular"
        )

    pinv_y_sq, trunc_y_sq = quadratic_forms(spectrum, filtered.y, p)
    mean_full = pinv_y_sq / effective
    mean_trunc = trunc_y_sq / p
    coef_full = funcs.pinv_hs_sq / effective
    coef_trunc = funcs.trunc_hs_sq / p

    eta2_raw = (mean_trunc - mean_full) / (coef_trunc - coef_full)
    sigma2_raw = mean_full - coef_full * eta2_raw

    warnings: list[str] = []
    sigma2, eta2 = sigma2_raw, eta2_raw
    if eta2_raw < 0.0:
        # Re-solve the full-spectrum identity with eta^2 fixed at zero.
        eta2 = 0.0
        sigma2 = mean_full
        warnings.append("negative raw eta2 clamped to 0; sigma2 re-solved")
    elif sigma2_raw < 0.0:
        sigma2 = 0.0
        eta2 = pinv_y_sq / funcs.pinv_hs_sq
        warnings.append("negative raw sigma2 clamped to 0; eta2 re-solved")
    if funcs.gap_ratio < 1.0 + config.gap_warn_threshold:
        warnings.append(
            f"gap ratio {funcs.gap_ratio:.6f} below 1 + {config.gap_warn_threshold}; "
            "estimates may be unstable"
        )

    # Smallest |sum_j u[t, j]| over the largest row norm drives the gap bound.
    u_tilde_min = float(np.abs(filtered.u.sum(axis=1)).min())
    u_max_norm = float(filtered.row_norms().max())
    gap_lower_bound = (u_tilde_min / (filtered.dim * u_max_norm)) * (funcs.pinv_hs_sq / effective)

    return StveEstimate(
        sigma2=float(sigma2),
        eta2=float(eta2),
        sigma2_raw=float(sigma2_raw),
        eta2_raw=float(eta2_raw),
        functionals=funcs,
        effective_T=effective,
        gap_lower_bound=float(gap_lower_bound),
        warnings=tuple(warnings),
    )


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
    min_row_norm: float = DEFAULT_MIN_ROW_NORM,
    seed: int = 0,
) -> MomentCheck:
    """Simulate fresh responses on the dataset's design and compare the sample
    means of the two statistics against their analytic expectations.

    The design (observation vectors, row mask, time labels) is taken from the
    dataset; only the noises are redrawn, so the spectrum is computed once.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications")
    filtered, _dropped, spectrum = spectral_system(dataset, min_row_norm)
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
