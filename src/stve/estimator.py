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

from .operators import RegressionDataset, filter_rows, gram_matrix
from .spectral import GramSpectrum, SpectralFunctionals, eigendecompose, functionals, quadratic_forms

__all__ = [
    "FlatSpectrumError",
    "StveConfig",
    "StveEstimate",
    "truncation_size",
    "spectral_system",
    "estimate",
]

# Below this excess over 1 the two moment identities are numerically identical
# and the 2x2 system has no solution.
FLAT_SPECTRUM_TOL = 1e-12

# A gap ratio below 1 + this adds a stability warning to the estimate.
GAP_WARN_THRESHOLD = 0.05


class FlatSpectrumError(RuntimeError):
    """The spectrum has no decay, so the two moment identities coincide."""


@dataclass(frozen=True)
class StveConfig:
    """Estimator knob.

    alpha sets the truncation size p = ceil(alpha * T') and min_rows, the
    fewest filtered rows `estimate` accepts, max(4, ceil(1/alpha)).  The row
    filter takes its threshold from the data (see filter_rows).
    """

    alpha: float = 0.25

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")

    @property
    def min_rows(self) -> int:
        return max(4, math.ceil(1.0 / self.alpha))


@dataclass(frozen=True, eq=False)
class StveEstimate:
    """Estimator output: final (clamped) and raw variance estimates plus diagnostics.

    gap_lower_bound is the structural lower-bound proxy for the gap built from
    row-norm extremes, (min_t |sum_j u_tj| / (n max_t ||u_t||)) times the mean
    inverse-eigenvalue mass; it is stated for the quarter truncation
    p = ceil(T'/4), so read it as indicative for other alpha.  dropped holds
    the time labels of the rows the row filter removed (read-only), and
    warnings collects stability and clamping notes.
    """

    sigma2: float
    eta2: float
    sigma2_raw: float
    eta2_raw: float
    functionals: SpectralFunctionals
    effective_T: int
    gap_lower_bound: float
    dropped: np.ndarray
    warnings: tuple[str, ...]


def truncation_size(effective_horizon: int, alpha: float) -> int:
    """Truncation size p = ceil(alpha * T')."""
    if effective_horizon < 1:
        raise ValueError("effective horizon must be positive")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    return int(math.ceil(alpha * effective_horizon))


# dataset -> (filtered, dropped, spectrum).  Weak keys free a spectrum with
# its dataset; no cached value refers back to its key.
_SYSTEMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def spectral_system(
    dataset: RegressionDataset, min_rows: int = 2
) -> tuple[RegressionDataset, np.ndarray, GramSpectrum]:
    """(filtered dataset, dropped time labels, Gram spectrum with
    eigenvectors), computed once per dataset (see filter_rows for the row
    rule) and shared by every caller; its arrays are read-only.  Raises
    ValueError when fewer than min_rows rows survive filtering, before any
    eigendecomposition.
    """
    system = _SYSTEMS.get(dataset)
    filtered, dropped = system[:2] if system is not None else filter_rows(dataset)
    if filtered.horizon < min_rows:
        raise ValueError(f"need at least {min_rows} rows after filtering, have {filtered.horizon}")
    if system is None:
        dropped.setflags(write=False)
        system = _SYSTEMS[dataset] = (filtered, dropped, eigendecompose(gram_matrix(filtered)))
    return system


def estimate(dataset: RegressionDataset, config: StveConfig | None = None) -> StveEstimate:
    """Estimate (sigma^2, eta^2) from one trajectory.

    Rows are filtered first (unobserved rows and rows of negligible Gram
    diagonal are dropped, see filter_rows; surviving rows keep their original
    time labels, so missing responses cost observations but never re-time
    the hidden walk).  The Gram matrix of the reduced system is
    eigendecomposed (see spectral_system) and the two moment identities are
    solved.  A negative raw component is clamped to zero and
    the other unknown re-solved from the full-spectrum identity.

    Raises ValueError when fewer than max(4, ceil(1/alpha)) rows survive
    filtering, and FlatSpectrumError when the gap ratio is 1 within 1e-12
    (flat spectrum, the system is singular and estimation is impossible).
    """
    config = config if config is not None else StveConfig()
    filtered, dropped, spectrum = spectral_system(dataset, config.min_rows)
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
    if funcs.gap_ratio < 1.0 + GAP_WARN_THRESHOLD:
        warnings.append(
            f"gap ratio {funcs.gap_ratio:.6f} below 1 + {GAP_WARN_THRESHOLD}; "
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
        dropped=dropped,
        warnings=tuple(warnings),
    )
