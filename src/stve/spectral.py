"""Spectral decomposition of the Gram matrix and the functionals built on it.

The eigenvalues of the Gram matrix are the squared singular values of the
system operator; their inverses are the squared singular values of its
pseudo-inverse.  The estimator only ever needs two Hilbert-Schmidt sums and
two quadratic forms, all cheap once the eigendecomposition is done.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GramSpectrum",
    "SpectralFunctionals",
    "eigendecompose",
    "quadratic_forms",
    "functionals",
]

_SYMMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GramSpectrum:
    """Eigenpairs of a Gram matrix: eigenvalues descending, vectors[:, i] matching."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.eigenvalues, dtype=np.float64).reshape(-1)
        vectors = np.array(self.vectors, dtype=np.float64)
        m = values.shape[0]
        if vectors.shape != (m, m):
            raise ValueError("vectors must be square with one column per eigenvalue")
        if m < 1 or values[-1] <= 0.0:
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(values) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        values.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "vectors", vectors)

    @property
    def order(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class SpectralFunctionals:
    """The two Hilbert-Schmidt sums the estimator consumes.

    pinv_hs_sq  : squared HS norm of the system pseudo-inverse, sum of inverse
                  Gram eigenvalues.
    trunc_hs_sq : same sum restricted to the p smallest eigenvalues, i.e. the
                  squared HS norm of the pseudo-inverse truncated to its p
                  largest singular directions.
    gap_ratio   : (trunc_hs_sq / p) / (pinv_hs_sq / order); equals 1 exactly on
                  a flat spectrum and grows with spectral decay.
    """

    pinv_hs_sq: float
    trunc_hs_sq: float
    p: int
    gap_ratio: float


def eigendecompose(gram: np.ndarray) -> GramSpectrum:
    """Symmetric eigendecomposition of a Gram matrix, sorted descending.

    Raises ValueError if the input is not finite, not symmetric to 1e-10
    (relative to the largest entry), or has an eigenvalue <= 0, which signals
    a zero-norm or duplicate row that should have been filtered out.
    Solver non-convergence propagates as numpy.linalg.LinAlgError.
    """
    g = np.asarray(gram, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
        raise ValueError("gram must be a square 2-D matrix")
    if not np.all(np.isfinite(g)):
        raise ValueError("gram contains non-finite entries")
    scale = max(1.0, float(np.abs(g).max()))
    if float(np.abs(g - g.T).max()) > _SYMMETRY_TOL * scale:
        raise ValueError("gram is not symmetric")
    # eigh reads one triangle; the check above bounds what that ignores.
    values, vectors = np.linalg.eigh(g)
    if values[0] <= 0.0:
        raise ValueError(
            "gram matrix is numerically singular; a zero-norm or duplicate row "
            "may have slipped through row filtering"
        )
    # Descending views; GramSpectrum makes the one contiguous copy.
    return GramSpectrum(eigenvalues=values[::-1], vectors=vectors[:, ::-1])


def _check_p(spectrum: GramSpectrum, p: int) -> None:
    if not (1 <= p <= spectrum.order):
        raise ValueError(f"p must be in [1, {spectrum.order}], got {p}")


def quadratic_forms(spectrum: GramSpectrum, y: np.ndarray, p: int) -> tuple[float, float]:
    """Squared norms of the pseudo-inverse image of y, full and truncated.

    With coefficients c = vectors^T y, the full form is sum_i c_i^2 / lambda_i
    and the truncated form keeps only the p smallest eigenvalues (the p
    largest singular values of the pseudo-inverse).
    """
    _check_p(spectrum, p)
    arr = np.asarray(y, dtype=np.float64).reshape(-1)
    if arr.shape[0] != spectrum.order:
        raise ValueError("y length does not match the spectrum order")
    if not np.all(np.isfinite(arr)):
        raise ValueError("y contains non-finite entries")
    c = spectrum.vectors.T @ arr
    weights = (c * c) / spectrum.eigenvalues
    return float(weights.sum()), float(weights[spectrum.order - p :].sum())


def functionals(spectrum: GramSpectrum, p: int) -> SpectralFunctionals:
    """Hilbert-Schmidt sums and gap ratio at truncation size p."""
    _check_p(spectrum, p)
    inverse = 1.0 / spectrum.eigenvalues
    pinv_hs_sq = float(inverse.sum())
    trunc_hs_sq = float(inverse[spectrum.order - p :].sum())
    gap_ratio = (trunc_hs_sq / p) / (pinv_hs_sq / spectrum.order)
    return SpectralFunctionals(
        pinv_hs_sq=pinv_hs_sq, trunc_hs_sq=trunc_hs_sq, p=int(p), gap_ratio=float(gap_ratio)
    )
