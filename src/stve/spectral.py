"""Spectral decomposition of the Gram matrix and the functionals built on it.

The eigenvalues of the Gram matrix are the squared singular values of the
system operator; their inverses are the squared singular values of its
pseudo-inverse.  The estimator only ever needs two Hilbert-Schmidt sums and
two quadratic forms, all cheap once the eigendecomposition is done.  The sums
need the eigenvalues alone; only the quadratic forms need the eigenvectors,
so `eigendecompose(gram, vectors=False)` skips them (LAPACK then leaves out
the eigenvector back-transformation, about half of the work).
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
# Rows per block of the symmetry check; each block reads a contiguous row
# panel and a column panel, so no strided full transpose is formed.
_SYMMETRY_BLOCK = 128


@dataclass(frozen=True, eq=False)
class GramSpectrum:
    """Eigenvalues of a Gram matrix, descending, with vectors[:, i] matching.

    vectors is None for a values-only spectrum (eigendecompose with
    vectors=False); such a spectrum serves `functionals` but not
    `quadratic_forms`.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.array(self.eigenvalues, dtype=np.float64).reshape(-1)
        m = values.shape[0]
        if self.vectors is not None:
            vectors = np.array(self.vectors, dtype=np.float64)
            if vectors.shape != (m, m):
                raise ValueError("vectors must be square with one column per eigenvalue")
            vectors.setflags(write=False)
            object.__setattr__(self, "vectors", vectors)
        if m < 1 or values[-1] <= 0.0:
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(values) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        values.setflags(write=False)
        object.__setattr__(self, "eigenvalues", values)

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


def _asymmetry(g: np.ndarray) -> float:
    """max |g - g.T|, read over the upper triangle one block of rows at a time."""
    m = g.shape[0]
    b = _SYMMETRY_BLOCK
    return max(float(np.abs(g[i : i + b, i:] - g[i:, i : i + b].T).max()) for i in range(0, m, b))


def eigendecompose(gram: np.ndarray, vectors: bool = True) -> GramSpectrum:
    """Symmetric eigendecomposition of a Gram matrix, sorted descending.

    With vectors=False only the eigenvalues are computed (np.linalg.eigvalsh)
    and the returned spectrum's vectors is None; the checks are the same.
    Raises ValueError if the input is not finite, not symmetric to 1e-10
    (relative to the largest entry), or numerically singular: its smallest
    eigenvalue is at most eps times its largest, where rounding error alone
    could account for it.  That signals a zero-norm, negligible or duplicate
    row that should have been filtered out.
    Solver non-convergence propagates as numpy.linalg.LinAlgError.
    """
    g = np.asarray(gram, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
        raise ValueError("gram must be a square 2-D matrix")
    if not np.all(np.isfinite(g)):
        raise ValueError("gram contains non-finite entries")
    scale = max(1.0, float(np.abs(g).max()))
    if _asymmetry(g) > _SYMMETRY_TOL * scale:
        raise ValueError("gram is not symmetric")
    # eigh and eigvalsh read one triangle; the check above bounds what that ignores.
    if vectors:
        values, basis = np.linalg.eigh(g)
    else:
        values, basis = np.linalg.eigvalsh(g), None
    if values[0] <= np.finfo(np.float64).eps * values[-1]:
        raise ValueError(
            "gram matrix is numerically singular; a zero-norm or duplicate row "
            "may have slipped through row filtering"
        )
    # Descending views; GramSpectrum makes the one contiguous copy.
    return GramSpectrum(eigenvalues=values[::-1], vectors=None if basis is None else basis[:, ::-1])


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
    if spectrum.vectors is None:
        raise ValueError("quadratic forms need eigenvectors; this spectrum holds eigenvalues only")
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
