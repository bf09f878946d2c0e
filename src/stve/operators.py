"""Structured operators of the random-walk regression system.

The hidden coefficient path is a random walk; each step is observed through an
inner product with a known vector u_t plus noise.  Composing the block
prefix-sum map with the per-step observation map gives the system operator
whose Gram matrix has the closed form

    G[s, t] = min(time_s, time_t) * <u_s, u_t>.

Everything downstream (spectra, estimator functionals) is computed from this
T' x T' Gram matrix; the T' x (T*n) system matrix itself is never
materialized.  Row deletion (missing observations,
rows of negligible Gram diagonal) keeps the original 1-based time labels, so
deleting a row never re-times the walk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegressionDataset",
    "gram_matrix",
    "filter_rows",
    "select_rows",
]


@dataclass(frozen=True, eq=False)
class RegressionDataset:
    """Observation vectors and scalar responses on a shared time grid.

    u[k] is the observation vector of row k, y[k] its scalar response and
    observed[k] whether that response is available.  time_index carries the
    1-based original time label of each row; constructing a dataset from a
    subset of rows keeps the surviving labels.  Instances are immutable and
    the arrays are marked read-only.
    """

    u: np.ndarray
    y: np.ndarray
    observed: np.ndarray | None = None
    time_index: np.ndarray | None = None

    def __post_init__(self) -> None:
        u = np.array(self.u, dtype=np.float64)
        if u.ndim != 2:
            raise ValueError("u must be a 2-D array, one observation vector per row")
        rows, dim = u.shape
        if rows < 2:
            raise ValueError("a dataset needs at least 2 rows")
        if dim < 1:
            raise ValueError("observation vectors need at least 1 coordinate")
        if not np.all(np.isfinite(u)):
            raise ValueError("u contains non-finite entries")

        y = np.array(self.y, dtype=np.float64).reshape(-1)
        if y.shape[0] != rows:
            raise ValueError("y length does not match the number of rows")

        if self.observed is None:
            observed = np.ones(rows, dtype=bool)
        else:
            observed = np.array(self.observed, dtype=bool).reshape(-1)
            if observed.shape[0] != rows:
                raise ValueError("observed length does not match the number of rows")
        if int(observed.sum()) < 2:
            raise ValueError("a dataset needs at least 2 observed rows")
        if not np.all(np.isfinite(y[observed])):
            raise ValueError("y must be finite at every observed row")

        if self.time_index is None:
            time_index = np.arange(1, rows + 1, dtype=np.int64)
        else:
            time_index = np.array(self.time_index, dtype=np.int64).reshape(-1)
            if time_index.shape[0] != rows:
                raise ValueError("time_index length does not match the number of rows")
            if time_index[0] < 1 or np.any(np.diff(time_index) <= 0):
                raise ValueError("time_index must be 1-based and strictly increasing")

        for name, arr in (("u", u), ("y", y), ("observed", observed), ("time_index", time_index)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def horizon(self) -> int:
        """Number of rows."""
        return self.u.shape[0]

    @property
    def dim(self) -> int:
        """Coordinates per observation vector."""
        return self.u.shape[1]

    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.u, axis=1)


def _require_filtered(dataset: RegressionDataset) -> None:
    if not bool(dataset.observed.all()):
        raise ValueError("dataset has unobserved rows; apply filter_rows first")
    if np.any(dataset.row_norms() == 0.0):
        raise ValueError("dataset has zero-norm rows; apply filter_rows first")


def gram_matrix(dataset: RegressionDataset) -> np.ndarray:
    """Gram matrix of the system operator, from its closed form.

    Entry (s, t) is min(time_s, time_t) * <u_s, u_t>, where the times are the
    original 1-based labels of the rows.  The dataset must already be
    row-filtered (no unobserved rows, no zero-norm rows).
    """
    _require_filtered(dataset)
    times = dataset.time_index.astype(np.float64)
    return np.minimum.outer(times, times) * (dataset.u @ dataset.u.T)


def select_rows(dataset: RegressionDataset, rows: np.ndarray) -> RegressionDataset:
    """Dataset restricted to the given row positions, original time labels kept."""
    idx = np.asarray(rows)
    return RegressionDataset(
        u=dataset.u[idx],
        y=dataset.y[idx],
        observed=dataset.observed[idx],
        time_index=dataset.time_index[idx],
    )


def filter_rows(dataset: RegressionDataset) -> tuple[RegressionDataset, np.ndarray]:
    """Drop unobserved rows and observed rows of negligible Gram diagonal.

    Row k's Gram diagonal is t_k ||u_k||^2.  Since the smallest Gram
    eigenvalue is at most the smallest diagonal and the largest at least the
    largest diagonal, a row whose diagonal is at most T'^(3/2) eps times the
    largest (T' observed rows, eps the float64 epsilon) pins the smallest
    eigenvalue where the rounding error of a dense eigendecomposition decides
    its inverse; such rows are dropped.  The rule reads u and the time labels,
    never y, and does not change when u is rescaled.

    Returns the filtered dataset (original time labels kept) and the original
    time labels of the dropped rows.  Raises if fewer than 2 rows survive.
    """
    observed = dataset.observed
    # einsum: a row too large to square becomes inf without a numpy warning.
    diag = np.where(observed, dataset.time_index * np.einsum("ij,ij->i", dataset.u, dataset.u), 0.0)
    floor = int(observed.sum()) ** 1.5 * np.finfo(np.float64).eps * diag.max()
    keep = observed & (diag > floor)
    if int(keep.sum()) < 2:
        raise ValueError("fewer than 2 rows remain after row filtering")
    dropped = dataset.time_index[~keep].copy()
    return select_rows(dataset, np.flatnonzero(keep)), dropped
