import numpy as np
import pytest

from stve import RegressionDataset


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
