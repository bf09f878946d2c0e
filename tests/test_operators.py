import numpy as np
import pytest

from stve import (
    RegressionDataset,
    filter_rows,
    gram_matrix,
    select_rows,
)

from conftest import dense_system_matrix, difference_spectrum, make_dataset


class TestRegressionDataset:
    def test_basic_properties(self):
        ds = RegressionDataset(u=np.ones((3, 2)), y=np.zeros(3))
        assert ds.horizon == 3
        assert ds.dim == 2
        assert ds.effective_horizon == 3
        assert np.array_equal(ds.time_index, [1, 2, 3])

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            RegressionDataset(u=np.ones((1, 1)), y=np.zeros(1))

    def test_too_few_observed_rows(self):
        with pytest.raises(ValueError):
            RegressionDataset(u=np.ones((3, 1)), y=np.zeros(3), observed=[True, False, False])

    def test_non_finite_u_rejected(self):
        u = np.ones((3, 1))
        u[1, 0] = np.nan
        with pytest.raises(ValueError):
            RegressionDataset(u=u, y=np.zeros(3))

    def test_y_must_be_finite_where_observed(self):
        y = np.array([0.0, np.nan, 0.0])
        with pytest.raises(ValueError):
            RegressionDataset(u=np.ones((3, 1)), y=y)
        # NaN at an unobserved position is fine
        ds = RegressionDataset(u=np.ones((3, 1)), y=y, observed=[True, False, True])
        assert ds.effective_horizon == 2

    def test_arrays_read_only(self):
        ds = RegressionDataset(u=np.ones((2, 1)), y=np.zeros(2))
        with pytest.raises(ValueError):
            ds.u[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.y[0] = 5.0

    def test_time_index_must_increase(self):
        with pytest.raises(ValueError):
            RegressionDataset(u=np.ones((2, 1)), y=np.zeros(2), time_index=[2, 2])
        with pytest.raises(ValueError):
            RegressionDataset(u=np.ones((2, 1)), y=np.zeros(2), time_index=[0, 1])


class TestGramMatrix:
    def test_two_step_scalar_example(self):
        ds = RegressionDataset(u=np.ones((2, 1)), y=np.zeros(2))
        assert np.allclose(gram_matrix(ds), [[1.0, 1.0], [1.0, 2.0]], atol=1e-15)

    def test_orthogonal_rows(self):
        ds = RegressionDataset(u=np.array([[1.0, 0.0], [0.0, 1.0]]), y=np.zeros(2))
        assert np.allclose(gram_matrix(ds), [[1.0, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_requires_filtered(self):
        ds = make_dataset(np.random.default_rng(0), 4, 2, missing=(2,))
        with pytest.raises(ValueError):
            gram_matrix(ds)
        zero_row = np.ones((3, 1))
        zero_row[1, 0] = 0.0
        with pytest.raises(ValueError):
            gram_matrix(RegressionDataset(u=zero_row, y=np.zeros(3)))

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_dense_product(self, trial):
        rng = np.random.default_rng(100 + trial)
        T = int(rng.integers(2, 13))
        n = int(rng.integers(1, 5))
        ds = make_dataset(rng, T, n)
        dense = dense_system_matrix(ds)
        G = gram_matrix(ds)
        assert np.allclose(G, dense @ dense.T, rtol=1e-12, atol=1e-12)

    def test_masked_gram_is_principal_submatrix(self, rng):
        T = 12
        full = make_dataset(rng, T, 3)
        G_full = gram_matrix(full)
        masked = RegressionDataset(
            u=full.u, y=full.y, observed=[k not in (2, 5, 6) for k in range(1, T + 1)]
        )
        reduced, dropped = filter_rows(masked)
        keep = reduced.time_index - 1
        assert np.array_equal(dropped, [2, 5, 6])
        assert np.allclose(gram_matrix(reduced), G_full[np.ix_(keep, keep)], atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_exactly_symmetric(self, rng, n):
        # eigendecompose passes G to eigh as is, and eigh reads one triangle
        T = 800
        times = np.sort(rng.choice(np.arange(1, 3 * T), size=T, replace=False))
        ds = RegressionDataset(
            u=rng.normal(size=(T, n)), y=rng.normal(size=T), observed=rng.random(T) > 0.1, time_index=times
        )
        filtered, dropped = filter_rows(ds)
        assert dropped.size > 0
        G = gram_matrix(filtered)
        assert np.array_equal(G, G.T)

    def test_dense_consistent_with_operator_composition(self, rng):
        # the dense oracle applies the per-coordinate prefix sum of the
        # process-noise steps, then the inner product with each kept row
        ds = make_dataset(rng, 9, 2, missing=(3, 7))
        filtered, _ = filter_rows(ds)
        max_time = int(filtered.time_index[-1])
        h = rng.normal(size=max_time * filtered.dim)
        paths = np.cumsum(h.reshape(max_time, filtered.dim), axis=0)
        means = np.einsum("ti,ti->t", filtered.u, paths[filtered.time_index - 1])
        dense = dense_system_matrix(filtered)
        assert np.allclose(dense @ h, means, atol=1e-12)


class TestSystemHsNorm:
    # The squared Hilbert-Schmidt norm of the system operator is the trace of
    # its Gram matrix.
    def test_three_ones(self):
        ds = RegressionDataset(u=np.ones((3, 1)), y=np.zeros(3))
        assert float(np.trace(gram_matrix(ds))) == pytest.approx(6.0, abs=1e-15)

    def test_equals_gram_trace(self, rng):
        # closed form sum_t time_t ||u_t||^2, here with relabelled times
        ds = make_dataset(rng, 15, 3, missing=(4, 9))
        filtered, _ = filter_rows(ds)
        times = filtered.time_index.astype(float)
        closed = float(np.sum(times * np.sum(filtered.u**2, axis=1)))
        assert closed == pytest.approx(float(np.trace(gram_matrix(filtered))), rel=1e-12)

    @pytest.mark.parametrize("trial", range(5))
    def test_norm_sandwich(self, trial):
        rng = np.random.default_rng(200 + trial)
        T = int(rng.integers(5, 60))
        ds = make_dataset(rng, T, int(rng.integers(1, 4)))
        norms = np.linalg.norm(ds.u, axis=1)
        hs = float(np.trace(gram_matrix(ds)))
        assert hs >= 0.25 * norms.min() ** 2 * T**2 - 1e-12
        # exact discrete upper bound: sum of t over t<=T is T(T+1)/2
        assert hs <= 0.5 * norms.max() ** 2 * T * (T + 1) + 1e-12


class TestDifferenceSpectrum:
    def test_T2(self):
        assert np.allclose(difference_spectrum(2), [np.sqrt(2.0)], atol=1e-15)

    def test_T3(self):
        assert np.allclose(difference_spectrum(3), [np.sqrt(3.0), 1.0], atol=1e-15)

    @pytest.mark.parametrize("T", [2, 5, 17, 60])
    def test_matches_explicit_svd(self, T):
        D = np.zeros((T - 1, T))
        for i in range(T - 1):
            D[i, i] = -1.0
            D[i, i + 1] = 1.0
        sv = np.linalg.svd(D, compute_uv=False)
        closed = difference_spectrum(T)
        assert closed.shape == (T - 1,)
        assert np.all(np.diff(closed) <= 0)
        assert np.all(closed < 2.0)
        assert np.allclose(np.sort(sv)[::-1], closed, atol=1e-12)


class TestFilterRows:
    def test_identity_when_clean(self, rng):
        ds = make_dataset(rng, 8, 2)
        out, dropped = filter_rows(ds, min_norm=0.0)
        assert dropped.size == 0
        assert np.array_equal(out.time_index, ds.time_index)
        assert np.allclose(out.u, ds.u)

    def test_missing_row_dropped_with_original_labels(self, rng):
        ds = make_dataset(rng, 5, 2, missing=(3,))
        out, dropped = filter_rows(ds)
        assert out.horizon == 4
        assert np.array_equal(out.time_index, [1, 2, 4, 5])
        assert np.array_equal(dropped, [3])

    def test_low_norm_row_dropped(self):
        u = np.array([[1.0], [1e-12], [2.0]])
        ds = RegressionDataset(u=u, y=np.zeros(3))
        out, dropped = filter_rows(ds)
        assert np.array_equal(dropped, [2])
        assert np.array_equal(out.time_index, [1, 3])

    def test_all_rows_below_threshold_errors(self):
        ds = RegressionDataset(u=np.full((3, 1), 1e-12), y=np.zeros(3))
        with pytest.raises(ValueError):
            filter_rows(ds)

    def test_select_rows_keeps_labels(self, rng):
        ds = make_dataset(rng, 6, 2)
        out = select_rows(ds, np.array([0, 3, 5]))
        assert np.array_equal(out.time_index, [1, 4, 6])
