import numpy as np
import pytest

from stve import (
    RegressionDataset,
    eigendecompose,
    filter_rows,
    functionals,
    gram_matrix,
    quadratic_forms,
)
from stve.spectral import _SYMMETRY_BLOCK, GramSpectrum, _asymmetry

from conftest import brute_force_pinv_quantities, make_dataset

GOLDEN_HI = (3.0 + np.sqrt(5.0)) / 2.0  # 2.618...
GOLDEN_LO = (3.0 - np.sqrt(5.0)) / 2.0  # 0.381...


def two_step_spectrum():
    return eigendecompose(np.array([[1.0, 1.0], [1.0, 2.0]]))


class TestEigendecompose:
    def test_two_step_example(self):
        spec = two_step_spectrum()
        assert np.allclose(spec.eigenvalues, [GOLDEN_HI, GOLDEN_LO], atol=1e-12)

    def test_identity(self):
        spec = eigendecompose(np.eye(4))
        assert np.allclose(spec.eigenvalues, 1.0, atol=1e-15)
        assert np.allclose(spec.vectors @ spec.vectors.T, np.eye(4), atol=1e-12)

    def test_diagonal(self):
        spec = eigendecompose(np.diag([4.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [4.0, 1.0], atol=1e-15)
        assert np.allclose(np.abs(spec.vectors), np.eye(2), atol=1e-12)

    def test_descending_and_trace(self, rng):
        ds = make_dataset(rng, 30, 4)
        G = gram_matrix(ds)
        spec = eigendecompose(G)
        assert np.all(np.diff(spec.eigenvalues) <= 0)
        assert np.sum(spec.eigenvalues) == pytest.approx(np.trace(G), rel=1e-10)

    def test_residual_and_reconstruction(self, rng):
        ds = make_dataset(rng, 40, 3)
        G = gram_matrix(ds)
        spec = eigendecompose(G)
        scale = np.linalg.norm(G)
        for i in range(spec.order):
            v = spec.vectors[:, i]
            residual = np.linalg.norm(G @ v - spec.eigenvalues[i] * v)
            assert residual <= 1e-8 * scale
        recon = spec.vectors @ np.diag(spec.eigenvalues) @ spec.vectors.T
        assert np.allclose(recon, G, rtol=1e-8, atol=1e-8 * scale)
        assert np.allclose(spec.vectors.T @ spec.vectors, np.eye(spec.order), atol=1e-8)

    def test_values_only_matches_full(self, rng):
        ds = make_dataset(rng, 80, 3, missing=(5, 17, 40))
        G = gram_matrix(filter_rows(ds)[0])
        full = eigendecompose(G)
        values_only = eigendecompose(G, vectors=False)
        assert values_only.vectors is None
        assert values_only.order == full.order
        assert not values_only.eigenvalues.flags.writeable
        tol = 1e-12 * full.eigenvalues[0]
        assert np.all(np.abs(values_only.eigenvalues - full.eigenvalues) <= tol)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("entry", [(0, 299), (140, 120)])
    def test_asymmetry_found_in_any_block(self, vectors, entry):
        # (0, m - 1) is the far corner; (140, 120) straddles the first block edge
        assert 120 < _SYMMETRY_BLOCK < 140
        G = np.eye(300)
        G[entry] = 1e-6
        with pytest.raises(ValueError, match="gram is not symmetric"):
            eigendecompose(G, vectors=vectors)

    @pytest.mark.parametrize("m", [1, 127, 128, 129, 300])
    def test_blocked_asymmetry_equals_the_full_transpose(self, rng, m):
        g = rng.normal(size=(m, m))
        assert _asymmetry(g) == np.abs(g - g.T).max()

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[1.0, 0.0], [0.0, -0.5]]))
        with pytest.raises(ValueError):
            eigendecompose(np.zeros((3, 3)))

    def test_rejects_non_finite(self):
        G = np.eye(2)
        G[0, 0] = np.inf
        with pytest.raises(ValueError):
            eigendecompose(G)

    @pytest.mark.parametrize(
        "gram, message",
        [
            (np.array([[1.0, 2.0], [0.0, 1.0]]), "gram is not symmetric"),
            (np.array([[1.0, 0.0], [0.0, -0.5]]), "numerically singular"),
            (np.zeros((3, 3)), "numerically singular"),
            (np.diag([np.inf, 1.0]), "non-finite"),
            (np.ones(3), "square 2-D"),
        ],
    )
    @pytest.mark.parametrize("vectors", [True, False])
    def test_both_paths_reject_with_one_message(self, gram, message, vectors):
        with pytest.raises(ValueError, match=message):
            eigendecompose(gram, vectors=vectors)

    @pytest.mark.parametrize("trial", range(5))
    def test_singular_value_bounds(self, trial):
        rng = np.random.default_rng(300 + trial)
        T = int(rng.integers(5, 50))
        ds = make_dataset(rng, T, int(rng.integers(1, 5)))
        norms = np.linalg.norm(ds.u, axis=1)
        sv = np.sqrt(eigendecompose(gram_matrix(ds)).eigenvalues)
        assert sv[0] <= norms.max() * T + 1e-9
        assert sv[-1] >= 0.5 * norms.min() - 1e-9
        # operator norm of the pseudo-inverse
        assert 1.0 / sv[-1] <= 2.0 / norms.min() + 1e-9
        # summed over all T eigenvalues: the squared HS norm of the pseudo-inverse
        assert np.sum(1.0 / sv**2) <= 4.0 * T / norms.min() ** 2 * (1 + 1e-9)


class TestInversePrefixSumSandwich:
    @pytest.mark.parametrize("T", [5, 20, 75])
    def test_all_ones_instance(self, T):
        ds = RegressionDataset(u=np.ones((T, 1)), y=np.zeros(T))
        sv = np.sqrt(eigendecompose(gram_matrix(ds)).eigenvalues)
        lam = np.sort(1.0 / sv)[::-1]  # descending spectrum of the inverse map
        for t in range(1, T):
            lo = 2.0 * np.sin(np.pi * (T - t) / (2.0 * (T + 1)))
            hi = 2.0 * np.sin(np.pi * (T + 1 - t) / (2.0 * (T + 1)))
            assert lo - 1e-12 <= lam[t - 1] <= hi + 1e-12
        assert 1.0 / T - 1e-12 <= lam[T - 1] <= 2.0 * np.sin(np.pi / (2.0 * (T + 1))) + 1e-12


class TestQuadraticForms:
    def test_zero_response(self):
        spec = two_step_spectrum()
        assert quadratic_forms(spec, np.zeros(2), 1) == (0.0, 0.0)

    def test_full_truncation_equals_total(self, rng):
        ds = make_dataset(rng, 12, 2)
        spec = eigendecompose(gram_matrix(ds))
        full, trunc = quadratic_forms(spec, ds.y, spec.order)
        assert trunc == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("trial", range(8))
    def test_matches_brute_force_pseudo_inverse(self, trial):
        rng = np.random.default_rng(400 + trial)
        T = int(rng.integers(3, 9))
        n = int(rng.integers(1, 4))
        ds = make_dataset(rng, T, n)
        p = int(rng.integers(1, T + 1))
        spec = eigendecompose(gram_matrix(ds))
        full, trunc = quadratic_forms(spec, ds.y, p)
        oracle = brute_force_pinv_quantities(ds, ds.y, p)
        assert full == pytest.approx(oracle["rY_sq"], rel=1e-9, abs=1e-9)
        assert trunc == pytest.approx(oracle["rpY_sq"], rel=1e-9, abs=1e-9)
        assert np.allclose(spec.eigenvalues, oracle["gamma_sq"], rtol=1e-9, atol=1e-9)

    def test_sign_flip_invariance(self, rng):
        ds = make_dataset(rng, 10, 2)
        spec = eigendecompose(gram_matrix(ds))
        flipped = GramSpectrum(
            eigenvalues=spec.eigenvalues.copy(),
            vectors=spec.vectors * np.where(np.arange(spec.order) % 2 == 0, -1.0, 1.0),
        )
        a = quadratic_forms(spec, ds.y, 3)
        b = quadratic_forms(flipped, ds.y, 3)
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_p_out_of_range(self):
        spec = two_step_spectrum()
        with pytest.raises(ValueError):
            quadratic_forms(spec, np.zeros(2), 0)
        with pytest.raises(ValueError):
            quadratic_forms(spec, np.zeros(2), 3)

    def test_dimension_mismatch(self):
        spec = two_step_spectrum()
        with pytest.raises(ValueError):
            quadratic_forms(spec, np.zeros(3), 1)

    def test_values_only_spectrum_raises(self):
        spec = eigendecompose(np.array([[1.0, 1.0], [1.0, 2.0]]), vectors=False)
        with pytest.raises(ValueError, match="need eigenvectors"):
            quadratic_forms(spec, np.zeros(2), 1)


class TestFunctionals:
    def test_two_step_frozen_values(self):
        spec = two_step_spectrum()
        f = functionals(spec, 1)
        assert f.pinv_hs_sq == pytest.approx(3.0, rel=1e-12)  # trace of the inverse
        assert f.trunc_hs_sq == pytest.approx(GOLDEN_HI, rel=1e-12)
        assert f.gap_ratio == pytest.approx(2.0 * GOLDEN_HI / 3.0, rel=1e-12)
        assert f.p == 1

    def test_identity_gram_is_flat(self):
        spec = eigendecompose(np.eye(5))
        for p in (1, 2, 5):
            assert functionals(spec, p).gap_ratio == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("trial", range(8))
    def test_invariants_random(self, trial):
        rng = np.random.default_rng(500 + trial)
        T = int(rng.integers(4, 40))
        ds = make_dataset(rng, T, int(rng.integers(1, 4)))
        spec = eigendecompose(gram_matrix(ds))
        p = int(rng.integers(1, T + 1))
        f = functionals(spec, p)
        assert f.gap_ratio >= 1.0 - 1e-12
        assert f.trunc_hs_sq <= f.pinv_hs_sq + 1e-12
        oracle = brute_force_pinv_quantities(ds, ds.y, p) if T <= 12 else None
        if oracle is not None:
            assert f.pinv_hs_sq == pytest.approx(oracle["hs_R_sq"], rel=1e-9)
            assert f.trunc_hs_sq == pytest.approx(oracle["hs_Rp_sq"], rel=1e-9)

    @pytest.mark.parametrize("trial", range(10))
    def test_nuclear_norm_bound(self, trial):
        rng = np.random.default_rng(600 + trial)
        T = int(rng.integers(3, 100))
        n = int(rng.integers(1, 9))
        ds = make_dataset(rng, T, n)
        sv = np.sqrt(eigendecompose(gram_matrix(ds)).eigenvalues)
        bound = 4.0 * n * np.linalg.norm(ds.u, axis=1).max() * T * np.log(T)
        assert sv.sum() <= bound

    def test_masked_dataset_keeps_original_times(self, rng):
        # spectrum of a masked system equals the spectrum of the submatrix
        ds = make_dataset(rng, 14, 2, missing=(4, 9))
        filtered, _ = filter_rows(ds)
        spec = eigendecompose(gram_matrix(filtered))
        full = make_dataset(np.random.default_rng(1), 14, 2, u=ds.u, y=ds.y)
        G = gram_matrix(full)
        keep = filtered.time_index - 1
        direct = np.linalg.eigvalsh(G[np.ix_(keep, keep)])[::-1]
        assert np.allclose(spec.eigenvalues, direct, rtol=1e-10, atol=1e-10)
