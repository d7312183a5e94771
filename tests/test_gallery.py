import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from inropt import gallery
from inropt.definite import is_hyperbolic
from inropt.errors import InvalidParams
from inropt.kernels import HermitianOperator


class TestFixedFamilies:
    def test_fiedler3(self):
        np.testing.assert_array_equal(
            gallery.fiedler(3), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_moler3(self):
        np.testing.assert_array_equal(
            gallery.moler(3), [[1, -1, -1], [-1, 2, 0], [-1, 0, 3]])

    def test_cheng_higham_entries(self):
        A, B = gallery.cheng_higham7()
        assert A[0, 0] == -3.0
        assert B[0, 1] == pytest.approx(1.0 / 3.0)
        assert B[0, 0] == -1.0
        assert B[6, 6] == -1.0
        assert B[2, 3] == pytest.approx(1.0 / 7.0)

    def test_grcar_structure(self):
        G = gallery.grcar(6)
        assert np.all(np.diag(G, -1) == -1)
        for k in (0, 1, 2, 3):
            assert np.all(np.diag(G, k) == 1)
        assert G[0, 4] == 0.0
        assert G[2, 0] == 0.0

    def test_tridiag_nonsmooth_shape(self):
        C = gallery.tridiag_nonsmooth(10)
        assert C.shape == (10, 10)
        # unrotated diagonal starts 1, 1, 2.3, ... with the 0.5i shift
        raw = C * np.exp(-1j * np.pi / 6)
        assert raw[0, 0] == pytest.approx(1.0 + 0.5j)
        assert raw[2, 2] == pytest.approx(2.3 + 0.5j)
        assert raw[0, 1] == pytest.approx(1j)

    def test_qep_mass_spring4_values(self):
        Aq, Bq, Cq = gallery.qep_mass_spring4()
        np.testing.assert_array_equal(Aq, np.eye(4))
        assert Bq[0, 0] == 8.0 and Bq[1, 1] == 12.0 and Bq[0, 1] == -4.0
        assert Cq[0, 0] == 2.0 and Cq[1, 1] == 3.0 and Cq[0, 1] == -1.0

    def test_qep_mass_spring_large(self):
        Aq, Bq, Cq = gallery.qep_mass_spring(5, 0.5)
        B = Bq.toarray()
        assert B[0, 0] == pytest.approx(10.0)  # 0.5 * 20
        assert B[2, 2] == pytest.approx(15.0)  # 0.5 * 30
        assert B[0, 1] == pytest.approx(-5.0)
        C = Cq.toarray()
        assert np.all(np.diag(C) == 15.0)
        assert C[0, 1] == -5.0

    def test_qep_linearization_blocks(self):
        Aq, Bq, Cq = gallery.qep_mass_spring4()
        A1, B1 = gallery.qep_linearization(Aq, Bq, Cq)
        np.testing.assert_array_equal(A1[:4, :4], -Cq)
        np.testing.assert_array_equal(A1[4:, 4:], Aq)
        np.testing.assert_array_equal(B1[:4, :4], -Bq)
        np.testing.assert_array_equal(B1[:4, 4:], -Aq)
        np.testing.assert_array_equal(B1[4:, 4:], np.zeros((4, 4)))

    def test_qep_linearization_keeps_complex_coefficients(self):
        rng = np.random.default_rng(0)
        n = 4
        X, Y = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(2))
        Aq = np.eye(n, dtype=complex)
        Bq = X + X.conj().T + 10.0 * np.eye(n)
        Cq = (Y + Y.conj().T) / 4.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A1, B1 = gallery.qep_linearization(Aq, Bq, Cq)
        A1s, B1s = gallery.qep_linearization(sp.csr_matrix(Aq), Bq, Cq)
        assert A1.dtype == B1.dtype == np.complex128
        np.testing.assert_array_equal(A1, A1s.toarray())
        np.testing.assert_array_equal(B1, B1s.toarray())
        _, dense = is_hyperbolic(Aq, Bq, Cq)
        _, sparse = is_hyperbolic(sp.csr_matrix(Aq), Bq, Cq)
        assert dense.f_star == pytest.approx(sparse.f_star, abs=1e-12)
        assert dense.f_star == pytest.approx(-0.676738983008, abs=1e-11)


class TestSymmetryAndDefiniteness:
    def test_hermitian_outputs_pass_invariant(self):
        A, B = gallery.cheng_higham7()
        HermitianOperator(A)
        HermitianOperator(B)
        for M in gallery.hermitian_split(gallery.tridiag_nonsmooth(10)):
            HermitianOperator(M)
        for M in gallery.grcar_pair(40):
            HermitianOperator(M)
        A1, B1 = gallery.qep_linearization(*gallery.qep_mass_spring(20, 0.5))
        HermitianOperator(A1)
        HermitianOperator(B1)

    def test_poisson_positive_definite(self):
        for k in (3, 10, 30):
            P = gallery.poisson2d(k)
            assert P.shape == (k * k, k * k)
            assert np.linalg.eigvalsh(P.toarray())[0] > 0

    def test_synthetic_saddle_structure(self):
        S, J = gallery.synthetic_saddle(30, 10, seed=1)
        A = S[:30, :30]
        C = -S[30:, 30:]
        np.linalg.cholesky(A)  # SPD
        assert np.linalg.eigvalsh((C + C.T) / 2).min() >= -1e-12  # PSD
        np.testing.assert_array_equal(np.diag(J),
                                      [1.0] * 30 + [-1.0] * 10)
        np.testing.assert_allclose(S, S.T, atol=1e-15)


class TestRandomFamilies:
    def test_sparse_random_density_and_range(self):
        R = gallery.sparse_random(200, 0.05, seed=7)
        assert R.shape == (200, 200)
        density = R.nnz / 200 ** 2
        assert 0.03 <= density <= 0.05 + 1e-9
        assert R.data.min() >= 0.0 and R.data.max() <= 1.0
        # general sparse: not symmetric
        assert (R != R.T).nnz > 0

    def test_determinism(self):
        R1 = gallery.sparse_random(100, 0.1, seed=3)
        R2 = gallery.sparse_random(100, 0.1, seed=3)
        assert (R1 != R2).nnz == 0
        S1, _ = gallery.synthetic_saddle(20, 5, seed=9)
        S2, _ = gallery.synthetic_saddle(20, 5, seed=9)
        np.testing.assert_array_equal(S1, S2)
        R3 = gallery.sparse_random(100, 0.1, seed=4)
        assert (R1 != R3).nnz > 0


class TestGenerateDispatch:
    def test_single_matrix(self):
        out = gallery.generate("fiedler", n=3)
        np.testing.assert_array_equal(out["A"], gallery.fiedler(3))

    def test_pair(self):
        out = gallery.generate("cheng_higham7")
        assert set(out) == {"A", "B"}

    def test_tridiag_returns_split(self):
        out = gallery.generate("tridiag_nonsmooth", n=10)
        assert set(out) == {"C", "A", "B"}
        np.testing.assert_allclose(out["A"] + 1j * out["B"], out["C"],
                                   atol=1e-15)

    def test_invalid_name(self):
        with pytest.raises(InvalidParams):
            gallery.generate("unknown_family")

    def test_missing_param(self):
        with pytest.raises(InvalidParams):
            gallery.generate("fiedler")

    def test_invalid_values(self):
        with pytest.raises(InvalidParams):
            gallery.fiedler(0)
        with pytest.raises(InvalidParams):
            gallery.sparse_random(10, 1.5)
        with pytest.raises(InvalidParams):
            gallery.qep_mass_spring(10, -1.0)
        with pytest.raises(InvalidParams):
            gallery.synthetic_saddle(5, 9)
