from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from inropt import gallery, kernels
from inropt.param import ParamHermitian
from inropt.errors import (ConvergenceFailure, NonHermitianInput,
                           SingularPencil)
from inropt.kernels import (EIG_RESIDUAL_TOL, Basis, HermitianOperator,
                            hermitian_eig, is_pd, largest_eigpairs,
                            orthonormal_extend, pencil_unit_eigs,
                            spectral_norm_ub)

from oracles import charpoly_eigs, pencil_unit_angles_qz, random_hermitian


def permuted_qep_matrix(beta, omega, seed):
    """cos(w) A1 + sin(w) B1 of the n=1000 mass-spring QEP linearization
    under a seeded symmetric permutation, which destroys its band."""
    A1, B1 = gallery.qep_linearization(*gallery.qep_mass_spring(500, beta))
    M = (np.cos(omega) * A1 + np.sin(omega) * B1).tocsr()
    p = np.random.default_rng(seed).permutation(M.shape[0])
    return M[p][:, p]


def repeated_top_matrix(copies, m, complex_copy=False):
    """Permuted blockdiag(X, ..., X) of ``copies`` copies of a real
    tridiagonal X of order m, or its unitary diagonal similarity D M D^*
    with complex entries: the top eigenvalue has multiplicity ``copies``.
    At 3 copies of m = 500 the rest of the spectrum lies 0.45 below."""
    rng = np.random.default_rng(0)
    off = rng.standard_normal(m - 1)
    X = sp.diags([off, rng.standard_normal(m), off], [-1, 0, 1])
    M = sp.block_diag([X] * copies).tocsr()
    p = rng.permutation(copies * m)
    M = M[p][:, p]
    if complex_copy:
        D = sp.diags(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, copies * m)))
        M = (D @ M @ D.conj()).tocsr()
    return M


def eigsh_recording_k(monkeypatch):
    """Record the k of every eigsh call for eigenpairs the kernels make; the
    shift refinement's values-only k = 1 cycle is not recorded."""
    eigsh, ks = spla.eigsh, []

    def recording(A, k, **kw):
        if kw.get("return_eigenvectors", True):
            ks.append(k)
        return eigsh(A, k=k, **kw)

    monkeypatch.setattr(spla, "eigsh", recording)
    return ks


def shift_search_recording(monkeypatch, M):
    """Record, in call order, each sparse PD test of the kernels as
    ``("pd", sigma, passed)`` for ``sigma*I - M``, and each values-only
    Lanczos cycle of the shift search as ``("cycle",)``."""
    ldl, eigsh, events = kernels._ldl, spla.eigsh, []
    diag = M.diagonal().real

    def pd_test(A):
        lu = ldl(A)
        events.append(("pd", float(A.diagonal().real[0] + diag[0]),
                       lu is not None))
        return lu

    def cycle(A, k, **kw):
        if not kw.get("return_eigenvectors", True):
            events.append(("cycle",))
        return eigsh(A, k=k, **kw)

    monkeypatch.setattr(kernels, "_ldl", pd_test)
    monkeypatch.setattr(spla, "eigsh", cycle)
    return events


def lam_max_H(C, theta):
    H = (C * np.exp(-1j * theta) + C.conj().T * np.exp(1j * theta)) / 2.0
    return np.linalg.eigvalsh(H)


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(dec.values, [1, 1, 1], atol=1e-14)
        np.testing.assert_allclose(dec.vectors.conj().T @ dec.vectors,
                                   np.eye(3), atol=1e-12)

    def test_diagonal(self):
        dec = hermitian_eig(np.diag(np.arange(-3.0, 4.0)))
        np.testing.assert_allclose(dec.values, [3, 2, 1, 0, -1, -2, -3],
                                   atol=1e-14)

    def test_cheng_higham_b_vs_charpoly(self):
        # independent oracle: bisection on det(B - lam*I) over interlacing
        # brackets of the leading principal minors
        _, B = gallery.cheng_higham7()
        expected = charpoly_eigs(B)
        dec = hermitian_eig(B)
        np.testing.assert_allclose(dec.values, expected, atol=1e-8)

    def test_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            M = random_hermitian(8, rng)
            dec = hermitian_eig(M)
            norm = np.linalg.norm(M, 2)
            res = M @ dec.vectors - dec.vectors * dec.values[None, :]
            assert np.linalg.norm(res, axis=0).max() <= 1e-10 * max(norm, 1)
            gram = dec.vectors.conj().T @ dec.vectors
            assert np.abs(gram - np.eye(8)).max() <= 1e-10
            assert abs(dec.values.sum() - np.trace(M).real) \
                <= 1e-10 * norm * 8
            assert np.all(np.diff(dec.values) <= 1e-14)

    def test_non_hermitian_rejected(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NonHermitianInput):
            hermitian_eig(M)
        one_entry = sp.csr_matrix(([2.0], ([0], [1])), shape=(3, 3))
        with pytest.raises(NonHermitianInput):
            hermitian_eig(one_entry)
        zero = hermitian_eig(sp.csr_matrix((3, 3)))
        assert np.array_equal(zero.values, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_rejected(self, bad, sparse, monkeypatch):
        # A NaN deviation compares False against the tolerance; the check
        # must still reject the matrix, before any eigensolve runs.
        M = np.eye(4)
        M[1, 1] = bad
        if sparse:
            M = sp.csr_matrix(M)

        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolver reached")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        monkeypatch.setattr(sla, "eigh", no_solve)
        with pytest.raises(NonHermitianInput, match="non-finite"):
            HermitianOperator(M)
        with pytest.raises(NonHermitianInput, match="non-finite"):
            hermitian_eig(M)
        with pytest.raises(NonHermitianInput, match="non-finite"):
            ParamHermitian.trig(M, np.eye(4))


class TestLargestEigpairs:
    def test_cluster_included(self):
        vals, vecs = largest_eigpairs(np.diag([2.0, 2.0 - 1e-9, 0.0]),
                                      eps_cluster=1e-6, max_pairs=3)
        assert len(vals) == 2
        assert vecs.shape == (3, 2)

    def test_separated_top(self):
        vals, _ = largest_eigpairs(np.diag([2.0, 1.0, 0.0]),
                                   eps_cluster=1e-6, max_pairs=3)
        assert len(vals) == 1
        assert vals[0] == pytest.approx(2.0, abs=1e-12)

    def test_max_pairs_cap(self):
        vals, _ = largest_eigpairs(np.eye(5), eps_cluster=1.0, max_pairs=2)
        assert len(vals) == 2

    def test_poisson_sparse_vs_dense(self):
        # 2500 x 2500 five-point Laplacian: iterative path against the
        # dense decomposition of the same matrix
        P = gallery.poisson2d(50)
        vals, vecs = largest_eigpairs(P, eps_cluster=1e-6, max_pairs=3)
        dense_top = np.linalg.eigvalsh(P.toarray())[-1]
        assert vals[0] == pytest.approx(dense_top, abs=1e-8)
        r = P @ vecs[:, 0] - vals[0] * vecs[:, 0]
        assert np.linalg.norm(r) <= 1e-9 * abs(vals[0])

    def test_permuted_qep_cluster_vs_dense(self):
        for beta, omega in ((0.512, 1.0), (0.524, 1.9)):
            M = permuted_qep_matrix(beta, omega, seed=2)
            dense = np.linalg.eigvalsh(M.toarray())[::-1]
            eps = 1e-4
            vals, vecs = largest_eigpairs(M, eps_cluster=eps, max_pairs=10)
            expected = min(10, int(np.sum(dense[0] - dense <= eps)))
            assert len(vals) == expected > 1
            np.testing.assert_allclose(vals, dense[:expected], rtol=0,
                                       atol=1e-12)
            R = M @ vecs - vecs * vals[np.newaxis, :]
            assert np.linalg.norm(R, axis=0).max() <= 1e-10

    def test_double_top_eigenvalue_of_complex_block_copy(self):
        # blockdiag(X, X) with X complex Hermitian: the top eigenvalue is
        # double, and a single Krylov sequence sees one copy only in exact
        # arithmetic; both must come back in the cluster
        rng = np.random.default_rng(3)
        m = 600
        off = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
        X = sp.diags([off.conj(), rng.standard_normal(m), off], [-1, 0, 1])
        M = sp.block_diag([X, X]).tocsr()
        p = rng.permutation(2 * m)
        M = M[p][:, p]
        dense = np.linalg.eigvalsh(M.toarray())[::-1]
        assert dense[0] - dense[1] <= 1e-12 < dense[1] - dense[2]
        vals, vecs = largest_eigpairs(M, eps_cluster=1e-8, max_pairs=3)
        assert len(vals) == 2
        np.testing.assert_allclose(vals, dense[:2], rtol=0, atol=1e-12)
        R = M @ vecs - vecs * vals[np.newaxis, :]
        assert np.linalg.norm(R, axis=0).max() <= 1e-10
        # two independent directions of the two-dimensional eigenspace,
        # returned as an orthonormal basis
        assert np.linalg.svd(vecs, compute_uv=False)[-1] >= 0.5
        assert np.abs(vecs.conj().T @ vecs - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("offset", [-2.0, 0.0, 0.015, np.inf],
                             ids=["far-below", "equal", "above", "infinite"])
    def test_bracket_hint_is_not_trusted(self, offset, monkeypatch):
        # 1024 x 1024 Laplacian, diagonal 4, ||P||_1 = 8, lambda_max 7.98:
        # every hint lies above the diagonal, so the search starts there,
        # or at ||P||_1 for a hint above it
        P = gallery.poisson2d(32)
        norm1 = spectral_norm_ub(P)
        start = kernels.REFINED_REL_GAP * norm1
        top, _ = largest_eigpairs(P, eps_cluster=1e-6, max_pairs=3)
        lower = min(top[0] + offset, norm1)
        events = shift_search_recording(monkeypatch, P)
        vals, _ = largest_eigpairs(P, eps_cluster=1e-6, max_pairs=3,
                                   lower=top[0] + offset)
        assert vals[0] == pytest.approx(top[0],
                                        abs=EIG_RESIDUAL_TOL * norm1)
        assert events[0][:2] == ("pd", pytest.approx(lower + start))
        if offset < 0.0:
            # the failed tests gallop the gap up by SHIFT_GALLOP, and the
            # distant shift that passes takes a cycle
            fails = [e[1] for e in events[:events.index(("cycle",))]
                     if not e[2]]
            np.testing.assert_allclose(
                np.subtract(fails, lower) / start,
                kernels.SHIFT_GALLOP ** np.arange(len(fails)))
            assert len(fails) > 1
        else:
            # one PD test gives sigma, one certifies the result; a high
            # hint is a valid shift too, only a slower one
            assert [e[0] for e in events] == ["pd", "pd"]
            assert events[0][2] and events[1][2]
        cert = (vals[0] + EIG_RESIDUAL_TOL * norm1) * sp.identity(P.shape[0])
        assert is_pd((cert - P).tocsr())

    def test_bracket_closer_than_the_refined_gap_stays(self, monkeypatch):
        # a hint within the first gap below lambda_max passes its one PD
        # test, so no cycle runs
        P = gallery.poisson2d(32)
        norm1 = spectral_norm_ub(P)
        start = kernels.REFINED_REL_GAP * norm1
        top, _ = largest_eigpairs(P, eps_cluster=1e-6, max_pairs=3)
        events = shift_search_recording(monkeypatch, P)
        vals, _ = largest_eigpairs(P, eps_cluster=1e-6, max_pairs=3,
                                   lower=top[0] - 0.5 * start)
        assert events == [
            ("pd", pytest.approx(top[0] + 0.5 * start), True),
            ("pd", pytest.approx(vals[0] + EIG_RESIDUAL_TOL * norm1), True)]
        assert vals[0] == pytest.approx(top[0],
                                        abs=EIG_RESIDUAL_TOL * norm1)

    @pytest.mark.parametrize("matrix", ["poisson", "qep-band"])
    def test_failed_refined_shift_gallops_on(self, matrix, monkeypatch):
        # a cycle whose estimate lies 5 first gaps below lambda_max: the
        # shift one gap above it fails its PD test, and the gallop goes on
        # to the shift ten gaps above it, which passes without a new cycle
        M = (gallery.poisson2d(32) if matrix == "poisson"
             else permuted_qep_matrix(0.52, 1.0, seed=2))
        norm1 = spectral_norm_ub(M)
        start = kernels.REFINED_REL_GAP * norm1
        top, _ = largest_eigpairs(M, eps_cluster=1e-6, max_pairs=10)
        events = shift_search_recording(monkeypatch, M)
        recorded = spla.eigsh

        def low_estimate(A, k, **kw):
            out = recorded(A, k=k, **kw)
            if kw.get("return_eigenvectors", True):
                return out
            sigma = [e[1] for e in events if e[0] == "pd" and e[2]][-1]
            return np.array([1.0 / (sigma - (top[0] - 5.0 * start))])

        monkeypatch.setattr(spla, "eigsh", low_estimate)
        vals, vecs = largest_eigpairs(M, eps_cluster=1e-6, max_pairs=10)
        after = events[events.index(("cycle",)) + 1:]
        assert after == [
            ("pd", pytest.approx(top[0] - 4.0 * start), False),
            ("pd", pytest.approx(top[0] + 5.0 * start), True),
            ("pd", pytest.approx(vals[0] + EIG_RESIDUAL_TOL * norm1), True)]
        np.testing.assert_allclose(vals, top, rtol=0,
                                   atol=EIG_RESIDUAL_TOL * norm1)
        cert = (vals[0] + EIG_RESIDUAL_TOL * norm1) * sp.identity(M.shape[0])
        assert is_pd((cert - M).tocsr())
        R = M @ vecs - vecs * vals[np.newaxis, :]
        assert np.linalg.norm(R, axis=0).max() <= EIG_RESIDUAL_TOL * norm1

    @pytest.mark.parametrize("partial", [True, False],
                             ids=["partial-value", "no-value"])
    def test_refinement_cycle_cut_short(self, partial, monkeypatch):
        # a cycle that stops short keeps the galloped shift, whether or not
        # it hands back a partial Ritz value: the next PD test is the
        # certificate of the result
        M = permuted_qep_matrix(0.52, 1.0, seed=2)
        norm1 = spectral_norm_ub(M)
        top, _ = largest_eigpairs(M, eps_cluster=1e-6, max_pairs=10)
        eigsh = spla.eigsh

        def cut_short(A, k, **kw):
            if kw.get("return_eigenvectors", True):
                return eigsh(A, k=k, **kw)
            values = eigsh(A, k=k, **kw) if partial else np.zeros(0)
            raise spla.ArpackNoConvergence("cut short", values, None)

        monkeypatch.setattr(spla, "eigsh", cut_short)
        events = shift_search_recording(monkeypatch, M)
        vals, _ = largest_eigpairs(M, eps_cluster=1e-6, max_pairs=10)
        cycle = events.index(("cycle",))
        assert events[cycle - 1][2]
        assert events[cycle + 1:] == [
            ("pd", pytest.approx(vals[0] + EIG_RESIDUAL_TOL * norm1), True)]
        np.testing.assert_allclose(vals, top, rtol=0, atol=1e-12)

    def test_no_pd_shift_raises(self, monkeypatch):
        # a PD test that never passes gallops past ||M||_1 and stops there
        P = gallery.poisson2d(32)
        norm1 = spectral_norm_ub(P)
        shifts, diag = [], P.diagonal()[0]
        monkeypatch.setattr(
            kernels, "_ldl",
            lambda A: shifts.append(A.diagonal()[0] + diag) or None)
        with pytest.raises(ConvergenceFailure,
                           match="no positive definite shift"):
            largest_eigpairs(P, eps_cluster=1e-6, max_pairs=3)
        assert shifts[-2] <= norm1 < shifts[-1]

    def test_refined_shift_cuts_inverse_applications(self, monkeypatch):
        # at omega = 1.0 the top eigenvalues form a band 2e-6 to 1e-5 apart;
        # from a shift bisected to 1e-3 * ||M||_1 Lanczos took 630
        # applications of the inverse, the refinement cycle and the solve
        # from the refined shift take 60 (both counts repeat exactly)
        M = permuted_qep_matrix(0.52, 1.0, seed=2)
        eigsh, applications = spla.eigsh, []

        def counting(A, *args, **kw):
            def matvec(x):
                applications.append(1)
                return A @ x
            op = spla.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            return eigsh(op, *args, **kw)

        monkeypatch.setattr(spla, "eigsh", counting)
        largest_eigpairs(M, eps_cluster=1e-6, max_pairs=10)
        assert len(applications) <= 100

    @pytest.mark.parametrize("complex_copy", [False, True],
                             ids=["real", "complex"])
    def test_triple_top_grows_k_to_the_counted_cluster(self, complex_copy,
                                                        monkeypatch):
        # Lanczos asks for 2 pairs; the inertia count finds 3 eigenvalues
        # in the cluster, so k grows until all 3 are found
        M = repeated_top_matrix(3, 500, complex_copy)
        dense = np.linalg.eigvalsh(M.toarray())[::-1]
        assert dense[0] - dense[2] <= 1e-13 and dense[2] - dense[3] > 0.1
        ks = eigsh_recording_k(monkeypatch)
        vals, vecs = largest_eigpairs(M, eps_cluster=1e-8, max_pairs=10)
        assert ks[0] == 2 and len(ks) > 1
        assert all(a < b for a, b in zip(ks, ks[1:]))
        assert len(vals) == 3
        np.testing.assert_allclose(vals, dense[:3], rtol=0, atol=1e-12)
        R = M @ vecs - vecs * vals[np.newaxis, :]
        assert np.linalg.norm(R, axis=0).max() <= 1e-10
        assert np.abs(vecs.conj().T @ vecs - np.eye(3)).max() <= 1e-12

    def test_missed_cluster_member_fails_certificate(self, monkeypatch):
        # Lanczos that skips the second-largest pair still returns true
        # eigenpairs and the true top; only the inertia count sees that
        # the cluster is incomplete
        M = repeated_top_matrix(3, 500)
        eigsh = spla.eigsh
        ks = []

        def eigsh_without_second(A, k, **kw):
            # ascending: the top pair is last
            keep = np.r_[np.arange(k - 1), k]
            if not kw.get("return_eigenvectors", True):
                return eigsh(A, k=k + 1, **kw)[keep]  # the shift refinement
            ks.append(k)
            w, V = eigsh(A, k=k + 1, **kw)
            return w[keep], V[:, keep]

        monkeypatch.setattr(spla, "eigsh", eigsh_without_second)
        with pytest.raises(ConvergenceFailure, match="cluster certificate"):
            largest_eigpairs(M, eps_cluster=1e-8, max_pairs=10)
        # growth is strictly monotone up to the cap max_pairs + 1
        assert ks[-1] == 11
        assert all(a < b for a, b in zip(ks, ks[1:]))

    @pytest.mark.parametrize("max_pairs, expected_ks", [(2, [2, 3]),
                                                        (3, [2, 4])])
    def test_cluster_larger_than_max_pairs_returns_the_cap(
            self, max_pairs, expected_ks, monkeypatch):
        # four copies of the top eigenvalue, more than max_pairs: k grows
        # to kmax = max_pairs + 1 and no further.  At max_pairs = 2 the
        # count of 4 still exceeds the 3 Ritz values found there, but 2
        # members of the cluster are in hand, so no failure is raised
        M = repeated_top_matrix(4, 400)
        dense = np.linalg.eigvalsh(M.toarray())[::-1]
        assert dense[0] - dense[3] <= 1e-13 and dense[3] - dense[4] > 1e-8
        norm1 = spectral_norm_ub(M)
        ks = eigsh_recording_k(monkeypatch)
        vals, vecs = largest_eigpairs(M, eps_cluster=1e-8,
                                      max_pairs=max_pairs)
        assert ks == expected_ks
        assert len(vals) == max_pairs
        np.testing.assert_allclose(vals, dense[:max_pairs], rtol=0,
                                   atol=1e-12)
        R = M @ vecs - vecs * vals[np.newaxis, :]
        assert np.linalg.norm(R, axis=0).max() <= EIG_RESIDUAL_TOL * norm1
        cert = (vals[0] + EIG_RESIDUAL_TOL * norm1) * sp.identity(M.shape[0])
        assert is_pd((cert - M).tocsr())

    def test_pivoted_inertia_count_fails_certificate(self, monkeypatch):
        # a count from a pivoted factorization is no inertia count; it must
        # fail, not fall back to the uncertified cluster
        M = permuted_qep_matrix(0.524, 1.9, seed=2)
        top = np.linalg.eigvalsh(M.toarray())[-1]
        diag = M.diagonal()
        splu = spla.splu

        def splu_pivoting_below_top(A, **kw):
            lu = splu(A, **kw)
            if A.diagonal()[0] + diag[0] < top:
                return SimpleNamespace(perm_r=np.roll(lu.perm_r, 1),
                                       perm_c=lu.perm_c)
            return lu

        monkeypatch.setattr(spla, "splu", splu_pivoting_below_top)
        with pytest.raises(ConvergenceFailure, match="cluster certificate"):
            largest_eigpairs(M, eps_cluster=1e-6, max_pairs=10)

    def test_infinite_cluster_returns_max_pairs(self, monkeypatch):
        # verify_interpolation's call: the p largest pairs, in one Lanczos
        # solve and without an inertia count
        M = permuted_qep_matrix(0.524, 1.9, seed=2)
        dense = np.linalg.eigvalsh(M.toarray())[::-1]
        ks = eigsh_recording_k(monkeypatch)
        counts = []
        inertia = kernels._ldl_inertia
        monkeypatch.setattr(kernels, "_ldl_inertia",
                            lambda A: counts.append(1) or inertia(A))
        ldl_calls = []
        ldl = kernels._ldl
        monkeypatch.setattr(kernels, "_ldl",
                            lambda A: ldl_calls.append(1) or ldl(A))
        for p in (1, 5):
            counts.clear()
            ldl_calls.clear()
            vals, vecs = largest_eigpairs(M, np.inf, p)
            assert len(vals) == p
            np.testing.assert_allclose(vals, dense[:p], rtol=0, atol=1e-12)
            R = M @ vecs - vecs * vals[np.newaxis, :]
            assert np.linalg.norm(R, axis=0).max() <= 1e-10
            # every factorization is a PD test: no count was taken
            assert len(counts) == len(ldl_calls)
        assert ks == [2, 6]

    def test_lanczos_path_is_deterministic(self):
        # 1024 x 1024 sparse Laplacian takes the Lanczos path; repeated
        # calls must return the same bits
        P = gallery.poisson2d(32)
        v1, V1 = largest_eigpairs(P, eps_cluster=1e-6, max_pairs=3)
        v2, V2 = largest_eigpairs(P, eps_cluster=1e-6, max_pairs=3)
        assert np.array_equal(v1, v2)
        assert np.array_equal(V1, V2)


def triple_top_dense(n, complex_):
    """Q diag(d) Q^* with a random unitary (orthogonal) Q: the top
    eigenvalue 5 is triple, and the rest of d falls from 4.5 to -5."""
    rng = np.random.default_rng(n)
    Z = rng.standard_normal((n, n))
    if complex_:
        Z = Z + 1j * rng.standard_normal((n, n))
    Q = np.linalg.qr(Z)[0]
    d = np.concatenate([[5.0, 5.0, 5.0], np.linspace(4.5, -5.0, n - 3)])
    M = (Q * d[np.newaxis, :]) @ Q.conj().T
    return (M + M.conj().T) / 2.0


class TestDenseSubsetPath:
    """From ``SUBSET_THRESHOLD`` on, dense storage takes the top pairs of
    LAPACK ?heevr/?syevr; they must match numpy's full decomposition."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [kernels.SUBSET_THRESHOLD, 640])
    def test_matches_full_eigh(self, n, complex_, monkeypatch):
        M = triple_top_dense(n, complex_)
        w, V = np.linalg.eigh(M)
        w, V = w[::-1], V[:, ::-1]
        ks = []
        eigh = sla.eigh

        def recording(A, *args, subset_by_index=None, **kwargs):
            lo, hi = subset_by_index or (0, n - 1)
            ks.append(hi - lo + 1)
            return eigh(A, *args, subset_by_index=subset_by_index, **kwargs)

        monkeypatch.setattr(sla, "eigh", recording)
        for eps in (1e-6, np.inf):
            for max_pairs in (1, 10):
                vals, vecs = largest_eigpairs(M, eps, max_pairs)
                size = max_pairs if np.isinf(eps) else min(3, max_pairs)
                assert len(vals) == size and vecs.shape == (n, size)
                assert vecs.dtype == M.dtype
                np.testing.assert_allclose(vals, w[:size], rtol=0,
                                           atol=1e-12)
                assert np.abs(vecs.conj().T @ vecs - np.eye(size)).max() \
                    <= 1e-12
                R = M @ vecs - vecs * vals[np.newaxis, :]
                assert np.linalg.norm(R, axis=0).max() <= 1e-11
                # A cut through the triple leaves the vector free inside
                # it; otherwise the spans agree.
                m = 3 if size == 1 else size
                P = V[:, :m] @ V[:, :m].conj().T
                assert np.abs(P @ vecs - vecs).max() <= 1e-10
                if size == m:
                    assert np.abs(vecs @ vecs.conj().T - P).max() <= 1e-10
        assert ks == [1, 10, 1, 10]  # top pairs only, never all n

    def test_short_subset_takes_the_full_decomposition(self):
        # At w = pi/2 the saddle pair (S, J) evaluates to J plus 6e-17 S:
        # the top eigenvalue 1 has multiplicity 250, and the index range of
        # the top 10 cuts through that tie, where LAPACK's ?syevr returns
        # fewer than 10 pairs.
        S, J = gallery.synthetic_saddle(250, 70, seed=1)
        M = ParamHermitian.trig(S, J).evaluate(np.pi / 2.0)
        assert M.dim == 320 >= kernels.SUBSET_THRESHOLD
        vals, vecs = largest_eigpairs(M, eps_cluster=1e-6, max_pairs=10)
        assert len(vals) == 10
        np.testing.assert_allclose(vals, 1.0, rtol=0, atol=1e-12)
        assert np.abs(vecs.T @ vecs - np.eye(10)).max() <= 1e-12

    @pytest.mark.parametrize("complex_", [False, True])
    def test_full_and_values_only_calls_match_numpy(self, complex_):
        n = kernels.SUBSET_THRESHOLD
        M = triple_top_dense(n, complex_)
        w = np.linalg.eigvalsh(M)[::-1]
        dec = hermitian_eig(M)
        np.testing.assert_allclose(dec.values, w, rtol=0, atol=1e-12)
        R = M @ dec.vectors - dec.vectors * dec.values[np.newaxis, :]
        assert np.linalg.norm(R, axis=0).max() <= 1e-11
        np.testing.assert_allclose(kernels.hermitian_eigvals(M), w, rtol=0,
                                   atol=1e-12)
        assert spectral_norm_ub(M) == pytest.approx(5.0, rel=1e-14)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [kernels.SUBSET_THRESHOLD - 1,
                                   kernels.SUBSET_THRESHOLD])
    def test_value_range_matches_numpy(self, n, complex_):
        # The pairs above a value, and at least the top one: the value
        # range of ?heevr from the threshold on, numpy's slice below it.
        M = triple_top_dense(n, complex_)
        w = np.linalg.eigvalsh(M)[::-1]
        for above, size in ((4.9, 3), (0.0, np.count_nonzero(w > 0.0)),
                            (5.5, 1)):
            dec = hermitian_eig(M, above=above)
            assert dec.vectors.shape == (n, size)
            np.testing.assert_allclose(dec.values, w[:size], rtol=0,
                                       atol=1e-12)
            V = dec.vectors
            assert np.abs(V.conj().T @ V - np.eye(size)).max() <= 1e-12
            R = M @ V - V * dec.values[np.newaxis, :]
            assert np.linalg.norm(R, axis=0).max() <= 1e-11

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [kernels.SUBSET_THRESHOLD - 1,
                                   kernels.SUBSET_THRESHOLD])
    def test_stacked_norm_matches_the_svd(self, n, complex_):
        rng = np.random.default_rng(n)
        X, Y = (random_hermitian(n, rng, real=not complex_) for _ in "XY")
        svd = np.linalg.norm(np.hstack([X, Y]), 2)
        assert kernels.stacked_norm(X, Y) == pytest.approx(svd, rel=1e-12)
        # a C-ordered and a Fortran-ordered block give the same Gram matrix
        assert kernels.stacked_norm(X, np.asfortranarray(2.0 * Y)) \
            == pytest.approx(np.linalg.norm(np.hstack([X, 2.0 * Y]), 2),
                             rel=1e-12)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [kernels.SUBSET_THRESHOLD - 1,
                                   kernels.SUBSET_THRESHOLD])
    def test_dense_pd_test_agrees_with_the_spectrum(self, n, complex_):
        M = triple_top_dense(n, complex_)  # spectrum [-5, 5]
        for shift, pd in ((5.0 + 1e-9, True), (5.0 - 1e-9, False)):
            S = shift * np.eye(n) - M
            before = S.copy()
            assert is_pd(S) is pd
            np.testing.assert_array_equal(S, before)
            assert is_pd(S, overwrite=True) is pd

    @pytest.mark.parametrize("n", [kernels.SUBSET_THRESHOLD - 1,
                                   kernels.SUBSET_THRESHOLD])
    def test_lapack_failure_is_a_convergence_failure(self, n, monkeypatch):
        # numpy's LinAlgError is a ValueError, an input error to the CLI;
        # a failed dense eigensolve must read as ConvergenceFailure on
        # either side of the threshold.
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("forced LAPACK failure")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, failing)
        monkeypatch.setattr(sla, "eigh", failing)
        M = triple_top_dense(n, complex_=False)
        calls = [lambda: hermitian_eig(M),
                 lambda: kernels.hermitian_eigvals(M),
                 lambda: largest_eigpairs(M, 1e-6, 10),
                 lambda: spectral_norm_ub(M)]
        for call in calls:
            with pytest.raises(ConvergenceFailure, match="forced"):
                call()

    @pytest.mark.parametrize("shapes", [((300, 7), (7, 300)),
                                        ((7, 300), (300, 5)),
                                        ((300, 300), (300,)),
                                        ((300,), (300, 4)),
                                        ((300,), (300,))])
    def test_matmul_matches_numpy(self, shapes):
        rng = np.random.default_rng(5)
        a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
                for s in shapes)
        for x, y in ((a, b), (a.real, b), (np.asfortranarray(a), b.real),
                     (a[::-1], b)):
            out = kernels.matmul(x, y)
            assert out.shape == (x @ y).shape
            np.testing.assert_allclose(out, x @ y, rtol=1e-13, atol=1e-12)


class TestIsPd:
    def test_sparse_pd(self):
        assert is_pd(gallery.poisson2d(32))

    def test_sparse_indefinite(self):
        P = gallery.poisson2d(32)
        assert not is_pd(P - 4.0 * sp.identity(P.shape[0]))

    def test_sparse_singular(self):
        # Laplacian of a path: positive semidefinite, null vector of ones
        n = 1000
        L = sp.diags([-np.ones(n - 1), np.r_[1.0, np.full(n - 2, 2.0), 1.0],
                      -np.ones(n - 1)], [-1, 0, 1]).tocsr()
        p = np.random.default_rng(0).permutation(n)
        L = L[p][:, p]
        assert not is_pd(L)
        assert is_pd(L + 1e-3 * sp.identity(n))

    def test_zero_diagonal_needs_pivoting(self):
        # a permuted [[0, 1], [1, 0]] block: no diagonal pivot exists there
        n = 1000
        M = sp.lil_matrix(sp.identity(n))
        M[0, 0] = M[1, 1] = 0.0
        M[0, 1] = M[1, 0] = 1.0
        p = np.random.default_rng(1).permutation(n)
        M = M.tocsr()[p][:, p]
        assert not is_pd(M)
        assert not is_pd(M.toarray())

    def test_agrees_with_dense_cholesky_on_permuted_qep(self):
        n = 1000
        for beta, omega in ((0.500, 0.3), (0.512, 1.0), (0.528, 4.0)):
            M = permuted_qep_matrix(beta, omega, seed=5)
            top = np.linalg.eigvalsh(M.toarray())[-1]
            for shift in (-1e-6, 1e-6, 0.1):
                S = (top + shift) * sp.identity(n) - M
                assert is_pd(S) == is_pd(S.toarray()) == (shift > 0)


class TestPencil:
    # 1x1 oracle: the pencil eigenvalues solve lam^2 - 2*alpha*lam + 1 = 0
    def test_scalar_alpha_zero(self):
        ang = pencil_unit_eigs(np.array([[1.0]]), 0.0)
        np.testing.assert_allclose(sorted(ang), [np.pi / 2, 3 * np.pi / 2],
                                   atol=1e-8)

    def test_scalar_alpha_one(self):
        ang = np.asarray(pencil_unit_eigs(np.array([[1.0]]), 1.0))
        assert len(ang) == 2  # double root at lam = 1
        circ = np.minimum(ang, 2.0 * np.pi - ang)
        np.testing.assert_allclose(circ, [0.0, 0.0], atol=1e-6)

    def test_scalar_alpha_two(self):
        ang = pencil_unit_eigs(np.array([[1.0]]), 2.0)
        assert len(ang) == 0  # roots 2 +- sqrt(3) are off the circle

    @staticmethod
    def check_sound_and_complete(C, theta0, ang):
        norm_c = np.linalg.norm(C, 2)
        alpha = lam_max_H(C, theta0)[-1]
        # soundness: alpha is an eigenvalue of H(theta') at each angle
        for t in ang:
            gap = np.min(np.abs(lam_max_H(C, t) - alpha))
            assert gap <= 1e-6 * max(1.0, norm_c)
        # completeness: theta0 itself shows up
        diff = np.abs(np.asarray(ang) - theta0)
        diff = np.minimum(diff, 2.0 * np.pi - diff)
        assert diff.min() <= 1e-6

    def test_soundness_and_completeness_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            C = (rng.standard_normal((n, n))
                 + 1j * rng.standard_normal((n, n)))
            theta0 = rng.uniform(0.0, 2.0 * np.pi)
            alpha = lam_max_H(C, theta0)[-1]
            ang = pencil_unit_eigs(C, alpha)
            assert np.all(np.diff(ang) >= 0.0)  # level_intervals relies on it
            self.check_sound_and_complete(C, theta0, ang)
            # same angles as QZ on the pencil itself
            ref = pencil_unit_angles_qz(C, alpha)
            assert len(ang) == len(ref)
            np.testing.assert_allclose(ang, ref, atol=1e-8)

    def test_well_conditioned_c_skips_qz(self, monkeypatch):
        def no_qz(*args, **kwargs):
            raise AssertionError("QZ called for a well-conditioned C")

        monkeypatch.setattr(sla, "eig", no_qz)
        rng = np.random.default_rng(4)
        C = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.check_sound_and_complete(C, 1.0, pencil_unit_eigs(
            C, lam_max_H(C, 1.0)[-1]))

    def test_singular_c_falls_back_to_qz(self, monkeypatch):
        calls = []
        qz = sla.eig

        def counting_qz(*args, **kwargs):
            calls.append(1)
            return qz(*args, **kwargs)

        monkeypatch.setattr(sla, "eig", counting_qz)
        rng = np.random.default_rng(13)
        for n in (3, 6, 9):
            C = (rng.standard_normal((n, n))
                 + 1j * rng.standard_normal((n, n)))
            C[:, 1] = 0.0  # C^* is exactly singular
            theta0 = rng.uniform(0.0, 2.0 * np.pi)
            count = len(calls)
            ang = pencil_unit_eigs(C, lam_max_H(C, theta0)[-1])
            assert len(calls) > count
            self.check_sound_and_complete(C, theta0, ang)

    def test_singular_pencil_retries_nudged(self, monkeypatch):
        # C = 0 makes R - lambda*S singular for every lambda: QZ returns
        # only infinite and undefined values, and the retry on C nudged off
        # the singularity finds the crossings
        calls = []
        qz = sla.eig

        def recording_qz(*args, **kwargs):
            calls.append(qz(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(sla, "eig", recording_qz)
        ang = pencil_unit_eigs(np.zeros((2, 2)), 0.0)
        assert len(calls) == 2
        assert not np.isfinite(calls[0]).any()
        assert len(ang) == 4
        assert np.all((0.0 <= ang) & (ang < 2.0 * np.pi))

    def test_singular_pencil_after_the_retry_raises(self, monkeypatch):
        monkeypatch.setattr(sla, "eig", lambda *args, **kwargs:
                            np.array([np.inf, np.nan, np.inf, np.nan]))
        with pytest.raises(SingularPencil):
            pencil_unit_eigs(np.zeros((2, 2)), 0.0)

    @staticmethod
    def singular_c():
        rng = np.random.default_rng(13)
        C = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        C[:, 1] = 0.0  # C^* is exactly singular: the QZ path
        return C, lam_max_H(C, 1.0)[-1]

    def test_qz_failure_retries_nudged(self, monkeypatch):
        # a QZ that fails on C takes the same retry as a pencil without a
        # finite eigenvalue; the nudge moves no crossing visibly
        C, alpha = self.singular_c()
        ref = pencil_unit_eigs(C, alpha)
        qz, calls = sla.eig, []

        def failing_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise sla.LinAlgError("QZ iteration failed")
            return qz(*args, **kwargs)

        monkeypatch.setattr(sla, "eig", failing_once)
        ang = pencil_unit_eigs(C, alpha)
        assert len(calls) == 2
        assert len(ang) == len(ref)
        np.testing.assert_allclose(ang, ref, rtol=0, atol=1e-8)

    def test_qz_failure_after_the_retry_raises(self, monkeypatch):
        C, alpha = self.singular_c()
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise sla.LinAlgError("QZ iteration failed")

        monkeypatch.setattr(sla, "eig", failing)
        with pytest.raises(SingularPencil):
            pencil_unit_eigs(C, alpha)
        assert len(calls) == 2


class TestOrthonormalExtend:
    def test_dependent_vector_dropped(self):
        V = Basis(3, np.eye(3, 1, dtype=complex))
        out = orthonormal_extend(V, [np.array([1.0, 0, 0])])
        assert out.size == 1

    def test_new_direction_appended(self):
        V = Basis(3, np.eye(3, 1, dtype=complex))
        out = orthonormal_extend(V, [np.array([0.0, 1.0, 0.0])])
        assert out.size == 2
        np.testing.assert_allclose(np.abs(out.cols[:, 1]), [0, 1, 0],
                                   atol=1e-14)

    def test_gram_schmidt_by_hand(self):
        V = Basis(2, np.eye(2, 1, dtype=complex))
        out = orthonormal_extend(V, [np.array([1.0, 1.0])])
        assert out.size == 2
        np.testing.assert_allclose(np.abs(out.cols[:, 1]), [0.0, 1.0],
                                   atol=1e-14)

    def test_invariants_random(self):
        rng = np.random.default_rng(5)
        V = Basis.empty(12)
        for _ in range(4):
            W = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
            V = orthonormal_extend(V, W)
            gram = V.cols.conj().T @ V.cols
            assert np.abs(gram - np.eye(V.size)).max() <= 1e-10
        assert V.size <= 12

    def test_equal_vectors_in_one_call_keep_one(self):
        w = np.array([1.0, 2.0, 0.0, -1.0])
        out = orthonormal_extend(Basis.empty(4), [w, w.copy()])
        assert out.size == 1
        np.testing.assert_allclose(np.abs(out.cols[:, 0]),
                                   np.abs(w) / np.linalg.norm(w), atol=1e-15)

    def test_zero_and_spanned_vectors_dropped(self):
        V = Basis(4, np.eye(4, 2, dtype=complex))
        span = np.array([3.0, -2.0j, 0.0, 0.0])
        new = np.array([1.0, 1.0, 1.0, 0.0])
        out = orthonormal_extend(V, [np.zeros(4), span, new])
        assert out.size == 3
        np.testing.assert_allclose(np.abs(out.cols[:, 2]), [0, 0, 1, 0],
                                   atol=1e-15)

    def test_block_filling_the_space_stops_at_dim(self):
        rng = np.random.default_rng(11)
        n = 6
        V = orthonormal_extend(Basis.empty(n), rng.standard_normal((2, n)))
        W = rng.standard_normal((n + 3, n)) + 1j * rng.standard_normal(
            (n + 3, n))
        out = orthonormal_extend(V, W)
        assert out.size == n
        np.testing.assert_array_equal(out.cols[:, :2], V.cols)

    def test_complex_block_is_orthonormal_to_rounding(self):
        rng = np.random.default_rng(8)
        n = 400
        V = Basis.empty(n)
        for _ in range(6):
            # nearly parallel columns stress the in-block re-orthogonalization
            W = rng.standard_normal((11, n)) + 1j * rng.standard_normal((11, n))
            W[1:] = W[0] + 1e-6 * W[1:]
            V = orthonormal_extend(V, W)
        assert V.size == 66
        gram = V.cols.conj().T @ V.cols
        assert np.abs(gram - np.eye(V.size)).max() <= 1e-14

    def test_nothing_accepted_returns_the_basis_itself(self):
        V = Basis(3, np.eye(3, 2, dtype=complex))
        assert orthonormal_extend(V, [np.zeros(3), np.array([0, 1j, 0])]) is V
        assert orthonormal_extend(V, []) is V


class TestSpectralNormUb:
    def test_diag(self):
        u = spectral_norm_ub(np.diag([1.0, -5.0]))
        assert 5.0 <= u <= 5.05

    def test_identity(self):
        u = spectral_norm_ub(np.eye(4))
        assert 1.0 <= u <= 1.01

    def test_fiedler_vs_dense(self):
        F = gallery.fiedler(10)
        exact = np.max(np.abs(np.linalg.eigvalsh(F)))
        u = spectral_norm_ub(F)
        assert exact <= u + 1e-12
        assert u <= 1.01 * exact

    def test_sparse_path(self):
        P = gallery.poisson2d(40)  # 1600 > dense threshold
        exact = largest_eigpairs(P, 0.0, 1)[0][0]  # PSD: top eig is the norm
        u = spectral_norm_ub(HermitianOperator(P))
        assert u >= exact - 1e-9
        assert u <= 1.02 * exact

    def test_sparse_bound_holds_on_a_tight_spectrum(self):
        # A bulk just below the top eigenvalue stalls power iteration short
        # of the norm; the bound must still hold.
        d = np.full(20000, 0.98)
        d[12345] = 1.0
        u = spectral_norm_ub(HermitianOperator(sp.diags(d).tocsr()))
        assert u >= 1.0


def test_no_eigensolver_outside_kernels():
    # One function in kernels.py picks the library of every dense Hermitian
    # eigensolve, and is_pd that of every positive-definiteness test; a
    # direct eigensolver or factorization call elsewhere in the package
    # would bypass them.
    import ast
    from pathlib import Path

    src = Path(kernels.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name in ("eigh", "eigvalsh", "cholesky", "splu",
                        "get_lapack_funcs"):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


@pytest.mark.parametrize("call, match", [
    (lambda: HermitianOperator(np.zeros(3)), "2-d"),
    (lambda: HermitianOperator(np.zeros((2, 3))), "square matrix"),
    (lambda: largest_eigpairs(np.eye(2), 1e-6, 0), "max_pairs"),
    (lambda: pencil_unit_eigs(np.zeros((2, 3)), 0.0), "C must be square"),
], ids=["not-2d", "not-square", "max-pairs-below-1", "pencil-not-square"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
