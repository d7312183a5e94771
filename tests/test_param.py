import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from inropt import gallery
from inropt.errors import NonHermitianInput
from inropt.kernels import Basis, hermitian_eig
from inropt.param import (ParamHermitian, Term, clarke_interval,
                          default_gamma_trig, eig_max_eval, support_slope,
                          top_cluster)
from inropt.kernels import HermitianOperator
from inropt.subspace import subspace_minimize
from inropt.support import eigopt_minimize

from oracles import lam_max_trig, random_trig_pair

THETA_STAR_TRIDIAG = 3.665191429188092  # 7*pi/6, multiplicity-2 minimizer


def non_hermitian_family():
    """A(w) = w*diag(1, -1) with the imaginary derivative coefficient 1j."""
    t = Term(lambda w: w, lambda w: 1j,
             HermitianOperator(np.diag([1.0, -1.0])))
    return ParamHermitian([t], (0.0, 1.0))


def tridiag_pair():
    C = gallery.tridiag_nonsmooth(10)
    return gallery.hermitian_split(C)


class TestEvaluate:
    def test_trig_identity_at_pi(self):
        P = ParamHermitian.trig(np.eye(2), np.zeros((2, 2)))
        np.testing.assert_allclose(P.evaluate(np.pi).dense, -np.eye(2),
                                   atol=1e-15)

    def test_trig_at_zero_gives_first(self):
        A, B = gallery.cheng_higham7()
        P = ParamHermitian.trig(A, B)
        np.testing.assert_allclose(P.evaluate(0.0).dense, A, atol=1e-15)

    def test_polynomial_coefficient(self):
        t = Term(lambda w: w ** 2, lambda w: 2 * w,
                 HermitianOperator(np.eye(3)))
        P = ParamHermitian([t], (0.0, 5.0))
        np.testing.assert_allclose(P.evaluate(2.0).dense, 4.0 * np.eye(3),
                                   atol=1e-15)

    def test_sparse_terms_stay_sparse(self):
        A1, B1 = gallery.qep_linearization(*gallery.qep_mass_spring(30, 0.5))
        P = ParamHermitian.trig(A1, B1)
        assert not P.evaluate(0.3).is_dense


class TestDerivativeMatrix:
    def test_trig_at_zero(self):
        A, B = gallery.cheng_higham7()
        P = ParamHermitian.trig(A, B)
        np.testing.assert_allclose(P.derivative_matrix(0.0).dense, B,
                                   atol=1e-15)

    def test_trig_at_half_pi(self):
        A, B = gallery.cheng_higham7()
        P = ParamHermitian.trig(A, B)
        np.testing.assert_allclose(P.derivative_matrix(np.pi / 2).dense, -A,
                                   atol=1e-12)

    def test_central_difference(self):
        rng = np.random.default_rng(1)
        A, B = random_trig_pair(5, rng)
        P = ParamHermitian.trig(A, B)
        h = 1e-5
        for w in (0.3, 2.1, 4.4):
            fd = (P.evaluate(w + h).dense - P.evaluate(w - h).dense) / (2 * h)
            np.testing.assert_allclose(P.derivative_matrix(w).dense, fd,
                                       atol=1e-8)


def complex_sum(coeffs, mats):
    """The all-complex dense sum c0*A0 + c1*A1 + ..., folded from A0."""
    out = coeffs[0] * mats[0].astype(complex)
    for c, M in zip(coeffs[1:], mats[1:]):
        out = out + c * M
    return out


def both_matrices(P, w):
    """(coefficients, matrix) of A(w) and of A'(w)."""
    return [([t.fun(w) for t in P.terms], P.evaluate(w)),
            ([t.dfun(w) for t in P.terms], P.derivative_matrix(w))]


class TestStorageAndDtype:
    """A(w) keeps the storage and dtype of its terms."""

    def test_real_pair_evaluates_in_real_arithmetic(self):
        A, B = gallery.cheng_higham7()
        P = ParamHermitian.trig(A, B)
        for w in (0.0, 0.7, 1.42389490240968, 4.4):
            for coeffs, M in both_matrices(P, w):
                ref = complex_sum(coeffs, [A, B])
                assert M.raw.dtype == np.float64
                assert np.all(ref.imag == 0.0)
                assert np.array_equal(M.raw, ref.real)

    def test_complex_dense_family_unchanged(self):
        A, B = random_trig_pair(6, np.random.default_rng(5))
        P = ParamHermitian.trig(A, B)
        for w in (0.3, 2.1, 5.0):
            for coeffs, M in both_matrices(P, w):
                assert np.array_equal(M.raw, complex_sum(coeffs, [A, B]))

    def test_sparse_family_unchanged(self):
        A1, B1 = gallery.qep_linearization(*gallery.qep_mass_spring(30, 0.5))
        P = ParamHermitian.trig(A1, B1)
        for w in (0.3, 1.9):
            for (c0, c1), M in both_matrices(P, w):
                assert not M.is_dense
                assert np.array_equal(M.dense, (c0 * A1 + c1 * B1).toarray())

    def test_mixed_storage_converts_once(self, monkeypatch):
        A = np.diag([1.0, 2.0, 3.0])
        B = sp.csr_matrix(np.array([[0.0, 1.0, 0.0],
                                    [1.0, 0.0, 0.0],
                                    [0.0, 0.0, -1.0]]))
        P = ParamHermitian.trig(A, B)
        calls = []
        real_csr = sp.csr_matrix

        def counting_csr(*args, **kwargs):
            calls.append(args)
            return real_csr(*args, **kwargs)

        monkeypatch.setattr(sp, "csr_matrix", counting_csr)
        for w in (0.3, 2.5):
            for (c0, c1), M in both_matrices(P, w):
                assert not M.is_dense
                assert np.array_equal(M.dense, c0 * A + c1 * B.toarray())
        assert calls == []


class TestEigMaxEval:
    def test_separated_diag(self):
        P = ParamHermitian.trig(np.diag([1.0, -1.0]), np.zeros((2, 2)))
        ev = eig_max_eval(P, 0.0)
        assert ev.lambda_max == pytest.approx(1.0, abs=1e-14)
        assert ev.derivative == pytest.approx(0.0, abs=1e-12)
        assert ev.cluster_size == 1

    def test_scalar_family(self):
        P = ParamHermitian.trig(np.eye(1), np.zeros((1, 1)))
        ev = eig_max_eval(P, np.pi / 4)
        assert ev.lambda_max == pytest.approx(np.cos(np.pi / 4), abs=1e-14)
        assert ev.derivative == pytest.approx(-np.sin(np.pi / 4), abs=1e-12)

    def test_derivative_vs_finite_difference(self):
        A, B = gallery.cheng_higham7()
        P = ParamHermitian.trig(A, B)
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(3):
            w = rng.uniform(0, 2 * np.pi)
            ev = eig_max_eval(P, w)
            if ev.cluster_size != 1:
                continue
            fd = (lam_max_trig(A, B, [w + h])[0]
                  - lam_max_trig(A, B, [w - h])[0]) / (2 * h)
            scale = max(1.0, np.linalg.norm(P.derivative_matrix(w).dense, 2))
            assert abs(ev.derivative - fd) <= 1e-6 * scale

    def test_non_hermitian_derivative_raises(self):
        with pytest.raises(NonHermitianInput):
            eig_max_eval(non_hermitian_family(), 0.5)

    @pytest.mark.parametrize("solve", [
        lambda P: eigopt_minimize(P, gamma=-1.0),
        lambda P: subspace_minimize(P, gamma=-1.0),
    ], ids=["support", "subspace"])
    def test_solvers_reject_non_hermitian_family(self, solve):
        with pytest.raises(NonHermitianInput):
            solve(non_hermitian_family())

    def test_views_agree_at_tridiag_crossing(self):
        A, B = tridiag_pair()
        P = ParamHermitian.trig(A, B)
        ev = eig_max_eval(P, THETA_STAR_TRIDIAG)
        lam, slope, _ = support_slope(P, THETA_STAR_TRIDIAG)
        ci = clarke_interval(P, THETA_STAR_TRIDIAG)
        assert ev.lambda_max == lam
        assert ev.cluster_size == 2
        assert slope == ci.hi
        assert ci.lo <= ev.derivative <= ci.hi


class TestClarkeInterval:
    def test_point_interval_when_simple(self):
        P = ParamHermitian.trig(np.diag([1.0, -1.0]), np.zeros((2, 2)))
        ci = clarke_interval(P, 0.0)
        assert ci.hi - ci.lo <= 1e-8
        assert not ci.contains_zero_strictly

    def test_symmetric_crossing(self):
        # A(w) = diag(w, -w): at 0 the cluster is full and A' = diag(1, -1)
        t = Term(lambda w: w, lambda w: 1.0,
                 HermitianOperator(np.diag([1.0, -1.0])))
        P = ParamHermitian([t], (-1.0, 1.0))
        ci = clarke_interval(P, 0.0)
        assert ci.lo == pytest.approx(-1.0, abs=1e-12)
        assert ci.hi == pytest.approx(1.0, abs=1e-12)
        assert ci.contains_zero_strictly

    def test_tridiag_minimizer_is_sharp(self):
        A, B = tridiag_pair()
        P = ParamHermitian.trig(A, B)
        ci = clarke_interval(P, THETA_STAR_TRIDIAG)
        assert ci.contains_zero_strictly

    def test_smooth_point_width(self):
        A, B = gallery.cheng_higham7()
        P = ParamHermitian.trig(A, B)
        ci = clarke_interval(P, 0.7)
        assert ci.hi - ci.lo <= 1e-8


RECORD_CASES = {
    # name: (pair, angle, cluster size or None)
    "grcar300": (lambda: gallery.grcar_pair(300), 0.9, None),
    "tridiag-crossing": (tridiag_pair, THETA_STAR_TRIDIAG, 2),
    "sparse-qep1000": (lambda: gallery.qep_linearization(
        *gallery.qep_mass_spring(500, 0.524)), 1.9083, None),
}


def record_case(name):
    pair, w, p = RECORD_CASES[name]
    P = ParamHermitian.trig(*pair())
    return P, w, p, top_cluster(P, w)


@pytest.mark.parametrize("name", RECORD_CASES)
class TestTopClusterRecord:
    def test_derivative_is_the_cluster_block(self, name):
        P, w, p, tc = record_case(name)
        if p is not None:
            assert len(tc.values) == p
        D = P.derivative_matrix(w).dense
        U = tc.vectors
        S = U.conj().T @ D @ U
        S = (S + S.conj().T) / 2.0
        assert tc.derivative.shape == (len(tc.values),) * 2
        np.testing.assert_array_equal(tc.derivative, tc.derivative.conj().T)
        norm = np.abs(np.linalg.eigvalsh(D)).max()
        assert np.abs(tc.derivative - S).max() <= 1e-14 * norm
        assert tc.top_derivative == tc.derivative[0, 0].real

    def test_no_field_outgrows_the_cluster(self, name):
        # The record keeps U and p x p data, never an n x n matrix
        P, _, _, tc = record_case(name)
        bound = P.dim * len(tc.values)
        for f in dataclasses.fields(tc):
            value = getattr(tc, f.name)
            assert isinstance(value, (float, np.ndarray)), f.name
            assert np.size(value) <= bound, f.name


class TestProject:
    def test_full_basis_identity(self):
        rng = np.random.default_rng(9)
        A, B = random_trig_pair(5, rng)
        P = ParamHermitian.trig(A, B)
        V = Basis(5, np.eye(5, dtype=complex))
        Q = P.project(V)
        for w in rng.uniform(0, 2 * np.pi, size=5):
            np.testing.assert_allclose(Q.evaluate(w).dense,
                                       P.evaluate(w).dense, atol=1e-12)

    def test_single_column(self):
        rng = np.random.default_rng(2)
        A, B = random_trig_pair(4, rng)
        P = ParamHermitian.trig(A, B)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        Q = P.project(Basis(4, v[:, None]))
        for w in (0.5, 3.3):
            ray = (v.conj() @ P.evaluate(w).dense @ v).real
            assert np.linalg.eigvalsh(Q.evaluate(w).dense)[-1] == \
                pytest.approx(ray, abs=1e-12)

    def test_nested_monotonicity(self):
        rng = np.random.default_rng(4)
        A, B = random_trig_pair(6, rng)
        P = ParamHermitian.trig(A, B)
        X = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        Q1, _ = np.linalg.qr(X[:, :2])
        Q2, _ = np.linalg.qr(X)
        P1 = P.project(Basis(6, Q1))
        P2 = P.project(Basis(6, Q2))
        for w in rng.uniform(0, 2 * np.pi, size=5):
            l1 = np.linalg.eigvalsh(P1.evaluate(w).dense)[-1]
            l2 = np.linalg.eigvalsh(P2.evaluate(w).dense)[-1]
            lf = np.linalg.eigvalsh(P.evaluate(w).dense)[-1]
            assert l1 <= l2 + 1e-12
            assert l2 <= lf + 1e-12

    def test_interpolation_with_top_eigvecs(self):
        rng = np.random.default_rng(14)
        A, B = random_trig_pair(7, rng)
        P = ParamHermitian.trig(A, B)
        w_hat = 1.234
        dec = hermitian_eig(P.evaluate(w_hat))
        j = 3
        V = Basis(7, dec.vectors[:, :j])
        red = P.project(V)
        red_vals = np.linalg.eigvalsh(red.evaluate(w_hat).dense)[::-1]
        np.testing.assert_allclose(red_vals[:j], dec.values[:j], atol=1e-8)


class TestGamma:
    def test_identity_zero(self):
        g = default_gamma_trig(np.eye(3), np.zeros((3, 3)))
        assert -1.01 <= g <= -1.0

    def test_zero_pair(self):
        g = default_gamma_trig(np.zeros((2, 2)), np.zeros((2, 2)))
        assert g == 0.0

    def test_fiedler_moler(self):
        A, B = gallery.fiedler(10), gallery.moler(10)
        exact = (np.max(np.abs(np.linalg.eigvalsh(A)))
                 + np.max(np.abs(np.linalg.eigvalsh(B))))
        assert default_gamma_trig(A, B) <= -exact + 1e-9


class TestAnalyticProperties:
    def test_uniform_lipschitz(self):
        rng = np.random.default_rng(21)
        A, B = random_trig_pair(6, rng)
        P = ParamHermitian.trig(A, B)
        # sup |f_j'| = 1 for cos/sin, so eta = ||A|| + ||B||
        eta = np.linalg.norm(A, 2) + np.linalg.norm(B, 2)
        ws = rng.uniform(0, 2 * np.pi, size=(30, 2))
        vals = lam_max_trig(A, B, ws.ravel()).reshape(30, 2)
        for (w1, w2), (v1, v2) in zip(ws, vals):
            assert abs(v1 - v2) <= eta * abs(w1 - w2) + 1e-12

    def test_support_slope_matches_derivative_when_simple(self):
        A, B = gallery.cheng_higham7()
        P = ParamHermitian.trig(A, B)
        val, slope, cs = support_slope(P, 0.9)
        ev = eig_max_eval(P, 0.9)
        assert cs == 1
        assert slope == pytest.approx(ev.derivative, abs=1e-12)
        assert val == pytest.approx(ev.lambda_max, abs=1e-14)


def identity_term(n):
    return Term(np.cos, np.sin, HermitianOperator(np.eye(n)))


@pytest.mark.parametrize("call, match", [
    (lambda: ParamHermitian([], (0.0, 1.0)), "non-empty"),
    (lambda: ParamHermitian([identity_term(2), identity_term(3)],
                            (0.0, 1.0)), "mixed dimensions"),
    (lambda: ParamHermitian([identity_term(2)], (1.0, 0.0)), "a <= b"),
    (lambda: ParamHermitian.trig(np.eye(2), np.eye(3)), "same dimension"),
    (lambda: ParamHermitian.trig(np.eye(2), np.eye(2)).project(
        Basis.empty(3)), "basis dimension"),
], ids=["no-terms", "mixed-dimensions", "reversed-domain",
        "trig-dimensions", "project-basis"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_derivative_matrix_only_in_top_cluster():
    # The n x n A'(w) is built in one place, top_cluster, which keeps only
    # U^* A'(w) U; a call elsewhere in the package would rebuild it.
    import ast
    from pathlib import Path

    import inropt

    class Calls(ast.NodeVisitor):
        """(module, innermost function) of each derivative_matrix call."""

        def __init__(self):
            self.module, self.scope, self.found = None, ["<module>"], []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) \
                    == "derivative_matrix":
                self.found.append((self.module, self.scope[-1]))
            self.generic_visit(node)

    calls = Calls()
    for path in sorted(Path(inropt.__file__).parent.glob("*.py")):
        calls.module = path.name
        calls.visit(ast.parse(path.read_text()))
    assert calls.found == [("param.py", "top_cluster")]


def test_reprs_name_dimension_and_storage():
    A = HermitianOperator(np.eye(2))
    S = HermitianOperator(sp.identity(2, format="csr"))
    assert repr(A) == "HermitianOperator(dim=2, dense)"
    assert repr(S) == "HermitianOperator(dim=2, sparse)"
    assert repr(ParamHermitian.trig(A, S)) == (
        f"ParamHermitian(dim=2, terms=2, domain={(0.0, 2.0 * np.pi)})")
