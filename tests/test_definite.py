import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from inropt import definite, gallery, kernels
from inropt.definite import (crawford_number, eigenpair_backmap,
                             inner_numerical_radius, is_hyperbolic,
                             nearest_definite_pair, rotate_pair, saddle_shift)
from inropt.errors import (ConvergenceFailure, EmptyLevelSet,
                           NotPositiveDefiniteMass, VerificationFailure)
from inropt.kernels import EigDecomposition
from inropt.levelset import level_intervals, levelset_minimize
from inropt.param import ParamHermitian
from inropt.subspace import subspace_minimize
from inropt.support import PiecewiseModel, eigopt_minimize

from oracles import (crossing_pair, grid_min_trig, lam_max_trig,
                     random_hermitian, random_trig_pair)

TWO_PI = 2.0 * np.pi


class TestInnerNumericalRadius:
    def test_scalar_one(self):
        C = np.array([[1.0]])
        r = inner_numerical_radius(pair=gallery.hermitian_split(C))
        assert r.zeta == pytest.approx(1.0, abs=1e-12)
        assert r.f_star == pytest.approx(-1.0, abs=1e-12)
        assert r.theta_star == pytest.approx(np.pi, abs=1e-4)
        assert not r.zero_in_fov
        # boundary point 1 * e^{i*0}: the set {1}
        assert min(r.phi, TWO_PI - r.phi) <= 1e-4

    def test_segment_through_origin(self):
        C = np.diag([1.0, -1.0])
        r = inner_numerical_radius(pair=gallery.hermitian_split(C))
        assert r.zeta == pytest.approx(0.0, abs=1e-9)
        assert r.zero_in_fov

    def test_mass_spring4_linearization(self):
        A1, B1 = gallery.qep_linearization(*gallery.qep_mass_spring4())
        r = inner_numerical_radius(pair=(A1, B1), method="support")
        assert r.f_star == pytest.approx(-0.4897656697, abs=1e-8)
        # smooth minimizer: the angle is only sharp to ~sqrt(tol/curvature)
        assert r.theta_star == pytest.approx(2.56821, abs=1e-5)

    def test_methods_agree_on_dense_gallery(self):
        problems = []
        A, B = gallery.cheng_higham7()
        problems.append((A, B))
        problems.append((gallery.fiedler(24).astype(float),
                         gallery.moler(24).astype(float)))
        problems.append(gallery.hermitian_split(gallery.tridiag_nonsmooth(10)))
        A1, B1 = gallery.qep_linearization(*gallery.qep_mass_spring4())
        problems.append((A1, B1))
        for A, B in problems:
            rs = inner_numerical_radius(pair=(A, B), method="support")
            rl = inner_numerical_radius(pair=(A, B), method="levelset")
            assert rs.f_star == pytest.approx(rl.f_star, abs=1e-8)

    def test_zeta_scaling(self):
        rng = np.random.default_rng(40)
        C = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        z1 = inner_numerical_radius(pair=gallery.hermitian_split(C)).zeta
        z2 = inner_numerical_radius(pair=gallery.hermitian_split(2.5 * C)).zeta
        assert z2 == pytest.approx(2.5 * z1, abs=1e-8 * max(1.0, z1))

    def test_auto_routes_on_the_dense_threshold(self, monkeypatch):
        from inropt import subspace, support

        class SupportCalled(Exception):
            pass

        class SubspaceCalled(Exception):
            pass

        def raiser(exc):
            def fail(*args, **kwargs):
                raise exc
            return fail

        monkeypatch.setattr(support, "eigopt_minimize", raiser(SupportCalled))
        monkeypatch.setattr(subspace, "subspace_minimize",
                            raiser(SubspaceCalled))
        for n, expected in ((999, SupportCalled), (1000, SubspaceCalled)):
            pair = (sp.identity(n, format="csr"), sp.diags(np.ones(n)))
            with pytest.raises(expected):
                inner_numerical_radius(pair=pair, method="auto")

    def test_gamma_is_not_a_keyword(self):
        with pytest.raises(TypeError):
            inner_numerical_radius(pair=gallery.cheng_higham7(), gamma=-1.0)

    def test_zeta_rotation_invariance(self):
        rng = np.random.default_rng(41)
        C = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        z1 = inner_numerical_radius(pair=gallery.hermitian_split(C)).zeta
        for th in rng.uniform(0.0, TWO_PI, size=3):
            Ct = np.exp(-1j * th) * C
            z2 = inner_numerical_radius(pair=gallery.hermitian_split(Ct)).zeta
            assert z2 == pytest.approx(z1, abs=1e-8 * max(1.0, z1))


class TestCrawfordNumber:
    def test_identity_pair_definite(self):
        gamma, definite, _ = crawford_number(np.eye(3), np.zeros((3, 3)))
        assert definite
        assert gamma == pytest.approx(1.0, abs=1e-10)

    def test_indefinite_pair(self):
        gamma, definite, _ = crawford_number(np.diag([1.0, -1.0]),
                                             np.zeros((2, 2)))
        assert not definite
        assert gamma == 0.0

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=25)
    @given(n=st.integers(2, 8), real=st.booleans(),
           shift=st.floats(-1.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_methods_agree_with_grid_oracle(self, n, real, shift, seed):
        A, B = random_trig_pair(n, np.random.default_rng(seed), real=real)
        A = A + shift * np.eye(n)
        _, oracle = grid_min_trig(A, B, npts=20001)
        s = max(1.0, abs(oracle))
        for method in ("levelset", "support", "subspace"):
            cr = crawford_number(A, B, method=method)
            assert cr.witness.opt.lower_bound <= oracle + 1e-12 * s
            assert abs(cr.witness.f_star - oracle) <= 1e-8 * s
            if abs(oracle) > 1e-8 * s:
                assert cr.is_definite == (oracle < 0)


class TestBuiltInCrossings:
    """Pairs whose minimum -cos(alpha) sits at a crossing t0 of two
    eigenvalue branches, so the Clarke interval there is wide."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=20)
    @given(n=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
    def test_every_method_reaches_the_crossing(self, n, seed):
        A, B, t0, value = crossing_pair(n, np.random.default_rng(seed))
        P = ParamHermitian.trig(A, B)
        gamma = -(np.linalg.norm(A, 2) + np.linalg.norm(B, 2))
        sinusoids = []
        insert = PiecewiseModel.insert

        def recording(model, s):
            if s.gamma is None:
                sinusoids.append(s)
            insert(model, s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PiecewiseModel, "insert", recording)
            results = {
                "support": eigopt_minimize(P),
                "support-quadratic": eigopt_minimize(P, gamma=gamma),
                "subspace": subspace_minimize(P)[0],
                "levelset": levelset_minimize(A + 1j * B)[0],
            }
        for name, res in results.items():
            assert res.f_star == pytest.approx(value, abs=1e-8), name
            d = abs(res.omega_star - t0) % TWO_PI
            assert min(d, TWO_PI - d) <= 1e-8, name
            assert all(ell <= value + 1e-12 for *_, ell in res.trace
                       if np.isfinite(ell)), name
            assert res.lower_bound <= value + 1e-12, name
            assert res.clarke.contains_zero_strictly, name
        # the reduced solves' sinusoids bound the full family too
        assert sinusoids
        grid = np.linspace(0.0, TWO_PI, 721)
        fvals = lam_max_trig(A, B, grid)
        for s in sinusoids:
            assert np.all(s.q(grid) <= fvals + 1e-12)


def dense_gallery_pair(name):
    if name == "cheng_higham7":
        return gallery.cheng_higham7()
    if name.startswith("grcar_pair"):
        return gallery.grcar_pair(int(name.split("-")[1]))
    if name == "tridiag_nonsmooth":
        return gallery.hermitian_split(gallery.tridiag_nonsmooth(10))
    A1, B1 = gallery.qep_linearization(*gallery.qep_mass_spring4())
    return tuple(M.toarray() if sp.issparse(M) else M for M in (A1, B1))


class TestLevelSetCrossCheck:
    """Every dense certified lower bound, checked by the level-set method.

    A level lies below the minimum of lambda_max(A cos t + B sin t)
    exactly when no gap between crossings of the level lies below it, that
    is when ``level_intervals`` raises EmptyLevelSet.  The margin of
    ``1e-10 * max(1, ||C||_2)`` leaves rounding room below the bound.  The
    pencil keeps crossings only within CIRCLE_TOL of the unit circle, so
    this is backward-stable evidence that the bound holds, not a proof.
    """

    @staticmethod
    def assert_no_crossing_below(A, B):
        C = A + 1j * B
        P = ParamHermitian.trig(A, B)
        margin = 1e-10 * max(1.0, np.linalg.norm(C, 2))
        for res in (eigopt_minimize(P), subspace_minimize(P)[0]):
            level = res.lower_bound - margin
            assert res.f_star > level
            with pytest.raises(EmptyLevelSet):
                level_intervals(C, level)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=45)
    @given(n=st.integers(3, 12), crossing=st.booleans(), real=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_random_and_crossing_pairs(self, n, crossing, real, seed):
        rng = np.random.default_rng(seed)
        if crossing:
            A, B = crossing_pair(n, rng)[:2]
        else:
            A, B = random_trig_pair(n, rng, real=real)
        self.assert_no_crossing_below(A, B)

    @pytest.mark.parametrize("name", [
        "cheng_higham7", "grcar_pair-100", "grcar_pair-200",
        "tridiag_nonsmooth", "mass_spring4"])
    def test_gallery_pairs(self, name):
        self.assert_no_crossing_below(*dense_gallery_pair(name))


@pytest.mark.parametrize("call, match", [
    (lambda: inner_numerical_radius(
        pair=(sp.identity(1000, format="csr"),) * 2, method="levelset"),
     "requires dense input"),
    (lambda: inner_numerical_radius(pair=(np.eye(2),) * 2, method="qz"),
     "unknown method"),
    (lambda: nearest_definite_pair(np.eye(2), np.eye(2), delta=0.0),
     "delta must be positive"),
    (lambda: nearest_definite_pair(np.eye(2), np.eye(2), delta=np.nan),
     "delta must be positive and finite"),
    (lambda: nearest_definite_pair(np.eye(2), np.eye(2), delta=np.inf),
     "delta must be positive and finite"),
    (lambda: nearest_definite_pair(np.eye(2), np.eye(2), delta=0.1,
                                   variant="shift"), "variant"),
    (lambda: saddle_shift(np.eye(5), 2, 2), "dimension n \\+ m"),
], ids=["levelset-large-sparse", "unknown-method", "delta-not-positive",
        "delta-nan", "delta-inf", "unknown-variant", "saddle-dimension"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestNearestDefinitePair:
    def test_already_definite_distance_zero(self):
        rep = nearest_definite_pair(np.eye(3), np.zeros((3, 3)), delta=0.5)
        assert rep.distance == 0.0
        assert np.max(np.abs(rep.deltaA)) == 0.0
        assert np.max(np.abs(rep.deltaB)) == 0.0
        # psi still rotates the pair so B_tilde is definite at level gamma
        assert rep.crawford_after == pytest.approx(1.0, abs=1e-10)

    def test_zero_pair(self):
        rep = nearest_definite_pair(np.zeros((1, 1)), np.zeros((1, 1)),
                                    delta=0.5)
        assert rep.distance == pytest.approx(0.5, abs=1e-12)

    def test_cheng_higham_distance_value(self):
        # the distance adds the margin delta on top of the inner radius
        A, B = gallery.cheng_higham7()
        rep = nearest_definite_pair(A, B, delta=1e-8, method="support")
        assert rep.distance == pytest.approx(0.8118872239262367 + 1e-8,
                                             abs=1e-9)

    def test_perturbation_norm_is_distance(self):
        A, B = gallery.cheng_higham7()
        rep = nearest_definite_pair(A, B, delta=1e-2, method="support")
        norm = np.linalg.norm(np.hstack([rep.deltaA, rep.deltaB]), 2)
        assert norm == pytest.approx(rep.distance, abs=1e-10)

    def test_repair_certificate_random_pairs(self):
        # recompute the Crawford number of the repaired pair from scratch
        rng = np.random.default_rng(99)
        done = 0
        while done < 10:
            A = random_hermitian(6, rng).real
            B = random_hermitian(6, rng).real
            if crawford_number(A, B).is_definite:
                continue
            done += 1
            delta = 0.25
            rep = nearest_definite_pair(A, B, delta=delta)
            scale = max(1.0, np.linalg.norm(np.hstack([A, B]), 2))
            gam, definite, wit = crawford_number(A + rep.deltaA,
                                                 B + rep.deltaB)
            assert definite
            assert abs(gam - delta) <= 1e-7 * scale
            # the closest boundary point moves to the opposite angle
            diff = abs((wit.phi - (rep.theta_star + np.pi)) % TWO_PI)
            assert min(diff, TWO_PI - diff) <= 1e-6

    def test_unconverged_solve_raises(self):
        # two support iterations stop short of the minimizer; the repair
        # built on them would report a distance 0.057 too large
        A, B = gallery.cheng_higham7()
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            nearest_definite_pair(A, B, delta=1e-8, method="support",
                                  max_iter=2)

    def test_real_and_complex_inputs_mix(self):
        # a real A and a complex B rotate into a complex H(theta*)
        A, B = gallery.cheng_higham7()
        rng = np.random.default_rng(4)
        B = B + 1e-3j * np.triu(rng.standard_normal(B.shape), 1)
        B = (B + B.conj().T) / 2.0
        rep = nearest_definite_pair(A, B, delta=1e-2, method="support")
        norm = np.linalg.norm(np.hstack([rep.deltaA, rep.deltaB]), 2)
        assert norm == pytest.approx(rep.distance, abs=1e-10)
        assert np.linalg.eigvalsh(rep.B_tilde)[0] \
            == pytest.approx(1e-2, abs=1e-10)

    def test_uniform_variant(self):
        A, B = gallery.cheng_higham7()
        rep = nearest_definite_pair(A, B, delta=1e-2, method="support",
                                    variant="uniform")
        norm = np.linalg.norm(np.hstack([rep.deltaA, rep.deltaB]), 2)
        assert norm == pytest.approx(rep.distance, abs=1e-10)
        gam, definite, _ = crawford_number(A + rep.deltaA, B + rep.deltaB)
        assert definite
        assert gam == pytest.approx(1e-2, abs=1e-7)


class TestClipProduct:
    """The clip D = V diag(clip) V^* is built from the columns whose clip
    is nonzero only."""

    @pytest.mark.parametrize("pair, delta, method", [
        (gallery.cheng_higham7(), 1e-8, "support"),
        (gallery.grcar_pair(kernels.SUBSET_THRESHOLD), 1e-2, "subspace")],
        ids=["cheng_higham7", "grcar_pair"])
    def test_matches_the_all_column_product(self, pair, delta, method):
        A, B = pair
        rep = nearest_definite_pair(A, B, delta=delta, method=method)
        c, s = np.cos(rep.theta_star), np.sin(rep.theta_star)
        H = A * c + B * s
        dec = kernels.hermitian_eig((H + H.conj().T) / 2.0)
        clip = np.minimum(-delta - dec.values, 0.0)
        assert 0 < np.count_nonzero(clip) < len(clip)
        D = kernels.matmul(dec.vectors * clip[np.newaxis, :],
                           dec.vectors.conj().T)
        D = (D + D.conj().T) / 2.0
        tol = 1e-14 * np.linalg.norm(D, 2)
        assert np.max(np.abs(rep.deltaA - c * D)) <= tol
        assert np.max(np.abs(rep.deltaB - s * D)) <= tol

    def test_uniform_variant_is_a_multiple_of_the_identity(self):
        A, B = gallery.cheng_higham7()
        rep = nearest_definite_pair(A, B, delta=1e-8, variant="uniform")
        D = -rep.distance * np.eye(7)
        assert np.array_equal(rep.deltaA, np.cos(rep.theta_star) * D)
        assert np.array_equal(rep.deltaB, np.sin(rep.theta_star) * D)


class TestRepairNorms:
    """The repair takes ||[dA dB]||_2 = ||D||_2 and lambda_min(B_tilde) from
    r x r problems, and the scale ||[A B]||_2 from below by a few Lanczos
    steps (kernels.stacked_norm_below), with no SVD of an n x 2n block."""

    @pytest.mark.parametrize("n", [7, kernels.SUBSET_THRESHOLD, 256])
    def test_gram_norm_matches_the_svd(self, n):
        # ||D||_2 is the top eigenvalue of the r x r Gram matrix W^* W
        rng = np.random.default_rng(n)
        X, Y = random_hermitian(n, rng), random_hermitian(n, rng)
        rep = nearest_definite_pair(X, Y, delta=1e-2)
        svd = np.linalg.norm(np.hstack([rep.deltaA, rep.deltaB]), 2)
        assert rep.distance == pytest.approx(svd, rel=1e-12)

    @pytest.mark.parametrize("pair, method, s", [
        (gallery.cheng_higham7(), "support", 1.0),
        (gallery.grcar_pair(kernels.SUBSET_THRESHOLD), "subspace", 1.0),
        (gallery.cheng_higham7(), "support", 1e-9)],
        ids=["pair0-support", "pair1-subspace", "pair2-support-1e-09"])
    def test_doubled_clip_fails_the_certificate(self, pair, method, s,
                                                 monkeypatch):
        # at s = 1e-9 a scale clamped to max(1, ||[A B]||_2) let the
        # doubled perturbation through
        pair = tuple(s * M for M in pair)
        eig = definite.hermitian_eig

        def doubled_clip(M, **kwargs):
            # D = V diag(clip) V^* doubles when V is scaled by sqrt(2)
            dec = eig(M, **kwargs)
            return EigDecomposition(dec.values, dec.vectors * np.sqrt(2.0))

        monkeypatch.setattr(definite, "hermitian_eig", doubled_clip)
        with pytest.raises(VerificationFailure, match="perturbation norm"):
            nearest_definite_pair(*pair, delta=1e-2 * s, method=method)

    @pytest.mark.parametrize("pair, method", [
        (gallery.cheng_higham7(), "support"),
        (gallery.grcar_pair(kernels.SUBSET_THRESHOLD), "subspace")])
    def test_high_floor_fails_the_cholesky(self, pair, method, monkeypatch):
        # A compression that reads lambda_min(B_tilde) 1e-9 * scale too
        # high passes the 1e-8 * scale comparisons, and only the Cholesky
        # of B_tilde - (mu - 1e-10 * scale) I can reject it.
        scale = max(1.0, np.linalg.norm(np.hstack(pair), 2))
        eigvals = definite.hermitian_eigvals

        def raised(M):
            return eigvals(M) + 1e-9 * scale

        nearest_definite_pair(*pair, delta=1e-2, method=method)
        monkeypatch.setattr(definite, "hermitian_eigvals", raised)
        with pytest.raises(VerificationFailure, match="B_tilde") as exc:
            nearest_definite_pair(*pair, delta=1e-2, method=method)
        assert "perturbation norm" not in str(exc.value)


class TestRightSizedRepair:
    """From SUBSET_THRESHOLD on, the repair solves for the eigenpairs of
    H(theta*) above -delta only, and its temporaries stay few."""

    def test_already_definite_at_the_subset_dimension(self):
        # r = 0: no eigenvalue above -delta, so the top vector alone
        # carries the B_tilde certificate.
        n = kernels.SUBSET_THRESHOLD
        rng = np.random.default_rng(3)
        A = np.eye(n) + 0.01 * random_hermitian(n, rng)
        B = 0.01 * random_hermitian(n, rng)
        rep = nearest_definite_pair(A, B, delta=1e-2, method="subspace")
        gamma = crawford_number(A, B, method="subspace").gamma
        assert gamma > 1e-2
        assert rep.distance == 0.0
        assert not rep.deltaA.any() and not rep.deltaB.any()
        scale = max(1.0, np.linalg.norm(np.hstack([A, B]), 2))
        assert abs(rep.crawford_after - gamma) <= 1e-10 * scale
        assert np.linalg.eigvalsh(rep.B_tilde)[0] \
            == pytest.approx(gamma, abs=1e-10 * scale)

    def test_never_asks_for_all_vectors(self, monkeypatch):
        n = kernels.SUBSET_THRESHOLD
        A, B = gallery.grcar_pair(n)
        requests = []
        eigh = sla.eigh

        def recording(M, *args, subset_by_index=None, subset_by_value=None,
                      eigvals_only=False, **kwargs):
            requests.append((M.shape[0], subset_by_index, subset_by_value,
                             eigvals_only))
            return eigh(M, *args, subset_by_index=subset_by_index,
                        subset_by_value=subset_by_value,
                        eigvals_only=eigvals_only, **kwargs)

        monkeypatch.setattr(sla, "eigh", recording)
        nearest_definite_pair(A, B, delta=1e-2, method="subspace",
                              omega0=0.45)
        full = [r for r in requests if r[0] == n and not r[3]
                and r[1] is None and r[2] is None]
        assert full == []
        assert [r[2] for r in requests if r[2] is not None] \
            == [(-1e-2, np.inf)]

    def test_peak_memory(self):
        # Beyond the four n x n outputs, at most three n x n matrices are
        # alive at once: two temporaries and the small pieces.  Pinned at
        # n = 256, the size the bound was set at: the excess over the
        # outputs is 2.2 n x n there, but 3.8-4 n x n at n = 96 and 128.
        import tracemalloc

        n = 256
        A, B = gallery.grcar_pair(n)
        nearest_definite_pair(A, B, delta=1e-2, method="subspace",
                              omega0=0.45)
        tracemalloc.start()
        try:
            rep = nearest_definite_pair(A, B, delta=1e-2, method="subspace",
                                        omega0=0.45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(M.nbytes for M in (rep.deltaA, rep.deltaB,
                                         rep.A_tilde, rep.B_tilde))
        assert peak <= outputs + 3 * A.nbytes

    @pytest.mark.parametrize("pair, method", [
        (gallery.cheng_higham7(), "support"),
        (gallery.grcar_pair(kernels.SUBSET_THRESHOLD), "subspace")],
        ids=["cheng_higham7", "grcar_pair"])
    def test_checks_each_input_once(self, pair, method, monkeypatch):
        # Each Hermitian check allocates M - M^* and takes a norm.
        checked = []
        check = kernels.HermitianOperator._check_hermitian

        def counting(op):
            checked.append(op.dim)
            return check(op)

        monkeypatch.setattr(kernels.HermitianOperator, "_check_hermitian",
                            counting)
        nearest_definite_pair(*pair, delta=1e-2, method=method)
        assert len(checked) == 2


def forbid_numpy_solvers(monkeypatch, n_min):
    """numpy's eigensolvers, solve, SVD (also behind ``norm(X, 2)``) and
    Cholesky raise on a matrix with a dimension of ``n_min`` or more."""
    linalg = np.linalg._linalg
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "solve", "svd",
                 "cholesky"):
        def guard(a, *args, _orig=getattr(linalg, name), _name=name, **kw):
            if max(np.shape(a)[-2:]) >= n_min:
                raise AssertionError(f"numpy.linalg.{_name} on {np.shape(a)}")
            return _orig(a, *args, **kw)
        monkeypatch.setattr(linalg, name, guard)
        monkeypatch.setattr(np.linalg, name, guard)


class TestLibrarySplit:
    """From SUBSET_THRESHOLD on, the dense evaluation loop solves on scipy's
    LAPACK; below it nothing reaches scipy's handles."""

    def test_no_numpy_solver_at_the_subset_dimension(self, monkeypatch):
        n = kernels.SUBSET_THRESHOLD
        A, B = gallery.grcar_pair(n)
        forbid_numpy_solvers(monkeypatch, n)
        res, _ = subspace_minimize(ParamHermitian.trig(A, B), omega1=0.45)
        assert res.converged
        rep = nearest_definite_pair(A, B, delta=1e-2, method="subspace",
                                    omega0=0.45)
        assert rep.distance == pytest.approx(res.f_star + 1e-2, abs=1e-10)

    def test_saddle_shift_at_the_subset_dimension(self, monkeypatch):
        # The certificate's lambda_min of S - mu*J is a dense solve of
        # dimension n + m; from the threshold on it runs on scipy too.
        n, m = 200, 60
        assert n + m >= kernels.SUBSET_THRESHOLD
        S, J = gallery.synthetic_saddle(n, m, seed=1)
        forbid_numpy_solvers(monkeypatch, kernels.SUBSET_THRESHOLD)
        mu, lam_min = saddle_shift(S, n, m, method="subspace")
        monkeypatch.undo()
        exact = np.linalg.eigvalsh(S - mu * J)[0]
        assert lam_min == pytest.approx(exact, rel=1e-10) and lam_min > 0

    def test_level_set_and_fov_at_the_subset_dimension(self, monkeypatch,
                                                       tmp_path):
        # The level pencil's solve and eigenvalues, the SVD of ||C||_2, the
        # Cholesky trials and fov's eigenvalues of C all run on scipy too.
        from inropt.cli import main
        from inropt.mmio import write_matrix

        n = kernels.SUBSET_THRESHOLD
        A, B = gallery.grcar_pair(n)
        ref, _ = subspace_minimize(ParamHermitian.trig(A, B), omega1=0.45)
        files = [str(tmp_path / f"{name}.mtx") for name in "AB"]
        for path, M in zip(files, (A, B)):
            write_matrix(path, M)
        forbid_numpy_solvers(monkeypatch, n)
        res, _ = levelset_minimize(A + 1j * B)
        assert res.converged
        assert res.f_star == pytest.approx(ref.f_star, abs=1e-12)
        out = tmp_path / "boundary.csv"
        assert main(["fov", "--pair", *files, "--samples", "8",
                     "--out", str(out)]) == 0
        assert out.read_text().count("\neigenvalue,") == n

    def test_guard_catches_a_numpy_solve(self, monkeypatch):
        n = kernels.SUBSET_THRESHOLD
        forbid_numpy_solvers(monkeypatch, n)
        np.linalg.eigvalsh(np.eye(n - 1))
        with pytest.raises(AssertionError, match="svd"):
            np.linalg.norm(np.eye(n), 2)
        with pytest.raises(AssertionError, match="cholesky"):
            np.linalg.cholesky(np.eye(n))
        with pytest.raises(AssertionError, match="solve"):
            np.linalg.solve(np.eye(n), np.ones(n))

    def test_small_pairs_do_not_touch_scipy_handles(self, monkeypatch):
        def no_handle(*args, **kwargs):
            raise AssertionError("scipy's library below SUBSET_THRESHOLD")

        monkeypatch.setattr(kernels, "_gemm", no_handle)
        for name in ("eigh", "solve", "eigvals", "svdvals", "get_blas_funcs",
                     "get_lapack_funcs"):
            monkeypatch.setattr(sla, name, no_handle)
        A, B = gallery.cheng_higham7()
        res = eigopt_minimize(ParamHermitian.trig(A, B))
        assert res.f_star == pytest.approx(0.8118872239262367, abs=1e-9)
        rep = nearest_definite_pair(A, B, delta=1e-2)
        assert rep.distance == pytest.approx(res.f_star + 1e-2, abs=1e-9)
        lev, _ = levelset_minimize(A + 1j * B)
        assert lev.f_star == pytest.approx(res.f_star, abs=1e-9)


class TestRotatePair:
    def test_theta_zero_identity(self):
        A, B = gallery.cheng_higham7()
        At, Bt = rotate_pair(A, B, 0.0)
        np.testing.assert_array_equal(At, A)
        np.testing.assert_array_equal(Bt, B)

    def test_rotation_identity_elementwise(self):
        rng = np.random.default_rng(50)
        A = random_hermitian(5, rng)
        B = random_hermitian(5, rng)
        for th in (0.3, 2.0):
            At, Bt = rotate_pair(A, B, th)
            err = np.max(np.abs((At + 1j * Bt)
                                - np.exp(-1j * th) * (A + 1j * B)))
            assert err <= 1e-14 * max(1.0, np.linalg.norm(A + 1j * B, 2))

    def test_backmap_determinant_residual(self):
        rng = np.random.default_rng(51)
        for _ in range(3):
            A = random_hermitian(3, rng)
            A += (2.0 + abs(np.linalg.eigvalsh(A)).max()) * np.eye(3)  # PD
            B = random_hermitian(3, rng)
            th = 0.8
            At, Bt = rotate_pair(A, B, th)
            lam = sla.eig(At, Bt, right=False)
            scale = np.linalg.norm(A, 2) ** 3
            for l in lam:
                if not np.isfinite(l):
                    continue
                u, v = eigenpair_backmap(l, 1.0, th)
                res = abs(np.linalg.det(v * A - u * B))
                assert res <= 1e-7 * scale * max(1.0, abs(l)) ** 3


class TestHyperbolic:
    def test_scalar_hyperbolic(self):
        hyp, _ = is_hyperbolic(np.eye(1), np.array([[3.0]]),
                               np.array([[1.0]]))
        assert hyp  # 9 > 4

    def test_scalar_not_hyperbolic(self):
        hyp, _ = is_hyperbolic(np.eye(1), np.array([[1.0]]),
                               np.array([[1.0]]))
        assert not hyp  # 1 < 4

    def test_mass_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteMass):
            is_hyperbolic(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))

    def test_mass_spring4_is_hyperbolic(self):
        hyp, wit = is_hyperbolic(*gallery.qep_mass_spring4())
        assert hyp
        assert wit.f_star < 0


class TestSaddleShift:
    def test_two_by_two_definite(self):
        S = np.diag([2.0, -1.0])
        out = saddle_shift(S, 1, 1, method="support")
        assert out is not None
        mu, lam_min = out
        assert 1.0 < mu < 2.0
        assert lam_min > 0
        np.testing.assert_allclose(
            np.linalg.eigvalsh(S - mu * np.diag([1.0, -1.0]))[0], lam_min)

    def test_two_by_two_identity(self):
        out = saddle_shift(np.diag([1.0, 1.0]), 1, 1, method="support")
        assert out is not None
        mu, lam_min = out
        assert -1.0 < mu < 1.0
        assert lam_min > 0

    def test_indefinite_pair_returns_none(self):
        # S = J makes S*cos + J*sin ... the pair (J, J) has 0 in the range
        S = np.diag([1.0, -1.0])
        S[0, 0] = 1.0
        out = saddle_shift(np.diag([1.0, -3.0]) * 0.0, 1, 1,
                           method="support")
        assert out is None  # zero matrix pair with J is indefinite

    def test_synthetic_instance(self):
        S, J = gallery.synthetic_saddle(20, 8, seed=3)
        out = saddle_shift(S, 20, 8, method="support")
        assert out is not None
        mu, lam_min = out
        M = S - mu * J
        assert np.linalg.eigvalsh(M)[0] > 0
        assert lam_min == pytest.approx(np.linalg.eigvalsh(M)[0], rel=1e-10)

    def test_unconverged_solve_raises(self):
        S, _ = gallery.synthetic_saddle(100, 40, seed=0)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            saddle_shift(S, 100, 40, max_iter=2)

    @pytest.mark.parametrize("method", ["support", "levelset"])
    def test_no_constraint_block_reaches_the_degenerate_angle(self, method):
        # m = 0 makes J = I: S*cos + J*sin is least at 3*pi/2, where it is
        # -I, so the boundary angle is pi/2 and the shift formula's
        # mu = cot(0) is infinite, though any mu < lambda_min(S) would do
        with pytest.raises(VerificationFailure,
                           match="degenerate boundary angle"):
            saddle_shift(np.diag([1.0, -1.0]), 2, 0, method=method)

    def test_shift_decided_by_the_pd_test_alone(self, monkeypatch):
        # eigvalsh reads lambda_min > 0 here; a failed PD test still rejects
        import inropt.definite as definite
        monkeypatch.setattr(definite, "is_pd", lambda M: False)
        with pytest.raises(VerificationFailure):
            saddle_shift(np.diag([2.0, -1.0]), 1, 1, method="support")
