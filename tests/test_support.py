import math

import numpy as np
import pytest

from inropt import gallery
from inropt.errors import InvalidGamma
from inropt.kernels import HermitianOperator
from inropt.param import ParamHermitian, Term, default_gamma_trig
from inropt.results import Status
from inropt.support import (DUPLICATE_REL, PERTURB_REL, PiecewiseModel,
                            SupportPoint, _segment_min, eigopt_minimize,
                            eigopt_minimize_callback)

from oracles import fit_order, grid_min_trig, lam_max_trig, random_trig_pair

THETA_STAR_TRIDIAG = 3.665191429188092


def tridiag_family():
    A, B = gallery.hermitian_split(gallery.tridiag_nonsmooth(10))
    return ParamHermitian.trig(A, B)


class TestTwoSupportIntersection:
    """The minimum of the max of two supports over one gap of the model."""

    def test_hand_computed_crossing(self):
        # symmetric configuration: crossing at 0.5 where
        # q1(0.5) = 0 - 0.5 + (-2/2)(0.25) = -0.75
        s1 = SupportPoint(0.0, 0.0, -1.0, -2.0)
        s2 = SupportPoint(1.0, 0.0, +1.0, -2.0)
        w, v = _segment_min(s1, s2, 0.0, 1.0)
        assert w == pytest.approx(0.5, abs=1e-14)
        assert v == pytest.approx(-0.75, abs=1e-14)

    def test_symmetric_zero_slopes(self):
        s1 = SupportPoint(0.0, 1.0, 0.0, -1.0)
        s2 = SupportPoint(1.0, 1.0, 0.0, -1.0)
        w, _ = _segment_min(s1, s2, 0.0, 1.0)
        assert w == pytest.approx(0.5, abs=1e-14)

    def test_crossing_outside_returns_endpoint(self):
        # both quadratics decrease left to right on [0, 0.2]; the max is
        # minimized at the right endpoint
        s1 = SupportPoint(0.0, 0.0, -1.0, -2.0)
        s2 = SupportPoint(1.0, 0.0, +1.0, -2.0)
        w, v = _segment_min(s1, s2, 0.0, 0.2)
        assert w == pytest.approx(0.2)
        assert v == pytest.approx(max(s1.q(0.2), s2.q(0.2)))

    def test_identical_quadratics_degenerate(self):
        # the parabola (g/2) w^2 expressed about two different abscissae
        g = -2.0
        s1 = SupportPoint(-1.0, 0.5 * g, -g, g)
        s2 = SupportPoint(1.0, 0.5 * g, g, g)
        # the concave model is least at an endpoint (the left one on a tie)
        assert _segment_min(s1, s2, -1.0, 1.0) == (-1.0, -1.0)


class TestSinusoidSupports:
    """Supports value cos(w - omega) + slope sin(w - omega) (gamma=None)."""

    def test_segment_min_matches_a_grid(self):
        # gaps up to the whole circle hold several troughs and crossings
        rng = np.random.default_rng(19)
        for width in (0.3, 1.0, 3.0, 4.0, 2.0 * np.pi):
            for _ in range(20):
                lo = float(rng.uniform(0.0, 2.0 * np.pi - width))
                hi = lo + width
                s1, s2 = (SupportPoint(float(w), *rng.standard_normal(2),
                                       None) for w in (lo, hi))
                w, v = _segment_min(s1, s2, lo, hi)
                grid = np.linspace(lo, hi, 20001)
                model = np.maximum(s1.q(grid), s2.q(grid))
                assert lo <= w <= hi
                assert v == pytest.approx(max(s1.q(w), s2.q(w)), abs=1e-14)
                # no grid point lies below the attained value v
                assert v <= model.min() + 1e-14

    def test_rayleigh_quotient_identity(self):
        # value and slope of any unit u give the sinusoid u^* H(w) u
        rng = np.random.default_rng(4)
        A, B = random_trig_pair(6, rng)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        u /= np.linalg.norm(u)
        a, b = np.real(u.conj() @ A @ u), np.real(u.conj() @ B @ u)
        w0 = 1.1
        s = SupportPoint(w0, a * math.cos(w0) + b * math.sin(w0),
                         -a * math.sin(w0) + b * math.cos(w0), None)
        grid = np.linspace(0.0, 2.0 * np.pi, 101)
        np.testing.assert_allclose(s.q(grid), a * np.cos(grid)
                                   + b * np.sin(grid), atol=1e-14)
        assert np.all(s.q(grid) <= lam_max_trig(A, B, grid) + 1e-14)

    @pytest.mark.parametrize("method", ["support", "subspace"])
    def test_no_full_range_eigensolve(self, monkeypatch, method):
        # the quadratic supports' curvature bound took two values-only
        # solves of all n eigenvalues per solve; sinusoids need none
        import sys
        from inropt import kernels
        from inropt.subspace import subspace_minimize
        dense_eigh, calls = kernels._dense_eigh, []

        def recording(M, k, vectors):
            calls.append((M.shape[0], k))
            return dense_eigh(M, k, vectors)

        def forbidden(*args):
            raise AssertionError("default_gamma_trig called")

        monkeypatch.setattr(kernels, "_dense_eigh", recording)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("inropt")
                    and hasattr(mod, "default_gamma_trig")):
                monkeypatch.setattr(mod, "default_gamma_trig", forbidden)
        n = 300
        P = ParamHermitian.trig(*gallery.grcar_pair(n))
        if method == "support":
            res = eigopt_minimize(P)
        else:
            res, _ = subspace_minimize(P)
        assert res.status is Status.CONVERGED
        assert any(dim == n for dim, _ in calls)
        assert not [k for dim, k in calls if dim == n and k >= n]


class TestPiecewiseModel:
    def test_exact_global_minimization(self):
        # against a dense grid, after every insertion; the extra inputs put
        # supports exactly on the domain ends and on a one-point domain
        f = lambda w: math.cos(w) + 0.3 * math.sin(2 * w)
        df = lambda w: -math.sin(w) + 0.6 * math.cos(2 * w)
        two_pi = 2.0 * np.pi
        rng = np.random.default_rng(8)
        inner = list(rng.uniform(0.0, two_pi, size=12))
        cases = [((0.0, two_pi), inner),
                 ((0.0, two_pi), [0.0, two_pi] + inner),
                 ((0.0, two_pi), [two_pi] + inner[:4] + [0.0]),
                 ((1.0, 1.0), [1.0])]
        gamma = -3.0
        for (a, b), points in cases:
            model = PiecewiseModel((a, b))
            grid = np.linspace(a, b, 10001)
            for w in points:
                model.insert(SupportPoint(float(w), f(w), df(w), gamma))
                om, val = model.peek_min()
                assert a <= om <= b
                assert val <= model(grid).min() + 1e-12
                assert model(np.array([om]))[0] == pytest.approx(val,
                                                                 abs=1e-10)

    def test_near_duplicate_insert_raises(self):
        gamma = -1.0
        for a, b in ((0.0, 2.0 * np.pi), (0.0, 1e-3)):
            model = PiecewiseModel((a, b))
            w = 0.5 * (a + b)
            model.insert(SupportPoint(w, 0.0, 0.0, gamma))
            for dup in (w, w + 1e-15, w - 1e-15):
                assert model.near(dup)
                with pytest.raises(ValueError, match="duplicate"):
                    model.insert(SupportPoint(dup, 0.0, 0.0, gamma))
            assert len(model.supports) == 1

    @pytest.mark.parametrize("order", [(3.0, 1.0), (1.0, 3.0)])
    def test_equal_minima_go_to_the_leftmost_segment(self, order):
        # q1 = -(w-1)^2 and q3 = -(w-3)^2 on [0, 4]: the segments [0, 1],
        # [1, 3] and [3, 4] are all least at -1 (at 0, 2 and 4), exactly;
        # inserting 3 first makes [3, 4] the oldest of the three
        model = PiecewiseModel((0.0, 4.0))
        for w in order:
            model.insert(SupportPoint(w, 0.0, 0.0, -2.0))
        assert model.peek_min() == (0.0, -1.0)

    def test_support_outside_the_domain_rejected(self):
        model = PiecewiseModel((0.0, 1.0))
        with pytest.raises(ValueError, match="outside the domain"):
            model.insert(SupportPoint(1.5, 0.0, 0.0, -2.0))
        assert model.supports == []

    def test_empty_model_has_no_minimum(self):
        with pytest.raises(RuntimeError, match="no segments"):
            PiecewiseModel((0.0, 1.0)).peek_min()

    def test_lower_bound_is_valid(self):
        gamma = -3.0
        model = PiecewiseModel((0.0, 2.0 * np.pi))
        f = lambda w: math.cos(w)
        for w in (0.1, 2.0, 4.0, 6.0):
            model.insert(SupportPoint(w, f(w), -math.sin(w), gamma))
        _, val = model.peek_min()
        assert val <= -1.0 + 1e-12


class TestCallbackSolver:
    def test_cosine(self):
        res = eigopt_minimize_callback(
            lambda w: (math.cos(w), -math.sin(w)), (0.0, 2.0 * np.pi),
            gamma=-1.0, tol=1e-10)
        assert res.status is Status.CONVERGED
        assert res.omega_star == pytest.approx(np.pi, abs=1e-4)
        assert res.f_star == pytest.approx(-1.0, abs=1e-10)

    def test_absolute_value_kink(self):
        res = eigopt_minimize_callback(
            lambda w: (abs(w), 1.0 if w >= 0 else -1.0), (-1.0, 1.0),
            gamma=-0.5, tol=1e-10)
        assert res.omega_star == pytest.approx(0.0, abs=1e-12)
        assert res.f_star == pytest.approx(0.0, abs=1e-12)

    def test_shifted_parabola(self):
        res = eigopt_minimize_callback(
            lambda w: ((w - 0.3) ** 2, 2 * (w - 0.3)), (0.0, 1.0),
            gamma=-1.0, tol=1e-12)
        assert res.omega_star == pytest.approx(0.3, abs=1e-6)

    def test_matches_matrix_solver(self):
        A, B = gallery.fiedler(6), gallery.moler(6)
        P = ParamHermitian.trig(A, B)
        direct = eigopt_minimize(P, tol=1e-13)

        def fs(w):
            H = A * math.cos(w) + B * math.sin(w)
            vals, vecs = np.linalg.eigh(H)
            v = vecs[:, -1]
            Hp = -A * math.sin(w) + B * math.cos(w)
            return vals[-1], float(np.real(v.conj() @ Hp @ v))

        gamma = -(np.linalg.norm(A, 2) + np.linalg.norm(B, 2))
        cb = eigopt_minimize_callback(fs, (0.0, 2.0 * np.pi), gamma,
                                      tol=1e-13)
        assert cb.f_star == pytest.approx(direct.f_star, abs=1e-10)

    def test_positive_gamma_rejected(self):
        with pytest.raises(InvalidGamma):
            eigopt_minimize_callback(lambda w: (w, 1.0), (0.0, 1.0),
                                     gamma=0.5)

    def test_missing_gamma_rejected(self):
        with pytest.raises(InvalidGamma):
            eigopt_minimize_callback(lambda w: (w, 1.0), (0.0, 1.0),
                                     gamma=None)

    def test_narrow_domain_duplicate_ends_on_collision(self):
        # On a domain narrower than 1 a near-duplicate iterate used to pass
        # the guard and then make the model insert raise.
        res = eigopt_minimize_callback(
            lambda w: (abs(w - 3e-4), math.copysign(1.0, w - 3e-4)),
            (0.0, 1e-3), -1.0, tol=0.0)
        assert res.status is Status.MAX_ITERATIONS
        assert res.note == "iterate collision at float resolution"
        assert res.iterations == len(res.trace) == 7
        assert res.lower_bound <= res.f_star <= 1e-16
        assert res.omega_star == pytest.approx(3e-4, abs=1e-16)

    def test_narrow_domain_duplicate_gets_nudged_evaluation(self):
        # The nudge step scales like the duplicate tolerance, so on a domain
        # narrower than 1 it still clears it and the duplicate is evaluated
        # at the nudged point instead of ending the run.
        points = []

        def f(w):
            points.append(w)
            return abs(w - 3e-4), math.copysign(1.0, w - 3e-4)

        eigopt_minimize_callback(f, (0.0, 1e-3), -1.0, tol=0.0)
        steps = [min(abs(w - x) for x in points[:i])
                 for i, w in enumerate(points) if i]
        assert any(s == pytest.approx(PERTURB_REL, rel=1e-3) for s in steps)
        assert min(steps) > DUPLICATE_REL

    def test_zero_gamma_substituted(self):
        res = eigopt_minimize_callback(
            lambda w: ((w - 0.4) ** 2, 2 * (w - 0.4)), (0.0, 1.0),
            gamma=0.0, tol=1e-10)
        assert res.status is Status.CONVERGED
        assert res.f_star == pytest.approx(0.0, abs=1e-8)


BAD_OPTIONS = [{"tol": np.nan}, {"tol": -1.0}, {"tol": np.inf},
               {"max_iter": -1}]
BAD_CLUSTER = [{"eps_cluster": np.nan}, {"eps_cluster": -1.0}]


def option_id(opts):
    return "-".join(f"{k}={v}" for k, v in opts.items())


class TestSolverOptions:
    # Checked before any evaluation: a NaN tol ran 34 evaluations into an
    # iterate collision, a callback with a NaN tol 115.
    @pytest.mark.parametrize("opts", BAD_OPTIONS + BAD_CLUSTER, ids=option_id)
    def test_bad_option_raises(self, opts):
        P = ParamHermitian.trig(*gallery.cheng_higham7())
        with pytest.raises(ValueError, match=f"^{next(iter(opts))} must be"):
            eigopt_minimize(P, **opts)

    def test_start_outside_the_domain_raises(self):
        def f(w):
            raise AssertionError("evaluated outside the domain")

        with pytest.raises(ValueError, match="omega0 outside the domain"):
            eigopt_minimize_callback(f, (0.0, 1.0), gamma=-1.0, omega0=1.5)

    @pytest.mark.parametrize("opts", BAD_OPTIONS, ids=option_id)
    def test_bad_callback_option_raises(self, opts):
        def f(w):
            raise AssertionError("evaluated with a bad option")

        with pytest.raises(ValueError, match=f"^{next(iter(opts))} must be"):
            eigopt_minimize_callback(f, (0.0, 2.0 * np.pi), gamma=-1.0,
                                     **opts)


class TestEigoptMinimize:
    def test_scalar_cosine_family(self):
        P = ParamHermitian.trig(np.eye(1), np.zeros((1, 1)))
        res = eigopt_minimize(P, gamma=-1.0, tol=1e-10)
        assert res.omega_star == pytest.approx(np.pi, abs=1e-4)
        assert res.f_star == pytest.approx(-1.0, abs=1e-10)

    def test_tridiag_nonsmooth_minimizer(self):
        res = eigopt_minimize(tridiag_family(), tol=1e-12)
        assert res.status is Status.CONVERGED
        assert abs(res.f_star - (-1.0)) <= 1e-12
        assert res.omega_star == pytest.approx(THETA_STAR_TRIDIAG, abs=1e-9)
        assert res.clarke.contains_zero_strictly

    def test_tridiag_lower_bound_trace_contracts_fast(self):
        res = eigopt_minimize(tridiag_family(), tol=1e-12)
        errors = [-1.0 - ell for _, _, _, ell in res.trace
                  if np.isfinite(ell)]
        # alternating-side refinement: two-step contraction is quadratic
        assert fit_order(errors, stride=2, floor=1e-14, last=4) >= 1.5

    def test_cheng_higham_value(self):
        A, B = gallery.cheng_higham7()
        res = eigopt_minimize(ParamHermitian.trig(A, B), tol=1e-12)
        assert res.f_star == pytest.approx(0.8118872239262367, abs=1e-9)

    def test_gamma_required_for_general_family(self):
        from inropt.kernels import HermitianOperator
        from inropt.param import Term
        t = Term(lambda w: w, lambda w: 1.0,
                 HermitianOperator(np.diag([1.0, -1.0])))
        P = ParamHermitian([t], (-1.0, 1.0))
        with pytest.raises(InvalidGamma):
            eigopt_minimize(P)
        res = eigopt_minimize(P, gamma=-1e-6, tol=1e-10)
        assert res.f_star == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("domain", [(-1.0, 2.0), (-3.0, 1.0)])
    def test_coinciding_supports_keep_the_bound(self, domain):
        # f(w) = -w^2/2 has curvature exactly gamma, so every support is f
        # itself; a segment between two of them is least at an endpoint,
        # not at its midpoint.
        t = Term(lambda w: -0.5 * w * w, lambda w: -w,
                 HermitianOperator(np.eye(1)))
        res = eigopt_minimize(ParamHermitian([t], domain), gamma=-1.0)
        assert res.status is Status.CONVERGED
        assert res.f_star == -0.5 * max(abs(x) for x in domain) ** 2
        assert res.lower_bound <= res.f_star

    def test_zero_pair_converges_on_the_seeds(self):
        # gamma = 0: affine supports bound the constant zero function
        Z = np.zeros((3, 3))
        res = eigopt_minimize(ParamHermitian.trig(Z, Z))
        assert res.status is Status.CONVERGED
        assert res.iterations <= 10
        assert res.lower_bound <= res.f_star == 0.0

    @pytest.mark.parametrize("tol", [1e-12, 0.0])
    def test_clarke_reuses_the_best_evaluation(self, monkeypatch, tol):
        # tol=0 on the tridiagonal kink ends on the iterate-collision path
        # with quadratic supports; sinusoid supports close the kink exactly
        # (test_sinusoids_close_the_kink_exactly)
        import inropt.support as support
        from inropt.param import clarke_interval, top_cluster
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return top_cluster(*args, **kwargs)

        monkeypatch.setattr(support, "top_cluster", counting)
        P = tridiag_family()
        gamma = (default_gamma_trig(P.terms[0].matrix, P.terms[1].matrix)
                 if tol == 0.0 else None)
        res = eigopt_minimize(P, gamma=gamma, tol=tol)
        assert len(calls) == res.iterations
        assert res.omega_star in calls
        assert res.clarke == clarke_interval(P, res.omega_star)
        if tol == 0.0:
            assert res.note == "iterate collision at float resolution"

    def test_sinusoids_close_the_kink_exactly(self):
        # at tol=0 the sinusoid model's bound meets the best value at the
        # tridiagonal kink, where quadratic supports end on a collision
        res = eigopt_minimize(tridiag_family(), tol=0.0)
        assert res.status is Status.CONVERGED and res.note == ""
        assert res.lower_bound == res.f_star == pytest.approx(-1.0, abs=1e-14)
        assert res.omega_star == pytest.approx(THETA_STAR_TRIDIAG, abs=1e-12)
        assert res.clarke.contains_zero_strictly


class TestCertificates:
    def test_lower_support_property(self):
        # every constructed support stays below the eigenvalue function
        rng = np.random.default_rng(100)
        from inropt.param import support_slope
        for _ in range(20):
            A, B = random_trig_pair(5, rng)
            P = ParamHermitian.trig(A, B)
            gamma = -(np.linalg.norm(A, 2) + np.linalg.norm(B, 2))
            scale = max(1.0, -gamma)
            ws = rng.uniform(0.0, 2.0 * np.pi, size=6)
            supports = []
            for w in ws:
                val, slope, _ = support_slope(P, float(w))
                supports.append(SupportPoint(float(w), val, slope, gamma))
            omegas = rng.uniform(0.0, 2.0 * np.pi, size=200)
            fvals = lam_max_trig(A, B, omegas)
            for s in supports:
                assert np.all(s.q(omegas) <= fvals + 1e-10 * scale)

    def test_sandwich_and_monotone_bounds(self):
        rng = np.random.default_rng(55)
        A, B = random_trig_pair(5, rng)
        P = ParamHermitian.trig(A, B)
        res = eigopt_minimize(P, tol=1e-12)
        _, fmin = grid_min_trig(A, B, npts=20001)
        ells = [ell for _, _, _, ell in res.trace if np.isfinite(ell)]
        vals = [val for _, _, val, _ in res.trace]
        assert all(e1 <= e2 + 1e-12 for e1, e2 in zip(ells, ells[1:]))
        running_u = np.minimum.accumulate(vals)
        assert all(u1 >= u2 - 1e-15 for u1, u2 in zip(running_u,
                                                      running_u[1:]))
        scale = max(1.0, abs(fmin))
        assert res.lower_bound <= fmin + 1e-10 * scale
        assert res.f_star >= fmin - 1e-12 * scale

    def test_oracle_equivalence_random_families(self):
        # grid search with golden refinement as the independent oracle
        rng = np.random.default_rng(77)
        for _ in range(20):
            A, B = random_trig_pair(5, rng)
            P = ParamHermitian.trig(A, B)
            res = eigopt_minimize(P, tol=1e-12)
            _, fmin = grid_min_trig(A, B)
            assert abs(res.f_star - fmin) <= 1e-6
