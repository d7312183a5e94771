import numpy as np
import pytest

from inropt import gallery
from inropt.param import ParamHermitian
from inropt.results import Status
from inropt.results import TOL_DEFAULT
from inropt.subspace import (DEFAULT_START, NOISE_REL, subspace_minimize,
                              verify_interpolation)
from inropt.support import eigopt_minimize

from oracles import lam_max_trig, random_trig_pair


def cheng_higham_family():
    A, B = gallery.cheng_higham7()
    return ParamHermitian.trig(A, B), A, B


class TestSubspaceMinimize:
    @pytest.mark.parametrize("opts", [
        {"tol": np.nan}, {"tol": -1.0}, {"tol": np.inf}, {"max_iter": -1},
        {"eps_cluster": np.nan}, {"eps_cluster": -1.0}],
        ids=lambda opts: "-".join(f"{k}={v}" for k, v in opts.items()))
    def test_bad_option_raises(self, opts):
        # a negative tol or a NaN eps_cluster reported Converged
        P, _, _ = cheng_higham_family()
        with pytest.raises(ValueError, match=f"^{next(iter(opts))} must be"):
            subspace_minimize(P, **opts)

    @pytest.mark.parametrize("omega1", [np.nan, np.inf, -np.inf, -0.1,
                                        7.0])
    def test_bad_start_raises_before_any_evaluation(self, omega1,
                                                    monkeypatch):
        # a NaN start reached LAPACK, which failed to converge on it
        import inropt.subspace as subspace

        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluated before the check")

        monkeypatch.setattr(subspace, "top_cluster", no_evaluation)
        P, _, _ = cheng_higham_family()
        with pytest.raises(ValueError, match="omega1 outside the domain"):
            subspace_minimize(P, omega1=omega1)

    def test_matches_dense_solver_on_cheng_higham(self):
        P, _, _ = cheng_higham_family()
        res, _ = subspace_minimize(P, omega1=0.45)
        ref = eigopt_minimize(P, tol=1e-13)
        assert res.f_star == pytest.approx(ref.f_star, abs=1e-9)
        assert res.status is Status.CONVERGED

    def test_reduced_minima_monotone_and_below_full(self):
        P, A, B = cheng_higham_family()
        res, state = subspace_minimize(P, omega1=1.0)
        mins = [v for _, _, _, v in state.trace]
        assert all(m1 <= m2 + 1e-10 for m1, m2 in zip(mins, mins[1:]))
        # reduced global minima never exceed the true minimum (plus slack)
        f_star = eigopt_minimize(P, tol=1e-13).f_star
        scale = max(1.0, abs(f_star))
        assert all(m <= f_star + 1e-8 * scale for m in mins)

    def test_sandwich_full_above_reduced(self):
        P, A, B = cheng_higham_family()
        res, state = subspace_minimize(P, omega1=2.0)
        f_star = res.f_star
        for _, _, om, red in state.trace:
            full = float(lam_max_trig(A, B, [om])[0])
            assert full >= f_star - 1e-10
            assert red <= f_star + 1e-8

    def test_interpolation_at_first_iterate(self):
        P, A, B = cheng_higham_family()
        _, state = subspace_minimize(P, omega1=0.7)
        scale = np.linalg.norm(A, 2) + np.linalg.norm(B, 2)
        assert verify_interpolation(state, P, 1) <= 1e-8 * scale

    def test_interpolation_all_iterates(self):
        rng = np.random.default_rng(10)
        A, B = random_trig_pair(12, rng)
        P = ParamHermitian.trig(A, B)
        _, state = subspace_minimize(P, omega1=1.3)
        scale = max(1.0, np.linalg.norm(A, 2) + np.linalg.norm(B, 2))
        for k in range(1, len(state.trace) + 1):
            assert verify_interpolation(state, P, k) <= 1e-6 * scale

    def test_full_basis_saturation_machine_level(self):
        rng = np.random.default_rng(6)
        A, B = random_trig_pair(3, rng)
        P = ParamHermitian.trig(A, B)
        res, state = subspace_minimize(P, omega1=0.5, eps_cluster=10.0)
        # with eps_cluster huge the first expansion saturates C^3
        assert state.basis.size == 3
        assert verify_interpolation(state, P, 1) <= 1e-10
        ref = eigopt_minimize(P, tol=1e-13)
        assert res.f_star == pytest.approx(ref.f_star, abs=1e-10)

    def test_basis_growth_matches_cluster_sizes(self):
        P, _, _ = cheng_higham_family()
        _, state = subspace_minimize(P, omega1=0.45)
        assert all(1 <= c <= 10 for c in state.cluster_sizes)
        assert state.basis.size <= sum(state.cluster_sizes)

    def test_default_start_is_reproducible(self):
        P, _, _ = cheng_higham_family()
        r1, s1 = subspace_minimize(P)
        r2, s2 = subspace_minimize(P)
        r3, s3 = subspace_minimize(P, omega1=DEFAULT_START * 2.0 * np.pi)
        assert r1.omega_star == r2.omega_star == r3.omega_star
        assert ([t[2] for t in s1.trace] == [t[2] for t in s2.trace]
                == [t[2] for t in s3.trace])

    def test_nonsmooth_minimizer_cluster_expansion(self):
        A, B = gallery.hermitian_split(gallery.tridiag_nonsmooth(10))
        P = ParamHermitian.trig(A, B)
        res, state = subspace_minimize(P, omega1=1.0)
        assert res.f_star == pytest.approx(-1.0, abs=1e-9)
        assert res.clarke.contains_zero_strictly
        # the multiplicity-2 kink must have contributed 2-vector clusters
        assert max(state.cluster_sizes) >= 2

    def test_nonsmooth_quadratic_omega_rate(self):
        from oracles import fit_order
        A, B = gallery.hermitian_split(gallery.tridiag_nonsmooth(10))
        P = ParamHermitian.trig(A, B)
        theta_star = 7.0 * np.pi / 6.0
        _, state = subspace_minimize(P, omega1=1.0)
        errors = [abs(om - theta_star) for _, _, om, _ in state.trace]
        assert fit_order(errors, floor=1e-13, last=3) >= 1.5

    def test_lower_bound_is_certified(self):
        # The reduced solve's own minimum sits above the full minimum by
        # projection rounding; only its certified bound, less that rounding,
        # bounds the full problem from below.
        rng = np.random.default_rng(2024)
        pairs = [random_trig_pair(3 + (i * 26) // 29, rng) for i in range(30)]
        pairs.append(gallery.hermitian_split(gallery.tridiag_nonsmooth(10)))
        pairs.append(gallery.cheng_higham7())
        bad = []
        for i, (A, B) in enumerate(pairs):
            P = ParamHermitian.trig(A, B)
            res, _ = subspace_minimize(P, omega1=0.3)
            ref = eigopt_minimize(P, tol=1e-14).f_star
            if not (res.lower_bound <= res.f_star and res.lower_bound <= ref):
                bad.append((i, res.lower_bound - min(res.f_star, ref)))
        assert not bad

    def test_stagnation_stops_with_the_gap(self, monkeypatch):
        # a basis that accepts no new direction after the first one ends
        # the run early, reporting the uncertified full/reduced gap
        import inropt.subspace as subspace
        extend, calls = subspace.orthonormal_extend, []

        def extend_once(V, W):
            calls.append(1)
            return extend(V, W) if len(calls) == 1 else V

        monkeypatch.setattr(subspace, "orthonormal_extend", extend_once)
        P, _, _ = cheng_higham_family()
        res, _ = subspace_minimize(P, omega1=0.45)
        # the first basis, then the one expansion that stagnated
        assert len(calls) == 2 and res.iterations == 1
        assert res.status is Status.MAX_ITERATIONS
        assert "stagnation" in res.note
        assert "full/reduced gap" in res.note
        assert res.lower_bound <= res.f_star


class TestStoppingScale:
    """One scale s per solve: the floor, the margin, the reduced solves'
    tol and the stop all read it, and nothing is relative to max(1, |f|)."""

    def test_scaled_pairs_converge_within_the_floor(self):
        # Scaled by 300, the floor scaled by the family twice; with only
        # the margin and the stop mended, all 20 pairs stagnated.  The
        # stopping scale s is at most ||A||_2 + ||B||_2.
        rng = np.random.default_rng(7)
        for i in range(20):
            A, B = random_trig_pair(int(rng.integers(4, 30)), rng)
            A, B = 300.0 * A, 300.0 * B
            s = np.linalg.norm(A, 2) + np.linalg.norm(B, 2)
            res, _ = subspace_minimize(ParamHermitian.trig(A, B), omega1=0.3)
            assert res.status is Status.CONVERGED, (i, res.note)
            assert res.f_star - res.lower_bound \
                <= TOL_DEFAULT * s + 3.0 * NOISE_REL * s, i

    def test_no_eigensolve_of_the_reduced_terms(self, monkeypatch):
        # the scale comes from the reduced solves' own evaluations
        import inropt.subspace as subspace
        eigvals, calls = subspace.hermitian_eigvals, []

        def counting(M):
            calls.append(M)
            return eigvals(M)

        monkeypatch.setattr(subspace, "hermitian_eigvals", counting)
        P, _, _ = cheng_higham_family()
        res, _ = subspace_minimize(P)
        assert res.converged and res.iterations > 1
        assert calls == []
