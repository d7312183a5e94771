import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inropt import gallery
from inropt.errors import EmptyLevelSet, NonHermitianInput
from inropt.kernels import HermitianOperator
from inropt.levelset import level_intervals, levelset_minimize
from inropt.param import ParamHermitian
from inropt.results import Status
from inropt.support import eigopt_minimize

from oracles import (crossing_pair, fit_order, lam_max_trig,
                     pencil_unit_angles_qz, random_hermitian, random_trig_pair,
                     sublevel_arcs_eigvalsh)

TWO_PI = 2.0 * np.pi


def f_of(C):
    A, B = gallery.hermitian_split(C)
    return lambda ths: lam_max_trig(A, B, ths)


class TestLevelIntervals:
    def test_scalar_negative_half_circle(self):
        iv = level_intervals(np.array([[1.0]]), 0.0)
        assert len(iv) == 1
        assert iv[0].lo == pytest.approx(np.pi / 2, abs=1e-8)
        assert iv[0].hi == pytest.approx(3 * np.pi / 2, abs=1e-8)
        assert iv[0].midpoint == pytest.approx(np.pi, abs=1e-8)

    def test_level_above_max_is_empty(self):
        with pytest.raises(EmptyLevelSet):
            level_intervals(np.array([[1.0]]), 2.0)

    def test_level_below_min_is_empty(self):
        with pytest.raises(EmptyLevelSet):
            level_intervals(np.array([[1.0]]), -2.0)

    def test_matches_grid_classification(self):
        rng = np.random.default_rng(31)
        C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        f = f_of(C)
        alpha = float(f([0.0])[0])
        intervals = level_intervals(C, alpha)
        ths = np.linspace(0.0, TWO_PI, 10000, endpoint=False)
        below = f(ths) < alpha

        def inside(t):
            for iv in intervals:
                if iv.wraps:
                    if t > iv.lo or t < iv.hi:
                        return True
                elif iv.lo < t < iv.hi:
                    return True
            return False

        margin = 2e-3  # skip points hugging an interval endpoint
        for t, b in zip(ths, below):
            ends = [e for iv in intervals for e in (iv.lo, iv.hi)]
            if min(abs((t - e + np.pi) % TWO_PI - np.pi) for e in ends) < margin:
                continue
            assert inside(t) == b


    @pytest.mark.parametrize("case", ["random", "tridiag"])
    def test_matches_eigvalsh_classification(self, case):
        rng = np.random.default_rng(37)
        if case == "random":
            Cs = [rng.standard_normal((n, n))
                  + 1j * rng.standard_normal((n, n)) for n in (3, 5, 8, 12)]
        else:
            Cs = [gallery.tridiag_nonsmooth(10)]
        for C in Cs:
            A, B = gallery.hermitian_split(C)
            f = f_of(C)
            tol = 1e-7 * max(1.0, np.linalg.norm(C, 2))
            grid = f(np.linspace(0.0, TWO_PI, 2001))
            fmin, fmax = float(grid.min()), float(grid.max())
            alphas = [float(f([t])[0]) for t in rng.uniform(0, TWO_PI, 4)]
            alphas += [fmin + 1e-3 * (fmax - fmin), fmax + 1.0]
            for alpha in alphas:
                ref = sublevel_arcs_eigvalsh(
                    A, B, alpha, pencil_unit_angles_qz(C, alpha), tol)
                if not ref:
                    with pytest.raises(EmptyLevelSet):
                        level_intervals(C, alpha)
                    continue
                got = [(iv.lo, iv.hi) for iv in level_intervals(C, alpha)]
                assert len(got) == len(ref)
                np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_non_finite_input_is_rejected(self):
        C = np.array([[1.0, np.nan], [0.0, 2.0]])
        with pytest.raises(NonHermitianInput, match="non-finite"):
            level_intervals(C, 1.5)

    def test_spurious_candidates_leave_the_level_set(self, monkeypatch):
        # angles that are not crossings only split a gap into halves of the
        # same sign: they do not change the level set, and below the
        # certified minimum they do not make one appear
        import inropt.levelset as levelset
        rng = np.random.default_rng(43)
        C = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        alpha = float(f_of(C)([0.0])[0])
        clean = level_intervals(C, alpha)
        bogus = [clean[0].midpoint, (clean[0].hi + 1e-3) % TWO_PI]
        pencil = levelset.pencil_unit_eigs
        monkeypatch.setattr(levelset, "pencil_unit_eigs",
                            lambda C, a, norm_c=None: np.sort(
                                np.r_[pencil(C, a, norm_c), bogus]))
        assert level_intervals(C, alpha) == clean
        lower = eigopt_minimize(ParamHermitian.trig(
            *gallery.hermitian_split(C))).lower_bound
        with pytest.raises(EmptyLevelSet):
            level_intervals(C, lower - 1e-6)

    def test_one_cholesky_trial_per_pencil_angle(self, monkeypatch):
        # every gap between consecutive pencil angles takes one midpoint
        # test, and nothing else does
        import inropt.levelset as levelset
        A, B = gallery.cheng_higham7()
        angles, trials = [], []
        pencil, below = levelset.pencil_unit_eigs, levelset._below

        def recording(*args):
            out = pencil(*args)
            angles.extend(out)
            return out

        def counting(H, level):
            trials.append(level)
            return below(H, level)

        monkeypatch.setattr(levelset, "pencil_unit_eigs", recording)
        monkeypatch.setattr(levelset, "_below", counting)
        alpha = float(np.linalg.eigvalsh(A)[-1])
        assert level_intervals(A + 1j * B, alpha)
        assert len(angles) >= 2
        assert trials == [alpha] * len(angles)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=40)
    @given(n=st.integers(2, 12), kind=st.sampled_from(
        ["random", "real", "crossing"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_eigvalsh_oracle(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "crossing":
            A, B = crossing_pair(n, rng)[:2]
        else:
            A, B = random_trig_pair(n, rng, real=kind == "real")
        C = A + 1j * B
        f = f_of(C)
        tol = 1e-7 * max(1.0, np.linalg.norm(C, 2))
        grid = f(np.linspace(0.0, TWO_PI, 2001))
        fmin, fmax = float(grid.min()), float(grid.max())
        alphas = [float(f([rng.uniform(0.0, TWO_PI)])[0]),
                  fmin + 1e-2 * (fmax - fmin), fmin + 1e-6 * (fmax - fmin)]
        for alpha in alphas:
            ref = sublevel_arcs_eigvalsh(
                A, B, alpha, pencil_unit_angles_qz(C, alpha), tol)
            if not ref:
                with pytest.raises(EmptyLevelSet):
                    level_intervals(C, alpha)
                continue
            got = [(iv.lo, iv.hi) for iv in level_intervals(C, alpha)]
            assert len(got) == len(ref)
            np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_below_takes_one_shifted_copy(self):
        # the Cholesky trial factors one copy of -H, shifted on its
        # diagonal, in place: no identity, no second n x n temporary
        import tracemalloc
        from inropt.levelset import _below
        P = ParamHermitian.trig(*gallery.grcar_pair(300))
        H = P.evaluate(1.0).dense
        top = np.linalg.eigvalsh(H)[-1]
        tracemalloc.start()
        try:
            below = _below(H, top + 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert below and not _below(H, top - 1e-6)
        assert peak <= 1.1 * H.nbytes


class TestLevelsetMinimize:
    def test_scalar_two_steps(self):
        res, trace = levelset_minimize(np.array([[1.0]]))
        assert trace.estimates[0] == pytest.approx(1.0)
        assert res.f_star == pytest.approx(-1.0, abs=1e-12)
        assert res.omega_star == pytest.approx(np.pi, abs=1e-8)
        assert res.status is Status.CONVERGED

    def test_cheng_higham_estimate_sequence(self):
        A, B = gallery.cheng_higham7()
        res, trace = levelset_minimize(A + 1j * B)
        table = {2: 0.8687683091642120, 3: 0.8119559545628993,
                 4: 0.8118872240421637, 5: 0.8118872239262381,
                 6: 0.8118872239262371}
        for k, expected in table.items():
            got = (trace.estimates[k - 1] if k <= len(trace.estimates)
                   else res.f_star)
            assert got == pytest.approx(expected, abs=1e-9), f"r({k})"

    def test_cheng_higham_quadratic_order(self):
        A, B = gallery.cheng_higham7()
        res, trace = levelset_minimize(A + 1j * B)
        errors = [r - res.f_star for r in trace.estimates]
        assert fit_order(errors, stride=1, floor=1e-14) >= 1.7

    def test_tridiag_linear_tail(self):
        C = gallery.tridiag_nonsmooth(10)
        res, trace = levelset_minimize(C)
        assert res.status is Status.CONVERGED
        assert res.f_star == pytest.approx(-1.0, abs=1e-10)
        errors = [r - (-1.0) for r in trace.estimates]
        order = fit_order(errors, stride=1, floor=1e-14, last=8)
        assert order < 1.3

    def test_estimates_strictly_decreasing(self):
        rng = np.random.default_rng(17)
        C = random_hermitian(5, rng) + 1j * random_hermitian(5, rng)
        _, trace = levelset_minimize(C)
        diffs = np.diff(trace.estimates)
        assert np.all(diffs < 0)

    def test_interval_soundness(self):
        rng = np.random.default_rng(23)
        C = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        f = f_of(C)
        scale = max(1.0, np.linalg.norm(C, 2))
        alpha = float(f([0.4])[0])
        for iv in level_intervals(C, alpha):
            ts = [(iv.lo + (iv.length * (j + 1)) / 21.0) % TWO_PI
                  for j in range(20)]
            assert np.all(f(np.array(ts)) < alpha)
            for e in (iv.lo, iv.hi):
                assert abs(float(f([e])[0]) - alpha) <= 10 * 1e-7 * scale

    def test_max_interval_length_halves(self):
        A, B = gallery.cheng_higham7()
        _, trace = levelset_minimize(A + 1j * B)
        for l1, l2 in zip(trace.max_lengths, trace.max_lengths[1:]):
            assert l2 <= 0.5 * l1 * (1 + 1e-8) + 1e-14

    def test_false_stop_is_not_converged(self, monkeypatch):
        # A pencil that misses every crossing after the first level step
        # makes the level set "vanish" far above the minimum 0.81189
        import inropt.levelset as levelset
        pencil, calls = levelset.pencil_unit_eigs, []

        def missing(*args):
            calls.append(1)
            return pencil(*args) if len(calls) == 1 else np.empty(0)

        monkeypatch.setattr(levelset, "pencil_unit_eigs", missing)
        A, B = gallery.cheng_higham7()
        res, _ = levelset_minimize(A + 1j * B)
        assert res.f_star > 0.82
        assert res.status is Status.MAX_ITERATIONS
        assert "not a minimum" in res.note

    def test_tie_of_the_whole_spectrum_is_a_minimum(self):
        # The rotated Fiedler family F cos(t) vanishes at pi/2, where all 30
        # eigenvalues tie at the minimum 0 and the derivative block is -F.
        # Only the whole cluster's interval holds 0; ten of its vectors
        # give a sub-interval that need not.
        F = gallery.fiedler(30)
        res, _ = levelset_minimize(F)
        assert res.f_star == pytest.approx(0.0, abs=1e-10)
        assert res.status is Status.CONVERGED, res.note
        w = np.linalg.eigvalsh(-F)
        assert res.clarke.lo == pytest.approx(w[0], rel=1e-10)
        assert res.clarke.hi == pytest.approx(w[-1], rel=1e-10)

    def test_converged_stops_are_stationary(self):
        rng = np.random.default_rng(41)
        for n in (4, 9, 16):
            C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            res, _ = levelset_minimize(C)
            assert res.status is Status.CONVERGED
            dist = max(0.0, res.clarke.lo, -res.clarke.hi)
            assert dist <= 1e-6 * max(1.0, np.linalg.norm(C, 2))

    def test_one_spectral_norm_per_solve(self, monkeypatch):
        # ||C||_2 is a full SVD; C does not change within a solve, so the
        # solve takes it once, and every level step keeps the intervals
        # that level_intervals finds when it takes its own
        import inropt.levelset as levelset
        A, B = gallery.cheng_higham7()
        C = A + 1j * B
        steps = []
        helper = levelset.level_intervals

        def recording(C, alpha, norm_c=None):
            out = helper(C, alpha, norm_c)
            steps.append((alpha, out))
            return out

        svds = []
        norm = np.linalg.norm

        def counting(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                svds.append(1)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(levelset, "level_intervals", recording)
        monkeypatch.setattr(np.linalg, "norm", counting)
        res, _ = levelset_minimize(C)
        monkeypatch.undo()
        assert len(svds) == 1
        assert len(steps) >= 4
        for alpha, got in steps:
            assert got == level_intervals(C, alpha)
        assert res.f_star == pytest.approx(0.8118872239262371, abs=1e-12)

    def test_input_checked_once_per_solve(self, monkeypatch):
        # the solve checks the split of C once; a level step's family is
        # Hermitian by construction and is not checked again
        checks = []
        check = HermitianOperator._check_hermitian

        def counting(self):
            checks.append(self.dim)
            return check(self)

        monkeypatch.setattr(HermitianOperator, "_check_hermitian", counting)
        A, B = gallery.cheng_higham7()
        res, trace = levelset_minimize(A + 1j * B)
        assert len(trace.estimates) >= 4
        assert checks == [7, 7]
        assert res.f_star == pytest.approx(0.8118872239262371, abs=1e-12)

    def test_solve_calls_the_public_functions(self, monkeypatch):
        # A wrapper on the public names, as a tracer installs one, sees
        # every level step and every pencil solve of the loop.
        import inropt.levelset as levelset
        calls = {"level_intervals": 0, "pencil_unit_eigs": 0}
        for name in calls:
            def counting(*args, _orig=getattr(levelset, name), _name=name,
                         **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(levelset, name, counting)
        A, B = gallery.cheng_higham7()
        res, trace = levelset_minimize(A + 1j * B)
        assert res.status is Status.CONVERGED
        # Each estimate after the first comes from one level step.
        assert calls["level_intervals"] >= len(trace.estimates) - 1 >= 3
        assert calls["pencil_unit_eigs"] == calls["level_intervals"]

    def test_zero_matrix_level_set_vanishes(self):
        # every level pencil of C = 0 is singular; the nudged retry finds
        # crossings, but no gap between them lies below the level 0, which
        # is the minimum
        res, _ = levelset_minimize(np.zeros((2, 2)))
        assert res.status is Status.CONVERGED
        assert res.note == "level set vanished"
        assert res.f_star == 0.0

    def test_collapsed_level_set_stops(self):
        # with tol = 0 the decrease test never stops the run at the kink;
        # the sub-level intervals shrink below angle resolution first
        res, _ = levelset_minimize(gallery.tridiag_nonsmooth(10), tol=0.0)
        assert res.status is Status.CONVERGED
        assert res.note == "level set collapsed below angle resolution"
        assert res.f_star == pytest.approx(-1.0, abs=1e-13)
