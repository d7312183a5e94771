"""Global minimization through piecewise lower support functions.

The objective lambda_max(A(w)) is bounded from below by supports touching it
at the evaluated points.  With a curvature bound gamma <= 0 they are the
concave quadratics q_k(w) = value_k + slope_k (w - w_k) + (gamma/2)(w - w_k)^2.
A trigonometric family A cos w + B sin w without a gamma takes sinusoids
q_k(w) = value_k cos(w - w_k) + slope_k sin(w - w_k) instead: for the unit
vector u behind the value and slope, q_k(w) = u^* A u cos w + u^* B u sin w =
u^* A(w) u, which lies below lambda_max(A(w)) on the whole circle with no
curvature constant.  Their maximum is the support function of a polygon
inscribed in the field of values of A + iB (Johnson 1978).  The pointwise
maximum of the supports is a certified under-estimator whose exact global
minimum over the domain is the least of its segment minima: between two
adjacent support abscissae the model reduces to the max of the two bounding
supports, whose minimum has a few closed-form candidates.  Each iteration
evaluates the objective at the model minimizer, inserts a new support there,
and updates the certified lower bound.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidGamma
from .param import EPS_CLUSTER_DEFAULT, ParamHermitian, top_cluster
from .results import TOL_DEFAULT, MinResult, Status, check_options

MAX_ITER_DEFAULT = 2000
# Abscissae closer than this fraction of max(1, domain width) are duplicates.
DUPLICATE_REL = 1e-14
PERTURB_REL = 1e-12


@dataclass(frozen=True)
class SupportPoint:
    """One lower support: touch point, value, slope, curvature.

    ``gamma=None`` makes it the sinusoid value cos(w - omega) +
    slope sin(w - omega); a number makes it the quadratic with that
    curvature.
    """

    omega: float
    value: float
    slope: float
    gamma: Optional[float]

    def q(self, w):
        d = w - self.omega
        if self.gamma is None:
            return self.value * np.cos(d) + self.slope * np.sin(d)
        return self.value + self.slope * d + 0.5 * self.gamma * d * d


def _sinusoid(s: SupportPoint):
    """``s.q`` on one float, through math."""
    return lambda w: (s.value * math.cos(w - s.omega)
                      + s.slope * math.sin(w - s.omega))


def _inside(t, period, lo, hi):
    """The points t + k*period strictly inside (lo, hi)."""
    t = lo + (t - lo) % period
    out = []
    while t < hi:
        if t > lo:
            out.append(t)
        t += period
    return out


def _segment_min(s1: SupportPoint, s2: SupportPoint, lo, hi):
    """(argmin, value) of max(q1, q2) over [lo, hi], both of one kind.

    Between two candidates the max is one support with no interior minimum,
    so the least candidate value is the minimum; equal values go to the
    leftmost candidate.  The candidates are lo, hi and the points strictly
    inside where the supports cross or a sinusoid has its trough.
    Quadratics with a shared gamma differ by an affine function, so they
    cross at most once.  Relative to w1, sinusoid i is r_i cos(d - phi_i)
    with phi_i = atan2(slope_i, value_i), so its trough lies at
    phi_i + pi (mod 2*pi); the difference q1 - q2 is
    (q1 - q2)(w1) cos d + (q1 - q2)'(w1) sin d, zero at psi + pi/2 + k*pi.
    """
    if s1.gamma is None:
        q1, q2 = _sinusoid(s1), _sinusoid(s2)
        d = s1.omega - s2.omega
        dv = s1.value - q2(s1.omega)
        ds = s1.slope - (s2.slope * math.cos(d) - s2.value * math.sin(d))
        cands = [lo, hi]
        for s in (s1, s2):
            cands += _inside(s.omega + math.atan2(s.slope, s.value) + math.pi,
                             2.0 * math.pi, lo, hi)
        if dv != 0.0 or ds != 0.0:
            cands += _inside(s1.omega + math.atan2(ds, dv) + 0.5 * math.pi,
                             math.pi, lo, hi)
    else:
        q1, q2, g = s1.q, s2.q, s1.gamma
        # q_i(w) = (g/2) w^2 + b_i w + c_i
        db = (s1.slope - g * s1.omega) - (s2.slope - g * s2.omega)
        dc = (s1.value - s1.slope * s1.omega + 0.5 * g * s1.omega ** 2) \
            - (s2.value - s2.slope * s2.omega + 0.5 * g * s2.omega ** 2)
        cands = [lo, hi]
        if abs(db) > 1e-300:
            cross = -dc / db
            if lo < cross < hi:
                cands.append(cross)
    best = None
    for w in cands:
        val = max(q1(w), q2(w))
        if best is None or val < best[1] or (val == best[1] and w < best[0]):
            best = (w, val)
    return best


# The entry of a zero-width slot: it never wins against a real segment.
_NO_SEGMENT = (math.inf, math.inf, None)


def _segment_entry(lo, hi, left: Optional[SupportPoint],
                   right: Optional[SupportPoint]):
    """(value, lo, argmin) of the model over one segment [lo, hi]."""
    # An edge segment has one support, which bounds it alone.
    argmin, value = _segment_min(left or right, right or left, lo, hi)
    return value, lo, argmin


class PiecewiseModel:
    """Max of lower supports with exact global minimization over [a, b].

    ``_mins`` runs parallel to ``supports`` plus one trailing slot: slot i
    holds ``(value, lo, argmin)`` for the segment left of ``supports[i]``,
    and the last slot's segment ends at b.  A zero-width slot holds
    ``_NO_SEGMENT``, except the one segment of a one-point domain.  The
    model minimum is the least entry; no two segments share ``lo``, so
    equal values go to the leftmost segment.
    """

    def __init__(self, omega_range):
        self.a, self.b = float(omega_range[0]), float(omega_range[1])
        self.supports: list[SupportPoint] = []
        self._keys: list[float] = []
        self._mins: list[tuple] = [_NO_SEGMENT]

    def near(self, w, others=None) -> bool:
        """Whether w duplicates a support abscissa (or one of ``others``)."""
        if others is None:
            i = bisect.bisect_left(self._keys, w)
            others = self._keys[max(i - 1, 0):i + 1]
        tol = DUPLICATE_REL * max(1.0, self.b - self.a)
        return any(abs(w - x) <= tol for x in others)

    def nudge(self, w):
        """Move w off its nearest support toward the wider adjacent gap.

        Returns None when the moved point is still a duplicate, i.e. the
        domain is saturated at float resolution.
        """
        keys = self._keys
        i = bisect.bisect_left(keys, w)
        if i == len(keys) or (i > 0 and w - keys[i - 1] <= keys[i] - w):
            i -= 1
        x = keys[i]
        lo = keys[i - 1] if i > 0 else self.a
        hi = keys[i + 1] if i + 1 < len(keys) else self.b
        step = PERTURB_REL * max(1.0, self.b - self.a)
        w = min(max(x + (step if hi - x >= x - lo else -step), self.a), self.b)
        return None if self.near(w) else w

    def insert(self, s: SupportPoint):
        """Add one support, splitting the gap that contains its abscissa."""
        if not self.a <= s.omega <= self.b:
            raise ValueError("support abscissa outside the domain")
        if self.near(s.omega):
            raise ValueError("duplicate support abscissa")
        idx = bisect.bisect_left(self._keys, s.omega)
        left = self.supports[idx - 1] if idx > 0 else None
        right = self.supports[idx] if idx < len(self.supports) else None
        lo = left.omega if left is not None else self.a
        hi = right.omega if right is not None else self.b
        self._mins[idx:idx + 1] = [
            _segment_entry(lo, s.omega, left, s)
            if lo < s.omega else _NO_SEGMENT,
            _segment_entry(s.omega, hi, s, right)
            if s.omega < hi or self.a == self.b else _NO_SEGMENT]
        self.supports.insert(idx, s)
        self._keys.insert(idx, s.omega)

    def peek_min(self):
        """(argmin, value) of the model over the domain; model unchanged."""
        value, _, argmin = min(self._mins)
        if argmin is None:
            raise RuntimeError("model has no segments; insert a support first")
        return argmin, value

    def __call__(self, w):
        """Model value max_k q_k(w) (vectorized; for diagnostics/tests)."""
        w = np.asarray(w, dtype=float)
        vals = np.stack([s.q(w) for s in self.supports])
        return vals.max(axis=0)


def _run_support(eval_fn: Callable[[float], tuple], omega_range, gamma,
                 tol, max_iter, omega0, seeds: Sequence[float] = ()):
    """Run the support iteration; returns (MinResult, record of the best).

    ``eval_fn(w)`` returns ``(value, slope, record)``; the record of the
    first strictly lowest value is handed back untouched.  ``gamma=None``
    builds sinusoid supports, a number quadratic ones.
    """
    a, b = float(omega_range[0]), float(omega_range[1])
    if omega0 is None:
        omega0 = 0.5 * (a + b)
    if not a <= omega0 <= b:
        raise ValueError("omega0 outside the domain")
    if gamma is not None and gamma > 0:
        raise InvalidGamma(f"curvature bound must be <= 0, got {gamma}")

    model = PiecewiseModel((a, b))
    points: list[float] = []
    for w in (omega0, *seeds):
        w = float(w)
        if a <= w <= b and not model.near(w, points):
            points.append(w)
    rows = [(w, *eval_fn(w)) for w in points]

    trace = []
    # omega0 is evaluated first and stays the incumbent until beaten.
    u, best_omega, best = math.inf, omega0, rows[0][3]
    ell = -math.inf
    status, note = Status.MAX_ITERATIONS, ""
    for k in itertools.count():
        for w, val, slope, record in rows:
            if val < u:
                u, best_omega, best = val, w, record
            trace.append((len(trace) + 1, w, val, ell))
            model.insert(SupportPoint(w, val, slope, gamma))
        if k >= max_iter:
            break
        w, ell_next = model.peek_min()
        ell = max(ell, ell_next)  # max of certified lower bounds is certified
        if u - ell <= tol * max(1.0, abs(u)):
            status = Status.CONVERGED
            break
        if model.near(w):
            w = model.nudge(w)
            if w is None:
                note = "iterate collision at float resolution"
                break
        rows = [(w, *eval_fn(w))]

    return MinResult(omega_star=float(best_omega), f_star=float(u),
                     lower_bound=float(ell), iterations=len(trace),
                     trace=trace, clarke=None, status=status,
                     note=note), best


def eigopt_minimize(P: ParamHermitian, gamma: Optional[float] = None,
                    tol: float = TOL_DEFAULT, max_iter: int = MAX_ITER_DEFAULT,
                    omega0: Optional[float] = None,
                    eps_cluster: float = EPS_CLUSTER_DEFAULT) -> MinResult:
    """Globally minimize lambda_max(A(w)) over the family's domain.

    A ``gamma`` gives quadratic supports; it must lower-bound the second
    derivative of the largest eigenvalue wherever it is simple.  A
    trigonometric family without one gets sinusoid supports, which need no
    curvature bound; any other family must pass it.  The trigonometric case
    is seeded with evaluations at the four quarter angles, which brackets
    the minimizer early and keeps runs deterministic.
    """
    check_options(tol, max_iter, eps_cluster)
    if gamma is None and not P.is_trig:
        raise InvalidGamma("gamma is required for non-trigonometric families")

    def eval_fn(w):
        tc = top_cluster(P, w, eps_cluster)
        return tc.lambda_max, tc.slope, tc

    seeds = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2) if P.is_trig else ()
    res, best = _run_support(eval_fn, P.omega_range, gamma, tol, max_iter,
                             omega0, seeds)
    res.clarke = best.clarke
    return res


def eigopt_minimize_callback(f_and_slope: Callable[[float], tuple],
                             omega_range, gamma: float,
                             tol: float = TOL_DEFAULT,
                             max_iter: int = MAX_ITER_DEFAULT,
                             omega0: Optional[float] = None) -> MinResult:
    """Same contract as :func:`eigopt_minimize` with a callback objective.

    ``f_and_slope(w)`` returns ``(value, slope)``; the certified lower bound
    machinery is identical.  ``gamma`` is required: a callback has no
    vector behind its slope, so its supports are quadratics.  No
    derivative-interval diagnostic is attached.
    """
    check_options(tol, max_iter)
    if gamma is None:
        raise InvalidGamma("gamma is required for a callback objective")
    res, _ = _run_support(lambda w: (*f_and_slope(w), None), omega_range,
                          gamma, tol, max_iter, omega0)
    return res
