"""Global minimization through piecewise-quadratic lower support functions.

The objective lambda_max(A(w)) is bounded from below by concave quadratics
q_k(w) = value_k + slope_k (w - w_k) + (gamma/2)(w - w_k)^2 with a shared
curvature bound gamma < 0.  The pointwise maximum of the supports is a
certified under-estimator whose exact global minimum over the domain is
tracked with an interval priority queue: between two adjacent support
abscissae the model reduces to the max of the two bounding quadratics, so
each gap carries a single candidate minimizer (a pairwise crossing or a gap
endpoint).  Each iteration evaluates the objective at the model minimizer,
inserts a new support there, and updates the certified lower bound.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateSupports, InvalidGamma
from .param import EPS_CLUSTER_DEFAULT, ParamHermitian, default_gamma_trig, \
    top_cluster
from .results import MinResult, Status

TOL_DEFAULT = 1e-12
MAX_ITER_DEFAULT = 2000
# Two iterates closer than this fraction of the domain width are duplicates.
DUPLICATE_REL = 1e-14
PERTURB_REL = 1e-12


@dataclass(frozen=True)
class SupportPoint:
    """One quadratic lower support: touch point, value, slope, curvature."""

    omega: float
    value: float
    slope: float
    gamma: float

    def q(self, w):
        d = w - self.omega
        return self.value + self.slope * d + 0.5 * self.gamma * d * d


def two_support_intersection(s1: SupportPoint, s2: SupportPoint, interval):
    """Minimizer of max(q1, q2) over [lo, hi] for supports sharing gamma.

    With equal curvature the difference of the quadratics is affine, so the
    max switches branches at most once; the minimum sits at that crossing or
    at the better endpoint.  Raises DegenerateSupports when the two
    quadratics coincide (the caller falls back to the interval midpoint).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not s1.omega < s2.omega:
        raise ValueError("supports must satisfy s1.omega < s2.omega")
    if s1.gamma != s2.gamma:
        raise ValueError("supports must share the curvature bound")
    if lo > hi:
        raise ValueError("empty interval")
    g = s1.gamma
    # q_i(w) = (g/2) w^2 + b_i w + c_i
    b1 = s1.slope - g * s1.omega
    b2 = s2.slope - g * s2.omega
    c1 = s1.value - s1.slope * s1.omega + 0.5 * g * s1.omega ** 2
    c2 = s2.value - s2.slope * s2.omega + 0.5 * g * s2.omega ** 2
    db, dc = b1 - b2, c1 - c2
    if abs(db) <= 1e-300:
        if abs(dc) <= 1e-15 * max(abs(c1), abs(c2), 1.0):
            raise DegenerateSupports("identical quadratics on the interval")
        cands = [lo, hi]
    else:
        cross = -dc / db
        cands = [lo, hi] + ([cross] if lo < cross < hi else [])
    best = None
    for w in cands:
        val = max(s1.q(w), s2.q(w))
        if best is None or val < best[1] or (val == best[1] and w < best[0]):
            best = (w, val)
    return best


class _Gap:
    """One segment between adjacent support abscissae (or a domain edge)."""

    __slots__ = ("lo", "hi", "left", "right", "argmin", "value", "alive")

    def __init__(self, lo, hi, left: Optional[SupportPoint],
                 right: Optional[SupportPoint]):
        self.lo, self.hi = lo, hi
        self.left, self.right = left, right
        self.alive = True
        if left is None and right is None:
            raise ValueError("gap needs at least one bounding support")
        if left is None or right is None:
            # Edge segment: the model equals the single bounding quadratic,
            # which is concave, so the minimum sits at an endpoint.
            s = left if right is None else right
            vlo, vhi = s.q(lo), s.q(hi)
            self.argmin, self.value = (lo, vlo) if vlo <= vhi else (hi, vhi)
        else:
            try:
                self.argmin, self.value = two_support_intersection(
                    left, right, (lo, hi))
            except DegenerateSupports:
                mid = 0.5 * (lo + hi)
                self.argmin, self.value = mid, left.q(mid)


class PiecewiseModel:
    """Max of quadratic supports with exact global minimization over [a, b]."""

    def __init__(self, omega_range, gamma: float):
        self.a, self.b = float(omega_range[0]), float(omega_range[1])
        self.gamma = gamma
        self.supports: list[SupportPoint] = []
        self._keys: list[float] = []
        self._heap: list = []
        self._seq = itertools.count()

    def _push(self, gap: _Gap):
        if gap.hi - gap.lo <= 0 and gap.left is not None and gap.right is not None:
            return
        heapq.heappush(self._heap, (gap.value, gap.lo, next(self._seq), gap))

    def insert(self, s: SupportPoint):
        """Add one support, splitting the gap that contains its abscissa."""
        if not self.a <= s.omega <= self.b:
            raise ValueError("support abscissa outside the domain")
        idx = np.searchsorted(self._keys, s.omega)
        left = self.supports[idx - 1] if idx > 0 else None
        right = self.supports[idx] if idx < len(self.supports) else None
        tol = DUPLICATE_REL * max(1.0, self.b - self.a)
        for nb in (left, right):
            if nb is not None and abs(s.omega - nb.omega) <= tol:
                raise ValueError("duplicate support abscissa")
        # retire the gap being split
        for entry in self._heap:
            gap = entry[3]
            if gap.alive and (gap.left is left) and (gap.right is right):
                gap.alive = False
                break
        self.supports.insert(idx, s)
        self._keys.insert(idx, s.omega)
        lo = left.omega if left is not None else self.a
        hi = right.omega if right is not None else self.b
        if left is not None or self.a < s.omega:
            self._push(_Gap(lo, s.omega, left, s))
        if right is not None or s.omega < self.b:
            self._push(_Gap(s.omega, hi, s, right))
        if left is None and right is None and self.a == s.omega == self.b:
            self._push(_Gap(self.a, self.b, s, None))

    def peek_min(self):
        """(argmin, value) of the model over the domain; model unchanged."""
        while self._heap and not self._heap[0][3].alive:
            heapq.heappop(self._heap)
        if not self._heap:
            raise RuntimeError("model has no segments; insert a support first")
        _, _, _, gap = self._heap[0]
        return gap.argmin, gap.value

    def __call__(self, w):
        """Model value max_k q_k(w) (vectorized; for diagnostics/tests)."""
        w = np.asarray(w, dtype=float)
        vals = np.stack([s.q(w) for s in self.supports])
        return vals.max(axis=0)


def _run_support(eval_fn: Callable[[float], tuple], omega_range, gamma,
                 tol, max_iter, omega0, seeds: Sequence[float] = ()):
    a, b = float(omega_range[0]), float(omega_range[1])
    width = max(b - a, 1e-300)
    if omega0 is None:
        omega0 = 0.5 * (a + b)
    if not a <= omega0 <= b:
        raise ValueError("omega0 outside the domain")
    if gamma is not None and gamma > 0:
        raise InvalidGamma(f"curvature bound must be negative, got {gamma}")

    trace = []
    u = math.inf
    best_omega = omega0
    evaluated: list[tuple[float, float, float]] = []  # (omega, value, slope)

    def evaluate(w):
        nonlocal u, best_omega
        val, slope = eval_fn(w)
        evaluated.append((w, val, slope))
        if val < u:
            u, best_omega = val, w
        return val, slope

    points = [float(omega0)]
    for s in seeds:
        s = float(s)
        if a <= s <= b and all(abs(s - p) > DUPLICATE_REL * width for p in points):
            points.append(s)
    for w in points:
        evaluate(w)

    if gamma is None or gamma == 0.0:
        # Degenerate curvature: keep the quadratics strictly concave.
        scale = max(1.0, max(abs(v) for _, v, _ in evaluated))
        gamma = -1e-8 * scale
    if gamma >= 0:
        raise InvalidGamma(f"curvature bound must be negative, got {gamma}")

    model = PiecewiseModel((a, b), gamma)
    for k, (w, val, slope) in enumerate(evaluated):
        model.insert(SupportPoint(w, val, slope, gamma))
        trace.append((k, w, val, -math.inf))

    ell = -math.inf
    status = Status.MAX_ITERATIONS
    for _ in range(max_iter):
        om_next, ell_next = model.peek_min()
        ell = max(ell, ell_next)  # max of certified lower bounds is certified
        if u - ell <= tol * max(1.0, abs(u)):
            status = Status.CONVERGED
            break
        # Duplicate iterate guard: nudge toward the wider adjacent gap.
        keys = model._keys
        j = int(np.searchsorted(keys, om_next))
        nearest = min(
            (abs(om_next - keys[i]) for i in (j - 1, j) if 0 <= i < len(keys)),
            default=math.inf)
        if nearest <= DUPLICATE_REL * width:
            i = int(np.argmin([abs(om_next - x) for x in keys]))
            left_gap = keys[i] - (keys[i - 1] if i > 0 else a)
            right_gap = (keys[i + 1] if i + 1 < len(keys) else b) - keys[i]
            om_next = keys[i] + (PERTURB_REL * width if right_gap >= left_gap
                                 else -PERTURB_REL * width)
            om_next = min(max(om_next, a), b)
            if any(abs(om_next - x) <= DUPLICATE_REL * width for x in keys):
                # Domain saturated at float resolution; cannot refine further.
                note = "iterate collision at float resolution"
                res = MinResult(omega_star=float(best_omega), f_star=float(u),
                                lower_bound=float(ell),
                                iterations=len(evaluated), trace=trace,
                                clarke=None, status=Status.MAX_ITERATIONS,
                                note=note)
                return res
        val, slope = evaluate(om_next)
        trace.append((len(trace), om_next, val, ell))
        model.insert(SupportPoint(om_next, val, slope, gamma))

    return MinResult(omega_star=float(best_omega), f_star=float(u),
                     lower_bound=float(ell), iterations=len(evaluated),
                     trace=trace, clarke=None, status=status)


def eigopt_minimize(P: ParamHermitian, gamma: Optional[float] = None,
                    tol: float = TOL_DEFAULT, max_iter: int = MAX_ITER_DEFAULT,
                    omega0: Optional[float] = None,
                    eps_cluster: float = EPS_CLUSTER_DEFAULT) -> MinResult:
    """Globally minimize lambda_max(A(w)) over the family's domain.

    ``gamma`` must lower-bound the second derivative of the largest
    eigenvalue wherever it is simple; for the rotated-pair family it
    defaults to -(||A||_2 + ||B||_2).  The trigonometric case is seeded
    with evaluations at the four quarter angles, which brackets the
    minimizer early and keeps runs deterministic.
    """
    if gamma is None:
        if not P.is_trig:
            raise InvalidGamma(
                "gamma is required for non-trigonometric families")
        A, B = P.terms[0].matrix, P.terms[1].matrix
        gamma = default_gamma_trig(A, B)

    # The record at _run_support's best_omega (same strict rule) supplies the
    # Clarke interval without evaluating that point again.
    best = None

    def eval_fn(w):
        nonlocal best
        tc = top_cluster(P, w, eps_cluster)
        if best is None or tc.lambda_max < best.lambda_max:
            best = tc
        return tc.lambda_max, tc.slope

    seeds = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2) if P.is_trig else ()
    res = _run_support(eval_fn, P.omega_range, gamma, tol, max_iter,
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
    machinery is identical.  No derivative-interval diagnostic is attached.
    """
    return _run_support(f_and_slope, omega_range, gamma, tol, max_iter, omega0)
