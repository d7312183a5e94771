"""Level-set global minimization of lambda_max(H(theta)) on the circle.

Starting from an upper estimate of the minimum, each iteration extracts the
full level set of the current estimate through a structured 2n x 2n pencil,
classifies each gap between consecutive pencil angles as sub-level or not by
one Cholesky trial at its midpoint, and re-estimates at the midpoints of the
maximal sub-level intervals.  The estimate sequence decreases monotonically
to the global minimum; the longest sub-level interval at least halves per
iteration.  A level set vanishes falsely only when the pencil misses a
crossing outside CIRCLE_TOL, so a vanished one is backward-stable evidence
of the minimum, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyLevelSet, NonHermitianInput
from .kernels import (HermitianOperator, hermitian_eigvals, hermitian_split,
                      is_pd, pencil_unit_eigs)
from .param import ParamHermitian, top_cluster
from .results import TOL_DEFAULT, MinResult, Status, check_options

TWO_PI = 2.0 * np.pi
MAX_ITER_DEFAULT = 200
# When every sub-level gap is shorter than this fraction of the circle the
# level set has collapsed to the attainable minimum.
COLLAPSE_TOL = 1e-14
# A converged stop needs 0 within this distance of the final derivative
# interval, relative to max(1, ||C||_2).  This catches a level set that
# vanished because the pencil missed a crossing outside CIRCLE_TOL.
STATIONARY_TOL = 1e-4


@dataclass(frozen=True)
class CircularInterval:
    """Open interval on [0, 2*pi), possibly wrapping through 2*pi."""

    lo: float
    hi: float
    wraps: bool = False

    @property
    def midpoint(self) -> float:
        if not self.wraps:
            return 0.5 * (self.lo + self.hi)
        return (0.5 * (self.lo + self.hi + TWO_PI)) % TWO_PI

    @property
    def length(self) -> float:
        if not self.wraps:
            return self.hi - self.lo
        return (TWO_PI - self.lo) + self.hi


@dataclass
class LevelSetTrace:
    """Estimate sequence with the longest sub-level interval per iteration."""

    estimates: list = field(default_factory=list)
    max_lengths: list = field(default_factory=list)


def _below(H, level):
    """lambda_max(H) < level: level*I - H is positive definite.  The
    shifted matrix is one copy of -H, factored in place."""
    S = -H
    S.flat[::len(S) + 1] += level
    return is_pd(S, overwrite=True)


def level_intervals(C: np.ndarray, alpha: float,
                    norm_c: Optional[float] = None):
    """Maximal open intervals where lambda_max(H(theta)) < alpha.

    ``lambda_max(H(theta)) - alpha`` changes sign only where an eigenvalue
    branch crosses alpha, at an angle the level pencil returns; another
    branch's angle only splits a gap into halves of one sign.  So each gap
    between consecutive angles takes one Cholesky trial at its midpoint,
    and runs of sub-level gaps merge into maximal circular intervals.
    ``norm_c`` is ``||C||_2`` when the caller has it, so that one solve
    takes it once; None lets the pencil take it.
    """
    C = np.asarray(C, dtype=complex)
    if not np.isfinite(C).all():
        raise NonHermitianInput("matrix has non-finite entries")
    # The split of C is Hermitian by construction; nothing to check.
    P = ParamHermitian.trig(*(HermitianOperator(M, check=False)
                              for M in hermitian_split(C)))
    ang = pencil_unit_eigs(C, alpha, norm_c)  # sorted
    m = len(ang)
    # circular gaps: (ang[i], ang[i+1]) and the wrap gap (ang[-1], ang[0]+2pi)
    sub = []
    for i in range(m):
        lo = ang[i]
        hi = ang[(i + 1) % m] + (TWO_PI if i == m - 1 else 0.0)
        mid = (0.5 * (lo + hi)) % TWO_PI
        sub.append(_below(P.evaluate(mid).dense, alpha))
    if not any(sub):
        raise EmptyLevelSet(
            f"no sub-level gap at {alpha!r} (level at or below the minimum)")
    if all(sub):
        # whole circle below the level except the touch points
        return [CircularInterval(lo=float(ang[0]), hi=float(ang[0]), wraps=True)]
    intervals = []
    # walk runs of consecutive sub-level gaps, starting after a non-sub gap
    start = next(i for i in range(m) if not sub[i])
    i = (start + 1) % m
    run_lo = None
    for _ in range(m):
        if sub[i] and run_lo is None:
            run_lo = ang[i]
        nxt = (i + 1) % m
        if run_lo is not None and not sub[nxt]:
            hi = ang[nxt]
            intervals.append(CircularInterval(lo=float(run_lo), hi=float(hi),
                                              wraps=bool(hi <= run_lo)))
            run_lo = None
        i = nxt
    intervals.sort(key=lambda iv: iv.lo)
    return intervals


def levelset_minimize(C: np.ndarray, tol: float = TOL_DEFAULT,
                      max_iter: int = MAX_ITER_DEFAULT):
    """Globally minimize lambda_max(H(theta)) for a dense square C.

    Returns ``(MinResult, LevelSetTrace)``.  Termination is on relative
    decrease of the estimate below ``tol``, or on the level set vanishing or
    collapsing below angle resolution.
    """
    check_options(tol, max_iter)
    C = np.asarray(C, dtype=complex)
    P = ParamHermitian.trig(*hermitian_split(C))
    norm_c = float(np.linalg.norm(C, 2))  # one SVD per solve

    def lam_max(theta):
        return float(hermitian_eigvals(P.evaluate(theta))[0])

    trace = LevelSetTrace()
    r = lam_max(0.0)
    omega_star = 0.0
    trace.estimates.append(r)
    angles = [0.0]  # where each estimate was evaluated
    status = Status.MAX_ITERATIONS
    note = ""
    for _ in range(max_iter):
        try:
            intervals = level_intervals(C, r, norm_c)
        except EmptyLevelSet:
            status = Status.CONVERGED
            note = "level set vanished"
            break
        trace.max_lengths.append(max(iv.length for iv in intervals))
        if all(iv.length < COLLAPSE_TOL * TWO_PI for iv in intervals):
            status = Status.CONVERGED
            note = "level set collapsed below angle resolution"
            break
        mids = [iv.midpoint for iv in intervals]
        vals = [lam_max(t) for t in mids]
        j = int(np.argmin(vals))
        r_new, omega_new = vals[j], float(mids[j])
        trace.estimates.append(r_new)
        angles.append(omega_new)
        if r_new < r:
            omega_star = omega_new
        if r - r_new <= tol * max(1.0, abs(r_new)):
            r = min(r, r_new)
            status = Status.CONVERGED
            break
        r = min(r, r_new)

    # A level set also vanishes when the pencil misses a crossing; only a
    # stop with 0 (nearly) in the derivative interval is a minimum.  Dense
    # input affords the whole cluster, whose cut would be a sub-interval.
    clarke = top_cluster(P, omega_star, max_pairs=P.dim).clarke
    dist = max(0.0, clarke.lo, -clarke.hi)
    if status is Status.CONVERGED and dist > STATIONARY_TOL * max(1.0, norm_c):
        status = Status.MAX_ITERATIONS
        note = (f"{note or 'stopped'}: not a minimum, 0 lies {dist:.3e} "
                "from the derivative interval")
    result = MinResult(omega_star=omega_star, f_star=float(r),
                       lower_bound=-np.inf, iterations=len(trace.estimates),
                       trace=[(k, om, rk, -np.inf) for k, (om, rk) in
                              enumerate(zip(angles, trace.estimates), start=1)],
                       clarke=clarke, status=status, note=note)
    return result, trace
