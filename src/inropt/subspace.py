"""Subspace projection loop for large one-parameter Hermitian families.

The family is compressed onto a growing orthonormal basis of eigenvectors:
each round solves the reduced global problem with the support solver, then
expands the basis with the eigenvectors of the largest-eigenvalue cluster at
the new minimizer.  The reduced problem bounds the minimum from below and
lambda_max at its minimizer from above; the run stops when they meet.  The
cluster expansion carries all crossing branches, which keeps the local
convergence fast even at non-smooth minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ReducedSolveFailure
from .kernels import (Basis, hermitian_eigvals, largest_eigpairs,
                      orthonormal_extend)
from .param import EPS_CLUSTER_DEFAULT, ParamHermitian, top_cluster
from .results import (TOL_DEFAULT, MinResult, Status, check_options,
                      trace_scale)
from . import support as _support

MAX_ITER_DEFAULT = 100
# Default first sample, as a fraction of the domain (numpy default_rng(0)'s
# first draw): fixed, so runs repeat; generic, so the first basis avoids
# special angles such as the midpoint, where the rotated family is -A.
DEFAULT_START = 0.6369616873214543
# Reduced values carry rounding of about this times the stopping scale s:
# the reduced solves run to it, and nothing below NOISE_REL * s is certain.
NOISE_REL = 50.0 * np.finfo(float).eps


@dataclass
class SubspaceState:
    """Final basis, reduced family, and per-iteration trace.

    Trace rows are ``(k, dim_k, omega_next, reduced_min)``; ``cluster_sizes``
    records how many eigenvectors each expansion contributed.
    """

    basis: Basis
    reduced: ParamHermitian
    trace: list = field(default_factory=list)
    cluster_sizes: list = field(default_factory=list)


def subspace_minimize(P: ParamHermitian,
                      eps_cluster: float = EPS_CLUSTER_DEFAULT,
                      tol: float = TOL_DEFAULT,
                      max_iter: int = MAX_ITER_DEFAULT,
                      omega1: Optional[float] = None,
                      gamma: Optional[float] = None):
    """Globally minimize lambda_max(A(w)) through projected subproblems.

    ``omega1`` fixes the initial sample point, in the domain; when omitted
    it is the point ``DEFAULT_START`` of the way along.  Round k keeps the
    certified lower bound ``l_k`` and ``f_k = lambda_max(A(w_k))`` at the
    reduced minimizer, and converges once ``f_k - l_k <= max(tol, 3 *
    NOISE_REL) * s``, ``s`` the stopping scale over the reduced solves and
    every ``f_k``.  The reduced solves take ``gamma`` as
    :func:`support.eigopt_minimize` does: without it a trigonometric family
    gets sinusoid supports.  Returns ``(MinResult, SubspaceState)``.
    """
    check_options(tol, max_iter, eps_cluster)
    a, b = P.omega_range
    if omega1 is None:
        omega1 = a + DEFAULT_START * (b - a)
    if not a <= omega1 <= b:
        raise ValueError("omega1 outside the domain")

    cluster = top_cluster(P, omega1, eps_cluster)
    basis = orthonormal_extend(Basis.empty(P.dim), cluster.vectors.T)
    state = SubspaceState(basis=basis, reduced=P.project(basis),
                          cluster_sizes=[len(cluster.values)])
    status, note = Status.MAX_ITERATIONS, "iteration limit"
    lower, rows, s = -np.inf, [], abs(cluster.lambda_max)
    for k in range(1, max_iter + 1):
        res = _support.eigopt_minimize(
            state.reduced, gamma=gamma, tol=NOISE_REL,
            max_iter=5000, omega0=cluster.omega)
        s = trace_scale(res.trace, s)
        gap = res.f_star - res.lower_bound
        if res.status is not Status.CONVERGED and not gap <= 1e-10 * s:
            raise ReducedSolveFailure(
                f"reduced support solve stopped with {res.status.value} "
                f"(certified gap {gap:.3e})")
        state.trace.append((k, state.basis.size, res.omega_star, res.f_star))
        # By Cauchy interlacing the reduced value lies at or below the full
        # lambda_max, so the sparse solve starts its shift search there.
        cluster = top_cluster(P, res.omega_star, eps_cluster,
                              lower=res.f_star)
        f_k = cluster.lambda_max
        s = max(s, abs(f_k))
        lower = max(lower, res.lower_bound - NOISE_REL * s)
        rows.append((k, cluster.omega, f_k, lower))
        if f_k - lower <= max(tol, 3.0 * NOISE_REL) * s:
            status, note = Status.CONVERGED, ""
            break
        grown = orthonormal_extend(state.basis, cluster.vectors.T)
        state.cluster_sizes.append(len(cluster.values))
        if grown.size == state.basis.size:
            note = "stagnation: no new directions accepted"
            break
        state.basis = grown
        state.reduced = P.project(grown)

    f_star = cluster.lambda_max
    if status is not Status.CONVERGED:
        note = f"{note}, full/reduced gap {f_star - lower:.3e}"
    return MinResult(omega_star=cluster.omega, f_star=f_star,
                     lower_bound=float(lower), iterations=len(state.trace),
                     trace=rows, clarke=cluster.clarke, status=status,
                     note=note), state


def verify_interpolation(state: SubspaceState, P: ParamHermitian,
                         k: int) -> float:
    """Max eigenvalue discrepancy between reduced and full problems at
    the k-th recorded iterate, over the indices the expansion clustered."""
    if not state.trace:
        raise ValueError("empty trace")
    if not 1 <= k <= len(state.trace):
        raise ValueError(f"k must be in 1..{len(state.trace)}")
    _, _, omega, _ = state.trace[k - 1]
    # Expansion k sampled the k-th reduced minimizer; if the run stopped
    # before expanding there, only the top eigenvalue is certified.
    p = state.cluster_sizes[k] if k < len(state.cluster_sizes) else 1
    p = max(1, min(p, state.basis.size))
    full_vals, _ = largest_eigpairs(P.evaluate(omega), np.inf, p)
    red_vals = hermitian_eigvals(state.reduced.evaluate(omega))
    p = min(p, len(red_vals), len(full_vals))
    return float(np.max(np.abs(full_vals[:p] - red_vals[:p])))
