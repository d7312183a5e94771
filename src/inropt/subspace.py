"""Subspace projection loop for large one-parameter Hermitian families.

The family is compressed onto a growing orthonormal basis of eigenvectors:
each round solves the reduced global problem with a small-scale solver,
then expands the basis with the eigenvectors of the largest-eigenvalue
cluster at the new minimizer.  Reduced minima increase monotonically toward
the true minimum and interpolate the full problem at every visited point,
which is what drives the fast local convergence even at non-smooth
minimizers (the cluster expansion carries all crossing branches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ReducedSolveFailure
from .kernels import Basis, largest_eigpairs, orthonormal_extend
from .param import EPS_CLUSTER_DEFAULT, ParamHermitian, default_gamma_trig, \
    top_cluster
from .results import MinResult, Status
from . import levelset as _levelset
from . import support as _support

TOL_DEFAULT = 1e-12
MAX_ITER_DEFAULT = 100
REDUCED_TOL = 1e-14
DEFAULT_SEED = 0


@dataclass
class SubspaceState:
    """Final basis, reduced family, and per-iteration trace.

    Trace rows are ``(k, dim_k, omega_next, reduced_min)``; ``cluster_sizes``
    records how many eigenvectors each expansion contributed.
    """

    basis: Basis
    reduced: ParamHermitian
    trace: list = field(default_factory=list)
    eps_cluster: float = EPS_CLUSTER_DEFAULT
    cluster_sizes: list = field(default_factory=list)


def _solve_reduced(red: ParamHermitian, inner: str, gamma, omega0):
    # Eigenvalues of the reduced matrices carry O(eps * spectral scale)
    # noise, so certifying below that is impossible; |gamma| tracks the
    # scale for the rotated-pair family.
    scale = max(1.0, abs(gamma)) if gamma is not None else 1.0
    tol_eff = max(REDUCED_TOL, 50.0 * np.finfo(float).eps * scale)
    if inner == "support":
        res = _support.eigopt_minimize(red, gamma=gamma, tol=tol_eff,
                                       max_iter=5000, omega0=omega0)
    elif inner == "levelset":
        if not red.is_trig:
            raise ReducedSolveFailure(
                "levelset inner solver needs a trigonometric family")
        A = red.terms[0].matrix.dense
        B = red.terms[1].matrix.dense
        res, _ = _levelset.levelset_minimize(A + 1j * B, tol=tol_eff)
    else:
        raise ValueError(f"unknown inner solver {inner!r}")
    if res.status is not Status.CONVERGED:
        gap = res.f_star - res.lower_bound
        if not gap <= 1e-10 * max(1.0, abs(res.f_star)):
            raise ReducedSolveFailure(
                f"inner solver {inner} stopped with {res.status.value} "
                f"(certified gap {gap:.3e})")
    return res


def subspace_minimize(P: ParamHermitian,
                      eps_cluster: float = EPS_CLUSTER_DEFAULT,
                      tol: float = TOL_DEFAULT,
                      max_iter: int = MAX_ITER_DEFAULT,
                      inner: str = "support",
                      omega1: Optional[float] = None,
                      seed: int = DEFAULT_SEED,
                      gamma: Optional[float] = None):
    """Globally minimize lambda_max(A(w)) through projected subproblems.

    ``omega1`` fixes the initial sample point; when omitted it is drawn
    uniformly from the domain with the given ``seed`` so runs stay
    reproducible.  Terminates when consecutive reduced minima differ by
    less than ``tol``.  Returns ``(MinResult, SubspaceState)``.
    """
    a, b = P.omega_range
    if omega1 is None:
        omega1 = float(np.random.default_rng(seed).uniform(a, b))
    if gamma is None and P.is_trig:
        gamma = default_gamma_trig(P.terms[0].matrix, P.terms[1].matrix)

    cluster = top_cluster(P, omega1, eps_cluster)
    basis = orthonormal_extend(Basis.empty(P.dim), cluster.vectors.T)
    state = SubspaceState(basis=basis, reduced=P.project(basis),
                          eps_cluster=eps_cluster,
                          cluster_sizes=[len(cluster.values)])

    status = Status.MAX_ITERATIONS
    note = ""
    prev_reduced_min = None
    omega_next = omega1
    for k in range(1, max_iter + 1):
        res = _solve_reduced(state.reduced, inner, gamma, omega0=omega_next)
        omega_next, reduced_min = res.omega_star, res.f_star
        state.trace.append((k, state.basis.size, omega_next, reduced_min))
        if (prev_reduced_min is not None
                and abs(reduced_min - prev_reduced_min) < tol):
            status = Status.CONVERGED
            break
        prev_reduced_min = reduced_min
        cluster = top_cluster(P, omega_next, eps_cluster)
        grown = orthonormal_extend(state.basis, cluster.vectors.T)
        state.cluster_sizes.append(len(cluster.values))
        if grown.size == state.basis.size:
            # No new directions: the next reduced solve cannot change, so
            # decide on the full-vs-reduced gap at the current iterate.
            gap = cluster.lambda_max - reduced_min
            if abs(gap) <= tol * max(1.0, abs(reduced_min)):
                status = Status.CONVERGED
                note = ("basis saturated the full space"
                        if state.basis.size >= P.dim else
                        "basis stagnated at the converged iterate")
            else:
                status = Status.MAX_ITERATIONS
                note = (f"stagnation: no new directions accepted with a "
                        f"full/reduced gap of {gap:.3e}")
            break
        state.basis = grown
        state.reduced = P.project(grown)

    omega_star = float(omega_next)
    if cluster.omega != omega_star:
        cluster = top_cluster(P, omega_star, eps_cluster)
    f_star = cluster.lambda_max
    lower = float(state.trace[-1][3]) if state.trace else -np.inf
    if f_star - lower > max(tol, 1e-12) * max(1.0, abs(f_star)) * 100:
        extra = (f"full/reduced value gap {f_star - lower:.3e} "
                 f"at the final iterate")
        note = f"{note}; {extra}" if note else extra
    result = MinResult(
        omega_star=omega_star, f_star=f_star, lower_bound=lower,
        iterations=len(state.trace),
        trace=[(k, om, rv, rv) for (k, _, om, rv) in state.trace],
        clarke=cluster.clarke,
        status=status, note=note)
    return result, state


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
    red_vals = np.linalg.eigvalsh(state.reduced.evaluate(omega).dense)[::-1]
    p = min(p, len(red_vals), len(full_vals))
    return float(np.max(np.abs(full_vals[:p] - red_vals[:p])))
