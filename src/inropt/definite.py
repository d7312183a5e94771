"""Definiteness applications built on the global eigenvalue minimizers.

Covers the inner numerical radius of a matrix (distance from the origin to
the boundary of its field of values), the Crawford number and definiteness
of a Hermitian pair, the distance to a nearest definite pair with optimal
perturbations, pair rotation, hyperbolicity of quadratic eigenvalue
problems, and positive-definiteness shifts for saddle-point matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .errors import (ConvergenceFailure, NotPositiveDefiniteMass,
                     VerificationFailure)
from .gallery import qep_linearization
from .kernels import (as_hermitian, below_dense_threshold, hermitian_eig,
                      hermitian_eigvals, is_pd, matmul, stacked_norm_below)
from .param import EPS_CLUSTER_DEFAULT, ParamHermitian
from .results import TOL_DEFAULT, MinResult, check_options
from . import levelset as _levelset
from . import subspace as _subspace
from . import support as _support

TWO_PI = 2.0 * np.pi


@dataclass
class InnerRadiusResult:
    """Inner numerical radius with the minimizing angle and boundary data.

    ``zeta`` is |f_star|; ``zero_in_fov`` says whether the origin lies in
    the field of values (f_star >= 0), which every verdict reads; ``phi``
    is the angle at which the closest boundary point zeta * e^{i*phi} is
    attained.
    """

    zeta: float
    theta_star: float
    f_star: float
    phi: float
    zero_in_fov: bool
    opt: MinResult

    @property
    def crawford(self) -> float:
        """Crawford number: zeta for a definite pair, 0 otherwise."""
        return 0.0 if self.zero_in_fov else self.zeta


class CrawfordResult(NamedTuple):
    gamma: float
    is_definite: bool
    witness: InnerRadiusResult


@dataclass
class DefiniteRepair:
    """Nearest definite pair data: distance, perturbations, and rotation."""

    distance: float
    deltaA: np.ndarray
    deltaB: np.ndarray
    psi: float
    A_tilde: np.ndarray
    B_tilde: np.ndarray
    crawford_after: float
    theta_star: float


def inner_numerical_radius(*, pair, method: str = "auto",
                           tol: float = TOL_DEFAULT,
                           eps_cluster: float = EPS_CLUSTER_DEFAULT,
                           max_iter: Optional[int] = None,
                           omega0: Optional[float] = None) -> InnerRadiusResult:
    """Minimize the largest eigenvalue of the rotated part of A + iB.

    ``pair`` is ``(A, B)``; for a matrix C pass ``hermitian_split(C)``.
    ``method`` is one of ``levelset`` (dense, level-set extraction),
    ``support`` (piecewise model of sinusoid supports), ``subspace``
    (projection loop, the only choice for large sparse pairs), or ``auto``.
    ``support`` and the reduced solves of ``subspace`` bound the rotated
    family by sinusoids u^* (A cos w + B sin w) u, so no curvature bound is
    computed.  A NaN, negative or infinite ``tol``, a NaN or negative
    ``eps_cluster`` or a negative ``max_iter`` raises ValueError.
    """
    check_options(tol, max_iter, eps_cluster)
    A, B = map(as_hermitian, pair)
    P = ParamHermitian.trig(A, B)
    n = A.dim
    if method == "auto":
        method = "support" if below_dense_threshold(n) else "subspace"
    # Each solver keeps its own default iteration limit.
    iters = {} if max_iter is None else {"max_iter": max_iter}
    if method == "levelset":
        if not ((A.is_dense and B.is_dense) or below_dense_threshold(n)):
            raise ValueError("levelset method requires dense input")
        Cd = A.dense + 1j * B.dense
        res, _ = _levelset.levelset_minimize(Cd, tol=tol, **iters)
    elif method == "support":
        res = _support.eigopt_minimize(
            P, tol=tol, omega0=omega0, eps_cluster=eps_cluster, **iters)
    elif method == "subspace":
        res, _ = _subspace.subspace_minimize(
            P, eps_cluster=eps_cluster, tol=tol, omega1=omega0, **iters)
    else:
        raise ValueError(f"unknown method {method!r}")
    f_star = res.f_star
    theta = res.omega_star % TWO_PI
    zero_in = f_star >= 0.0
    phi = theta if zero_in else (theta + np.pi) % TWO_PI
    return InnerRadiusResult(zeta=abs(f_star), theta_star=theta,
                             f_star=f_star, phi=phi, zero_in_fov=zero_in,
                             opt=res)


def crawford_number(A, B, method: str = "auto", **opts) -> CrawfordResult:
    """Crawford number of a Hermitian pair and its definiteness verdict.

    The pair is definite exactly when the minimal largest eigenvalue of the
    rotated part is negative; the Crawford number is then the inner
    numerical radius of A + iB, and zero otherwise.
    """
    res = inner_numerical_radius(pair=(A, B), method=method, **opts)
    return CrawfordResult(gamma=res.crawford, is_definite=not res.zero_in_fov,
                          witness=res)


def _converged_crawford(A, B, method: str, opts) -> CrawfordResult:
    """:func:`crawford_number`, raising ConvergenceFailure when its solve
    stopped short, for callers that build on the minimizing angle."""
    cr = crawford_number(A, B, method=method, **opts)
    opt = cr.witness.opt
    if not opt.converged:
        note = f": {opt.note}" if opt.note else ""
        raise ConvergenceFailure(
            f"Crawford number solve did not converge "
            f"({opt.status.value}){note}")
    return cr


def rotate_pair(A, B, theta: float):
    """(A_theta, B_theta) = (A cos t + B sin t, -A sin t + B cos t)."""
    A = as_hermitian(A).dense
    B = as_hermitian(B).dense
    c, s = np.cos(theta), np.sin(theta)
    return A * c + B * s, -A * s + B * c


def eigenpair_backmap(u_theta: float, v_theta: float, theta: float):
    """Map an eigenvalue pair of the rotated pencil back to the original.

    Applies the plane rotation to (v_theta, u_theta): a pair (u_t, v_t)
    with det(v_t A_theta - u_t B_theta) = 0 maps to (u, v) with
    det(v A - u B) = 0.
    """
    c, s = np.cos(theta), np.sin(theta)
    v = c * v_theta + s * u_theta
    u = -s * v_theta + c * u_theta
    return u, v


def nearest_definite_pair(A, B, delta: float, method: str = "auto",
                          variant: str = "clip", **opts) -> DefiniteRepair:
    """Distance to a nearest definite pair with optimal perturbations.

    The minimal perturbation ``(cos t, sin t) * D`` follows from the
    eigenpairs of the rotated part H(t) at the minimizing angle t that lie
    above ``-delta``, the only ones solved for: eigenvalue clipping
    ``D = V diag(-delta - lambda) V^*`` (``variant='clip'``) or the uniform
    shift ``D = -d*I`` (``variant='uniform'``).  The returned rotation
    angle psi makes B_tilde positive definite with smallest eigenvalue
    max(delta, gamma).  The certificates are r x r problems over those r
    eigenvectors (the top one when r = 0) and one Cholesky:

    - ``||[dA dB]||_2 = ||D||_2``, which for the clip is the largest
      eigenvalue of ``W^* W`` with ``W = V diag(sqrt(delta + lambda))``,
      must equal the distance; a V that is not orthonormal fails here;
    - the compression ``V^* B_tilde V`` gives ``mu >= lambda_min(B_tilde)``,
      a Cholesky of ``B_tilde - (mu - 1e-10*scale)*I`` proves
      ``lambda_min(B_tilde) > mu - 1e-10*scale``, and mu, reported as
      ``crawford_after``, must equal max(delta, gamma);
    - ``A_tilde + i*B_tilde = e^{-i*psi}((A + dA) + i(B + dB))``, checked
      one block of rows at a time;

    with ``scale`` an estimate of ``||[A B]||_2`` from below
    (:func:`~inropt.kernels.stacked_norm_below`), or 1 for a zero pair.  A
    scale from below can only tighten the three checks and the floor
    shift.  All checks run before returning; a Crawford solve that stops
    short raises ConvergenceFailure.
    """
    if not 0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    if variant not in ("clip", "uniform"):
        raise ValueError("variant must be 'clip' or 'uniform'")
    A, B = as_hermitian(A), as_hermitian(B)
    cr = _converged_crawford(A, B, method, opts)
    Ah, Bh, n = A.dense, B.dense, A.dim
    theta = cr.witness.theta_star
    c, s = np.cos(theta), np.sin(theta)
    scale = stacked_norm_below(Ah, Bh) or 1.0
    H = np.multiply(Ah, c, dtype=np.result_type(Ah, Bh, c))
    H += Bh * s
    H += H.conj().T
    H *= 0.5
    dec = hermitian_eig(as_hermitian(H, check=False), above=-delta)
    del H
    V, vals = dec.vectors, dec.values
    distance = max(delta + vals[0], 0.0)
    if variant == "clip":
        r = int(np.count_nonzero(vals > -delta))
        Vr, clip = V[:, :r], -delta - vals[:r]
        D = matmul(Vr * clip[np.newaxis, :], Vr.conj().T)
        D += D.conj().T
        D *= 0.5
        # D = -W W^*, whose nonzero eigenvalues are those of -W^* W.
        W = Vr * np.sqrt(-clip)[np.newaxis, :]
        pert_norm = (float(hermitian_eigvals(matmul(W.conj().T, W))[0])
                     if r else 0.0)
    else:
        D = -distance * np.eye(n)
        pert_norm = distance  # ||-d*I||_2
    dA = c * D
    D *= s
    dB = D
    psi = (theta + np.pi / 2.0) % TWO_PI
    cp, sn, rot = np.cos(psi), np.sin(psi), np.exp(-1j * psi)
    A_t = np.empty((n, n), dtype=complex)
    B_t = np.empty_like(A_t)
    ident = 0.0
    # By blocks of rows, so that A + dA and B + dB are never whole.
    for i in range(0, n, 64):
        rows = slice(i, i + 64)
        Ap, Bp = Ah[rows] + dA[rows], Bh[rows] + dB[rows]
        A_t[rows] = Ap * cp + Bp * sn
        B_t[rows] = Bp * cp - Ap * sn
        T = rot * (Ap + 1j * Bp)
        ident = max(ident, float(np.max(np.abs(A_t[rows] + 1j * B_t[rows]
                                               - T))))
    mu = float(hermitian_eigvals(matmul(V.conj().T, matmul(B_t, V)))[-1])
    shifted = B_t.copy()
    shifted.flat[::n + 1] -= mu - 1e-10 * scale
    floor_holds = is_pd(shifted, overwrite=True)
    target = max(delta, cr.gamma)
    checks = [
        ("perturbation norm equals the distance",
         abs(pert_norm - distance) <= 1e-8 * scale),
        ("B_tilde is positive definite at level max(delta, gamma)",
         abs(mu - target) <= 1e-8 * scale and mu > 0.0 and floor_holds),
        ("rotation identity", ident <= 1e-12 * scale),
    ]
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise VerificationFailure(
            "repair certificate failed: " + "; ".join(failed))
    return DefiniteRepair(distance=float(distance), deltaA=dA, deltaB=dB,
                          psi=float(psi), A_tilde=A_t, B_tilde=B_t,
                          crawford_after=mu, theta_star=float(theta))


def is_hyperbolic(Aq, Bq, Cq, method: str = "auto", **opts):
    """Hyperbolicity of the quadratic problem l^2 Aq + l Bq + Cq.

    Requires positive definite Aq; the verdict is the definiteness of the
    structured pair built from the three coefficients.  Returns
    ``(hyperbolic, witness)``.
    """
    if not is_pd(Aq):
        raise NotPositiveDefiniteMass(
            "leading QEP coefficient is not positive definite")
    A1, B1 = qep_linearization(Aq, Bq, Cq)
    cr = crawford_number(A1, B1, method=method, **opts)
    return cr.is_definite, cr.witness


def saddle_shift(S, n: int, m: int, method: str = "auto", **opts):
    """Shift making a saddle-point matrix positive definite, if one exists.

    Tests definiteness of (S, J) with J = diag(I_n, -I_m).  When definite,
    the boundary angle of the field of values gives the shift
    mu = cos(phi - pi/2) / sin(phi - pi/2), and S - mu*J is verified
    positive definite.  Returns ``(mu, lambda_min)`` or ``None`` when the
    pair is indefinite.  A Crawford solve that stops short raises
    ConvergenceFailure.
    """
    Sop = as_hermitian(S)
    if Sop.dim != n + m:
        raise ValueError("S must have dimension n + m")
    signs = np.concatenate([np.ones(n), -np.ones(m)])
    J = sp.diags(signs).tocsr() if not Sop.is_dense else np.diag(signs)
    cr = _converged_crawford(Sop, J, method, opts)
    if not cr.is_definite:
        return None
    phi_b = cr.witness.phi
    phi_shift = phi_b - np.pi / 2.0
    if abs(np.sin(phi_shift)) < 1e-300:
        raise VerificationFailure("degenerate boundary angle")
    mu = np.cos(phi_shift) / np.sin(phi_shift)
    M = Sop.dense - mu * np.diag(signs)
    M = (M + M.conj().T) / 2.0
    lam_min = float(hermitian_eigvals(M)[-1])
    if not is_pd(M):
        raise VerificationFailure(
            f"definite pair but S - mu*J has lambda_min = {lam_min:.3e}")
    return float(mu), lam_min
