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
                      hermitian_eigvals, hermitian_split, is_pd, matmul)
from .param import EPS_CLUSTER_DEFAULT, ParamHermitian
from .results import MinResult
from . import levelset as _levelset
from . import subspace as _subspace
from . import support as _support

TWO_PI = 2.0 * np.pi


@dataclass
class InnerRadiusResult:
    """Inner numerical radius with the minimizing angle and boundary data.

    ``zeta`` is |f_star|; ``zero_in_fov`` says whether the origin lies in
    the field of values (f_star >= 0); ``phi`` is the angle at which the
    closest boundary point zeta * e^{i*phi} is attained.
    """

    zeta: float
    theta_star: float
    f_star: float
    phi: float
    zero_in_fov: bool
    opt: MinResult


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
                           tol: float = 1e-12,
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
    computed.
    """
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
    definite = res.f_star < 0.0
    gamma = res.zeta if definite else 0.0
    return CrawfordResult(gamma=gamma, is_definite=definite, witness=res)


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

    The minimal perturbation follows from the spectral decomposition of the
    rotated part at the minimizing angle: eigenvalue clipping
    (``variant='clip'``) or the uniform shift ``-d*cos/sin(theta)*I``
    (``variant='uniform'``).  The returned rotation angle psi makes
    B_tilde positive definite with smallest eigenvalue max(delta, gamma).
    All certificate checks run before returning; a Crawford solve that
    stops short raises ConvergenceFailure.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if variant not in ("clip", "uniform"):
        raise ValueError("variant must be 'clip' or 'uniform'")
    Ah = as_hermitian(A).dense
    Bh = as_hermitian(B).dense
    cr = _converged_crawford(Ah, Bh, method, opts)
    theta = cr.witness.theta_star
    # The A part of rotate_pair(Ah, Bh, theta), without its checks and B part.
    H = Ah * np.cos(theta) + Bh * np.sin(theta)
    dec = hermitian_eig((H + H.conj().T) / 2.0)
    lam1 = dec.values[0]
    distance = max(delta + lam1, 0.0)
    if variant == "clip":
        # Only the eigenvalues above -delta, a leading block of the
        # descending values, have a nonzero clip.
        r = int(np.count_nonzero(dec.values > -delta))
        V = dec.vectors[:, :r]
        D = matmul(V * (-delta - dec.values[:r])[np.newaxis, :], V.conj().T)
        D = (D + D.conj().T) / 2.0
    else:
        D = -distance * np.eye(len(dec.values))
    dA = np.cos(theta) * D
    dB = np.sin(theta) * D
    psi = (theta + np.pi / 2.0) % TWO_PI
    T = np.exp(-1j * psi) * ((Ah + dA) + 1j * (Bh + dB))
    A_t, B_t = hermitian_split(T)
    lam_min_Bt = float(hermitian_eigvals(B_t)[-1])

    scale = max(1.0, _stacked_norm(Ah, Bh))
    pert_norm = _stacked_norm(dA, dB) if distance > 0 else 0.0
    target = max(delta, cr.gamma)
    checks = [
        ("perturbation norm equals the distance",
         abs(pert_norm - distance) <= 1e-8 * scale),
        ("B_tilde is positive definite at level max(delta, gamma)",
         abs(lam_min_Bt - target) <= 1e-8 * scale and lam_min_Bt > 0.0),
        ("rotation identity",
         float(np.max(np.abs((A_t + 1j * B_t) - T))) <= 1e-12 * scale),
    ]
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise VerificationFailure(
            "repair certificate failed: " + "; ".join(failed))
    return DefiniteRepair(distance=float(distance), deltaA=dA, deltaB=dB,
                          psi=float(psi), A_tilde=A_t, B_tilde=B_t,
                          crawford_after=lam_min_Bt, theta_star=float(theta))


def _stacked_norm(X, Y) -> float:
    """``||[X Y]||_2`` of two dense n x n matrices, as the square root of the
    largest eigenvalue of the n x n Gram matrix ``X X^* + Y Y^*``: no SVD of
    the n x 2n block."""
    G = matmul(X, X.conj().T) + matmul(Y, Y.conj().T)
    return float(np.sqrt(max(hermitian_eigvals(G)[0], 0.0)))


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
