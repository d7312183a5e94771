"""One-parameter Hermitian families  A(w) = sum_j f_j(w) A_j.

Provides evaluation, eigenvalue derivatives, one-sided derivative intervals
at clustered eigenvalues, projection onto orthonormal bases, and a
curvature bound for quadratic supports of the rotated pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonHermitianInput
from .kernels import (Basis, HermitianOperator, as_hermitian,
                      hermitian_eigvals, largest_eigpairs, matmul,
                      shift_plan, spectral_norm_ub)

EPS_CLUSTER_DEFAULT = 1e-6
MAX_CLUSTER_DEFAULT = 10


@dataclass(frozen=True)
class Term:
    """One real coefficient function, its derivative, and its matrix."""

    fun: Callable[[float], float]
    dfun: Callable[[float], float]
    matrix: HermitianOperator


class ParamHermitian:
    """Hermitian family A(w) = sum_j f_j(w) A_j over a closed interval.

    A(w) is assembled in the storage and dtype of its terms: a family with
    any sparse term evaluates to CSR, a dense one to an array whose dtype
    is that of the sum, so a real family evaluates in real arithmetic.  A
    sparse family stores one pattern, the union of its terms' patterns
    plus the diagonal, and every A(w) and A'(w) lies on it, with the
    family's one :class:`~inropt.kernels.ShiftPlan`.
    """

    def __init__(self, terms: Sequence[Term], omega_range):
        if not terms:
            raise ValueError("term list must be non-empty")
        dims = {t.matrix.dim for t in terms}
        if len(dims) != 1:
            raise ValueError(f"terms have mixed dimensions {sorted(dims)}")
        a, b = float(omega_range[0]), float(omega_range[1])
        if a > b:
            raise ValueError("domain interval must satisfy a <= b")
        self.terms = tuple(terms)
        # Storage for evaluation, chosen once: the dense arrays as given, or,
        # when any term is sparse, the terms' data arrays on one CSR pattern
        # and that pattern's shift plan, shared by every evaluation.
        # project() reads the terms.
        self._parts = [t.matrix.raw for t in self.terms]
        self._plan = None
        if not all(t.matrix.is_dense for t in self.terms):
            self._plan, self._parts = shift_plan(self._parts)
        self.omega_range = (a, b)
        self.is_trig = False  # only trig() sets it; project() carries it
        self.dim = dims.pop()

    @classmethod
    def trig(cls, A, B) -> "ParamHermitian":
        """The rotated Hermitian part  A*cos(w) + B*sin(w)  on [0, 2*pi]."""
        A = as_hermitian(A)
        B = as_hermitian(B)
        if A.dim != B.dim:
            raise ValueError("A and B must have the same dimension")
        terms = (
            Term(np.cos, lambda w: -np.sin(w), A),
            Term(np.sin, np.cos, B),
        )
        P = cls(terms, (0.0, 2.0 * np.pi))
        P.is_trig = True
        return P

    def _combine(self, coeffs) -> HermitianOperator:
        if any(np.imag(c) != 0 for c in coeffs):  # keeps A(w) Hermitian
            raise NonHermitianInput(f"complex coefficients {coeffs!r}")
        # Folded from the first term: sum() would start from the int 0.
        out = coeffs[0] * self._parts[0]
        for c, X in zip(coeffs[1:], self._parts[1:]):
            out = out + c * X
        if self._plan is not None:
            out = self._plan.matrix(out)
        return HermitianOperator(out, check=False, plan=self._plan)

    def evaluate(self, omega: float) -> HermitianOperator:
        """A(w).  Evaluation outside the domain is permitted (line searches)."""
        return self._combine([t.fun(omega) for t in self.terms])

    def derivative_matrix(self, omega: float) -> HermitianOperator:
        """dA/dw at w."""
        return self._combine([t.dfun(omega) for t in self.terms])

    def project(self, V: Basis) -> "ParamHermitian":
        """Compressed family with terms V^* A_j V (coefficients shared)."""
        if V.dim != self.dim:
            raise ValueError("basis dimension does not match family dimension")
        terms = []
        for t in self.terms:
            red = matmul(V.cols.conj().T, t.matrix.apply(V.cols))
            red = (red + red.conj().T) / 2.0
            terms.append(Term(t.fun, t.dfun,
                              HermitianOperator(red, check=False)))
        reduced = ParamHermitian(terms, self.omega_range)
        reduced.is_trig = self.is_trig
        return reduced

    def __repr__(self):
        return (f"ParamHermitian(dim={self.dim}, terms={len(self.terms)}, "
                f"domain={self.omega_range})")


@dataclass(frozen=True)
class EigEval:
    """Largest eigenvalue of A(w) with derivative data at one point."""

    omega: float
    lambda_max: float
    derivative: float
    cluster_size: int


@dataclass(frozen=True)
class ClarkeInterval:
    """Interval of one-sided derivative limits of lambda_max at a point."""

    lo: float
    hi: float

    @property
    def contains_zero_strictly(self) -> bool:
        return self.lo < 0.0 < self.hi


# Eigenvalues closer than this times |lambda_max| are a numerically exact
# tie; only then is the eigenvector attribution arbitrary enough to need the
# derivative-interval slope.  Looser gates would build supports with the
# wrong branch slope near a kink and break the lower-bound certificate.
TIE_TOL = 1e-13


@dataclass(frozen=True)
class TopCluster:
    """lambda_max(A(w)), its eigenvalue cluster U and derivative block.

    ``values`` are the eigenvalues within ``eps_cluster`` of the largest (at
    most ``max_pairs``) and ``vectors`` the columns of U.  ``derivative``
    is the Hermitian p x p block U^* A'(w) U; its leading entry is the top
    eigenvector's derivative and its eigenvalues the slopes of the
    cluster's eigenvalue branches.
    """

    omega: float
    values: np.ndarray
    vectors: np.ndarray
    derivative: np.ndarray

    @property
    def lambda_max(self) -> float:
        return float(self.values[0])

    @property
    def top_derivative(self) -> float:
        return float(self.derivative[0, 0].real)

    @property
    def slope(self) -> float:
        tie = TIE_TOL * abs(self.lambda_max)
        m = 1
        while m < len(self.values) and self.values[0] - self.values[m] <= tie:
            m += 1
        if m == 1:
            return self.top_derivative
        return float(hermitian_eigvals(self.derivative[:m, :m])[0])

    @property
    def clarke(self) -> ClarkeInterval:
        w = hermitian_eigvals(self.derivative)
        return ClarkeInterval(lo=float(w[-1]), hi=float(w[0]))


def top_cluster(P: ParamHermitian, omega: float,
                eps_cluster: float = EPS_CLUSTER_DEFAULT,
                lower: Optional[float] = None,
                max_pairs: int = MAX_CLUSTER_DEFAULT) -> TopCluster:
    """The largest-eigenvalue cluster U of A(w) with U^* A'(w) U, the one
    use of A'(w), which is dropped once the block is formed.  ``lower`` and
    ``max_pairs`` go to :func:`largest_eigpairs`.
    """
    vals, vecs = largest_eigpairs(P.evaluate(omega), eps_cluster,
                                  max_pairs, lower)
    S = matmul(vecs.conj().T, P.derivative_matrix(omega).apply(vecs))
    return TopCluster(float(omega), vals, vecs, (S + S.conj().T) / 2.0)


def eig_max_eval(P: ParamHermitian, omega: float) -> EigEval:
    """lambda_max(A(w)) with its derivative v^* A'(w) v.

    ``cluster_size`` counts the eigenvalues within ``EPS_CLUSTER_DEFAULT``
    of the largest; at points where the largest eigenvalue is simple the
    derivative is the classical analytic one.
    """
    tc = top_cluster(P, omega)
    return EigEval(omega=tc.omega, lambda_max=tc.lambda_max,
                   derivative=tc.top_derivative,
                   cluster_size=len(tc.values))


def clarke_interval(P: ParamHermitian, omega: float) -> ClarkeInterval:
    """Extreme eigenvalues of U^* A'(w) U over the lambda_max cluster U.

    For a simple largest eigenvalue the interval degenerates to the point
    derivative; a sharp non-smooth minimizer is flagged by
    ``contains_zero_strictly``.
    """
    return top_cluster(P, omega).clarke


def support_slope(P: ParamHermitian, omega: float):
    """(lambda_max, slope, cluster_size) for support construction.

    At a numerically exact tie of the largest eigenvalue the slope is the
    largest eigenvalue of U^* A'(w) U over the tied invariant subspace (the
    right-hand derivative); otherwise it is the analytic derivative of the
    computed top eigenvector's branch.  ``cluster_size`` still counts the
    ``EPS_CLUSTER_DEFAULT`` neighborhood for diagnostics.
    """
    tc = top_cluster(P, omega)
    return tc.lambda_max, tc.slope, len(tc.values)


def default_gamma_trig(A, B) -> float:
    """Lower curvature bound -(||A||_2 + ||B||_2) for the rotated part.

    Returns 0.0 only when both matrices vanish, where affine supports
    bound the constant zero function.
    """
    return -(spectral_norm_ub(A) + spectral_norm_ub(B))

