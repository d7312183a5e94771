"""Dense and sparse spectral primitives.

Everything downstream (the parameterized family, the three optimizers, the
definiteness layer) goes through the small set of operations in this module:
Hermitian eigendecomposition, positive-definiteness tests (Cholesky for
dense, symmetric LDL^T for sparse storage), clustered largest-eigenpair
extraction, unit-circle pencil eigenvalues, and orthonormal basis extension.
Every dense Hermitian eigensolve of the package goes through one function,
:func:`_dense_eigh`, and the dimension alone picks its library: numpy's
below ``SUBSET_THRESHOLD``, and from there on scipy's LAPACK ?heevr/?syevr
for the top eigenpairs only.  Dense products (:func:`matmul`) and Cholesky
tests (:func:`is_pd`) follow the same threshold, so that an evaluation loop
keeps to one of the two OpenBLAS copies that numpy and scipy load.  The
level-set pencil, which is not Hermitian, stays on numpy.
On large sparse operators LDL^T PD tests gallop a shift up from an
estimate of the largest eigenvalue, a loose Lanczos cycle moves a distant
shift closer, shift-invert Lanczos starts from two pairs, and an LDL^T
inertia count certifies the size of the cluster it returns.

All types are immutable after construction and safe to share across threads;
every operation is a pure function of its inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure, NonHermitianInput, SingularPencil

# Below this dimension, iterative paths densify instead.
DENSE_THRESHOLD = 1000
# From this dimension on, dense storage solves for the top eigenpairs only,
# through LAPACK ?heevr/?syevr, and every dense product, eigensolve and
# Cholesky at that size runs on scipy's OpenBLAS as well: numpy loads another
# copy, and alternating between the two thread pools costs more than the
# subset saves.  Below it, the numpy work next to the evaluations (the
# level-set pencil of a 140- or 200-dimensional pair) slowed by more than
# the subset saved (BENCH_15.json).
SUBSET_THRESHOLD = 256
# Residual tolerance for accepted eigenpairs, relative to ||M||_2.
EIG_RESIDUAL_TOL = 1e-10
# The sparse path tests the shift REFINED_REL_GAP * ||M||_1 above an
# estimate of lambda_max from below, and multiplies that gap by SHIFT_GALLOP
# on each failed PD test.  A shift that passes more than SHIFT_GALLOP times
# the first gap above the estimate takes one loose Lanczos cycle, to this
# relative tolerance on its Ritz value, for a closer estimate.
REFINED_REL_GAP = 1e-5
SHIFT_GALLOP = 10.0
REFINE_TOL = 1e-2
# Hermitian symmetry tolerance, relative to max(1, ||M||_F).
HERMITIAN_TOL = 1e-12
# orthonormal_extend drops a vector whose remainder is below this fraction
# of its norm.
DROP_TOL = 1e-12
# pencil_unit_eigs keeps eigenvalues within this tolerance, relative to
# max(1, ||C||_2), of the unit circle.
CIRCLE_TOL = 1e-8
# Below this reciprocal 1-norm condition of C^* the level pencil goes to QZ.
PENCIL_RCOND_MIN = 1e-8


class HermitianOperator:
    """A Hermitian matrix in the storage it entered with.

    ``raw`` is a dense ndarray or a CSR matrix, fixed at construction;
    whether the matrix is dense, its dense view and its products all follow
    from it.
    """

    def __init__(self, mat, check: bool = True):
        self.raw = mat.tocsr() if sp.issparse(mat) else np.asarray(mat)
        if self.raw.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        n, m = self.raw.shape
        if n != m or n < 1:
            raise ValueError(f"expected a square matrix, got shape {(n, m)}")
        self.dim = n
        if check:
            self._check_hermitian()

    def _check_hermitian(self):
        M = self.raw
        # A NaN deviation compares False against any tolerance.
        if not np.isfinite(M if self.is_dense else M.data).all():
            raise NonHermitianInput("matrix has non-finite entries")
        dev = abs(M - M.conj().T).max()
        norm = np.linalg.norm if self.is_dense else spla.norm
        scale = max(1.0, float(norm(M)))
        if dev > HERMITIAN_TOL * scale:
            raise NonHermitianInput(
                f"symmetry deviation {dev:.3e} exceeds {HERMITIAN_TOL:.0e} * {scale:.3e}"
            )

    @property
    def is_dense(self) -> bool:
        return isinstance(self.raw, np.ndarray)

    @property
    def dense(self) -> np.ndarray:
        """Dense view of the matrix (materializes sparse storage)."""
        return self.raw if self.is_dense else self.raw.toarray()

    def apply(self, x: np.ndarray) -> np.ndarray:
        return matmul(self.raw, x) if self.is_dense else self.raw @ x

    def __repr__(self):
        kind = "dense" if self.is_dense else "sparse"
        return f"HermitianOperator(dim={self.dim}, {kind})"


def as_hermitian(M, check: bool = True) -> HermitianOperator:
    """Coerce an ndarray / sparse matrix / HermitianOperator."""
    if isinstance(M, HermitianOperator):
        return M
    return HermitianOperator(M, check=check)


@dataclass(frozen=True)
class EigDecomposition:
    """Full Hermitian eigendecomposition, eigenvalues sorted descending."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class Basis:
    """Matrix with orthonormal columns spanning a subspace of C^dim."""

    dim: int
    cols: np.ndarray

    @classmethod
    def empty(cls, dim: int) -> "Basis":
        return cls(dim, np.zeros((dim, 0), dtype=complex))

    @property
    def size(self) -> int:
        return self.cols.shape[1]


def below_dense_threshold(n: int) -> bool:
    """The dense/Lanczos crossover: dimension ``n`` takes the dense path."""
    return n < DENSE_THRESHOLD


def hermitian_split(C):
    """Hermitian pair (A, B) with C = A + iB."""
    C = np.asarray(C, dtype=complex)
    A = (C + C.conj().T) / 2.0
    B = -1j * (C - C.conj().T) / 2.0
    return A, B


def hermitian_eig(M, above: Optional[float] = None) -> EigDecomposition:
    """Eigendecomposition of a dense Hermitian matrix.

    Eigenvalues are returned in descending order, with orthonormal
    eigenvector columns paired to them: all n of them, or with ``above``
    only those above that value, and at least the top one.
    """
    op = as_hermitian(M)
    vals, vecs = _dense_eigh(op.dense, op.dim if above is None else 1,
                             vectors=True, above=above)
    return EigDecomposition(values=vals, vectors=vecs)


def hermitian_eigvals(M) -> np.ndarray:
    """Eigenvalues of a dense Hermitian matrix, in descending order."""
    M = as_hermitian(M, check=False).dense
    return _dense_eigh(M, M.shape[0], vectors=False)[0]


def _dense_eigh(M: np.ndarray, k: int, vectors: bool,
                above: Optional[float] = None):
    """The k largest eigenvalues of a dense Hermitian M, descending, with
    their eigenvector columns (None when ``vectors`` is false).  With
    ``above``, every eigenvalue above that value, and at least the top k.

    Every dense Hermitian eigensolve goes through here.  Below
    ``SUBSET_THRESHOLD`` it is numpy's full ``eigh``/``eigvalsh``, sliced;
    from there on scipy's LAPACK ?heevr/?syevr on the upper triangle, with
    its optimal workspace, for the index range of the top k only, or for
    the value range above ``above``.  An index range that cuts through a
    tie can come back short, with fewer than k pairs; the top k of the full
    decomposition then replace them.  A value range with fewer than k
    values is replaced by the index range of the top k.  A LAPACK failure
    raises ConvergenceFailure.
    """
    n = M.shape[0]
    try:
        if n < SUBSET_THRESHOLD:
            w, V = (np.linalg.eigh(M) if vectors
                    else (np.linalg.eigvalsh(M), None))
        else:
            if above is not None:
                subset = {"subset_by_value": (above, np.inf)}
            else:
                subset = {"subset_by_index":
                          None if k >= n else (n - k, n - 1)}
            out = sla.eigh(np.asarray(M, dtype=np.result_type(M, np.float64)),
                           lower=False, driver="evr", **subset,
                           eigvals_only=not vectors, check_finite=False)
            w, V = out if vectors else (out, None)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc
    if above is not None:
        k = max(k, int(np.count_nonzero(w > above)))
    if len(w) < k:
        w, V = _dense_eigh(M, n if above is None else k, vectors)
        return w[:k], (V[:, :k] if vectors else None)
    return w[::-1][:k].copy(), (V[:, ::-1][:, :k].copy() if vectors else None)


@functools.lru_cache(maxsize=None)
def _gemm(dtype: np.dtype):
    """scipy's BLAS ``gemm`` for ``dtype``, looked up once."""
    return sla.get_blas_funcs(("gemm",), dtype=dtype)[0]


def is_pd(M, overwrite: bool = False) -> bool:
    """Positive definiteness of a Hermitian matrix, dense or sparse.

    Dense input takes Cholesky on its lower triangle, numpy's below
    ``SUBSET_THRESHOLD`` and from there on scipy's LAPACK ?potrf, the
    library of the eigensolves and products of that size; ``overwrite``
    lets ?potrf factor a C-ordered M in place instead of in a copy.  Sparse
    input takes the symmetric LDL^T factorization of :func:`_ldl`.
    """
    if sp.issparse(M):
        return _ldl(M) is not None
    M = np.asarray(M)
    if M.shape[0] < SUBSET_THRESHOLD:
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return False
        return True
    # The upper triangle of M^T, which LAPACK sees in Fortran order, is M's
    # lower triangle, conjugated: the same definiteness.
    potrf, = sla.get_lapack_funcs(("potrf",), (M,))
    return potrf(M.T, lower=False, clean=False, overwrite_a=overwrite)[1] == 0


def _ldl_inertia(M):
    """Symmetric LDL^T factor of a sparse Hermitian M and its inertia count.

    The factorization uses a fill-reducing symmetric ordering and takes
    every pivot from the diagonal, so it is M's LDL^T (U = D L^*) exactly
    when no row was pivoted away from its column.  By Sylvester's law of
    inertia the number of pivots that are not positive is then the number
    of eigenvalues of M at or below 0.  Returns ``(lu, count)``, or None
    when the factorization is singular or pivoted.
    """
    try:
        lu = spla.splu(sp.csc_matrix(M), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return lu, int(np.count_nonzero(lu.U.diagonal().real <= 0.0))


def _ldl(M):
    """SuperLU factor of a sparse Hermitian M when M is positive definite.

    Positive definite means every pivot of :func:`_ldl_inertia` is
    positive.  A singular or pivoted factorization returns None.
    """
    factor = _ldl_inertia(M)
    if factor is not None and factor[1] == 0:
        return factor[0]
    return None


def _residual_check(M, vals, vecs, norm_scale):
    R = M @ vecs - vecs * vals[np.newaxis, :]
    res = np.linalg.norm(R, axis=0)
    return np.all(res <= EIG_RESIDUAL_TOL * max(norm_scale, 1e-300))


def largest_eigpairs(M, eps_cluster: float, max_pairs: int,
                     lower: Optional[float] = None):
    """Largest eigenvalue plus its eps_cluster-cluster, with eigenvectors.

    Returns ``(values, vectors)`` where values[0] is the largest eigenvalue
    and every further value lies within ``eps_cluster`` of it (capped at
    ``max_pairs``).  Dense storage, or any operator below the dense
    threshold, takes the top ``max_pairs`` eigenpairs of
    :func:`_dense_eigh`.  Larger sparse operators take the
    certified shift-invert Lanczos of :func:`_top_eigpairs_sparse`, which
    raises ConvergenceFailure unless the largest eigenvalue and the size of
    its cluster are certified.  An infinite ``eps_cluster`` asks
    for the ``max_pairs`` largest pairs.  ``lower`` is a hint expected to
    lie at or below the largest eigenvalue, such as a Ritz value; the
    sparse path starts its shift search from it and the dense path ignores
    it.  It is never trusted: a wrong hint changes only the cost.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    op = as_hermitian(M)
    n = op.dim
    if not (op.is_dense or below_dense_threshold(n)):
        vals, vecs = _top_eigpairs_sparse(op, eps_cluster, max_pairs, lower)
    else:
        vals, vecs = _dense_eigh(op.dense, min(max_pairs, n), vectors=True)
    keep = 1
    while (keep < min(max_pairs, len(vals))
           and vals[0] - vals[keep] <= eps_cluster):
        keep += 1
    return vals[:keep].copy(), vecs[:, :keep].copy()


def _top_eigpairs_sparse(op: HermitianOperator, eps_cluster: float,
                         max_pairs: int, lower: Optional[float] = None):
    """Largest eigenpairs of a sparse Hermitian operator, descending.

    The pairs returned hold the largest eigenvalue and its whole
    ``eps_cluster``-cluster, or at least ``max_pairs`` members of it.

    1. Shift: Lanczos converges at a rate set by how close sigma sits above
       lambda_max.  The estimate ``est`` starts at the larger of
       ``max_i M_ii`` and the hint ``lower`` (capped at ``||M||_1``), both
       at or below lambda_max when the hint is valid; the hint is never
       trusted.  The shift
       ``sigma = est + gap`` takes a PD test of ``sigma*I - M``, from
       ``gap = REFINED_REL_GAP * ||M||_1``, and each failed test multiplies
       the gap by ``SHIFT_GALLOP``.  A failed test past ``||M||_1`` raises
       ConvergenceFailure.  A passed test certifies ``sigma > lambda_max``.
    2. Refine: a sigma that passed with a gap above ``SHIFT_GALLOP`` times
       the first takes one loose ``k = 1`` Lanczos cycle on
       ``(sigma*I - M)^{-1}``.  Its Ritz value theta never exceeds the top
       eigenvalue ``1/(sigma - lambda_max)``, so ``sigma - 1/theta`` is at
       or below lambda_max; when it is above ``est`` it becomes ``est`` and
       step 1 restarts from the first gap.  A cycle that stops short, or an
       estimate no higher, keeps sigma: it is certified, and its factor is
       the only one that outlives the search.
    3. Solve: Lanczos on ``(sigma*I - M)^{-1}`` for ``k = 2`` pairs, whose
       largest eigenvalues ``1/(sigma - lambda)`` belong to the largest
       eigenvalues of M and are well separated even when M's are clustered.
    4. Eigenpairs: Rayleigh-Ritz on the Lanczos vectors, verified residuals.
    5. Certificate of the top: ``(lambda_0 + EIG_RESIDUAL_TOL*||M||_1)*I - M``
       must be positive definite, so by Sylvester's law of inertia no
       eigenvalue lies above the reported one.
    6. Certificate of the cluster (the spectral-transformation Lanczos check
       of Ericsson and Ruhe): the inertia count of ``s*I - M`` at
       ``s = lambda_0 - eps_cluster - EIG_RESIDUAL_TOL*||M||_1`` is the
       number of eigenvalues at or above s.  While it exceeds the Ritz
       values found there, k grows strictly, to ``min(kmax, max(k, count)
       + 1)`` with ``kmax = min(max_pairs + 1, n - 1)``, and steps 3-6
       repeat.  A count that still exceeds them at ``kmax``, with fewer than
       ``max_pairs`` cluster values found, raises ConvergenceFailure, as
       does a pivoted count.  An infinite ``eps_cluster`` asks for ``kmax``
       pairs at once and takes no count.
    """
    M = op.raw
    n = op.dim
    eye = sp.identity(n, dtype=M.dtype, format="csr")
    norm1 = spectral_norm_ub(op)
    scale = norm1 or 1.0  # the zero matrix still needs a positive gap
    start = REFINED_REL_GAP * scale
    # Diagonal entries are Rayleigh quotients, at or below lambda_max; no
    # valid hint lies above ||M||_1.
    est, gap = float(M.diagonal().real.max()), start
    if lower is not None:
        est = max(est, min(lower, norm1))
    # A fixed start vector makes repeated calls return the same bits.
    v0 = np.random.default_rng(12345).standard_normal(n).astype(M.dtype)
    while True:
        sigma = est + gap
        lu = _ldl(sigma * eye - M)
        if lu is None:
            if sigma > norm1:  # past every eigenvalue, yet no factor
                raise ConvergenceFailure(
                    f"no positive definite shift found up to {sigma:.17g}")
            gap *= SHIFT_GALLOP
            continue
        inverse = spla.LinearOperator(M.shape, matvec=lu.solve, dtype=M.dtype)
        if gap <= SHIFT_GALLOP * start:
            break
        try:
            theta = spla.eigsh(inverse, k=1, which="LA", tol=REFINE_TOL,
                               ncv=min(n, 20), v0=v0,
                               return_eigenvectors=False)
        except spla.ArpackNoConvergence:
            break
        # theta <= 1/(sigma - lambda_max), so the estimate <= lambda_max.
        refined = sigma - 1.0 / np.real(theta).max()
        if refined <= est:
            break
        est, gap = refined, start
    kmax = min(max_pairs + 1, n - 1)
    k = kmax if np.isinf(eps_cluster) else min(2, kmax)
    while True:
        try:
            _, V = spla.eigsh(inverse, k=k, which="LA", tol=0,
                              ncv=min(n, max(4 * k + 1, 20)),
                              maxiter=200 * n, v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceFailure(
                f"shift-invert Lanczos did not converge: {exc}") from exc
        # eigsh hands complex input to non-Hermitian Arnoldi, whose vectors
        # for a multiple eigenvalue are not orthogonal.  Rayleigh-Ritz on
        # their span: the pencil's k x k Cholesky is cheaper here than a QR
        # of the tall V.
        vals, Y = sla.eigh(V.conj().T @ (M @ V), V.conj().T @ V)
        vals, V = vals[::-1], V @ Y[:, ::-1]
        if not _residual_check(M, vals, V, norm1):
            raise ConvergenceFailure("eigenpair residuals above tolerance")
        if _ldl((vals[0] + EIG_RESIDUAL_TOL * scale) * eye - M) is None:
            raise ConvergenceFailure(
                f"inertia certificate failed: an eigenvalue lies above the "
                f"reported largest {vals[0]:.17g}")
        if np.isinf(eps_cluster):
            return vals, V
        shift = vals[0] - eps_cluster - EIG_RESIDUAL_TOL * scale
        factor = _ldl_inertia(shift * eye - M)
        if factor is None:
            raise ConvergenceFailure(
                f"cluster certificate failed: no inertia count at "
                f"{shift:.17g}, the factorization pivoted or is singular")
        count, found = factor[1], int(np.count_nonzero(vals >= shift))
        if count <= found:
            return vals, V
        if k == kmax:
            if np.count_nonzero(vals[0] - vals <= eps_cluster) < max_pairs:
                raise ConvergenceFailure(
                    f"cluster certificate failed: {count} eigenvalues lie "
                    f"at or above {shift:.17g}, Lanczos found {found}")
            return vals, V
        k = min(kmax, max(k, count) + 1)


def spectral_norm_ub(M) -> float:
    """Upper bound on the spectral norm ||M||_2 of a Hermitian matrix.

    Dense storage takes the exact extreme of ``|lambda|``; sparse operators
    take the largest absolute column sum ``||M||_1``, which bounds ``||M||_2``
    because ``||M||_2 <= sqrt(||M||_1 ||M||_inf) = ||M||_1`` for Hermitian M.
    """
    op = as_hermitian(M, check=False)
    if op.is_dense or below_dense_threshold(op.dim):
        w = hermitian_eigvals(op)
        return float(max(abs(w[0]), abs(w[-1])))
    return float(spla.norm(op.raw, 1))


def pencil_unit_eigs(C: np.ndarray, alpha: float,
                     norm_c: Optional[float] = None):
    """Angles of near-unit-modulus eigenvalues of the level pencil.

    Builds ``R(alpha) = [[2*alpha*I, -C], [I, 0]]`` against
    ``S = diag(C^*, I)`` and returns ``arg(lambda)`` in [0, 2*pi), sorted,
    for every generalized eigenvalue with ``||lambda| - 1|`` below
    ``CIRCLE_TOL * max(1, ||C||_2)``.  They include the crossings of every
    eigenvalue branch, not only of the largest; the caller classifies the
    gaps between them.  A well-conditioned ``C`` takes the standard
    eigenproblem of ``S^{-1} R``, any other the QZ algorithm.  ``norm_c``
    is ``||C||_2`` when the caller has it, as a solve over several levels
    of one C does; None takes it here.
    """
    C = np.asarray(C, dtype=complex)
    if C.shape[0] != C.shape[1]:
        raise ValueError("C must be square")
    if norm_c is None:
        norm_c = float(np.linalg.norm(C, 2))
    n = C.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    ev = None
    # S^{-1} R = [[2*alpha*C^{-*}, -C^{-*} C], [I, 0]]; the solve also gives
    # C^{-*} for the condition estimate.
    Ch = C.conj().T
    try:
        Y = np.linalg.solve(Ch, np.hstack([eye, -C]))
        rcond = 1.0 / (np.linalg.norm(Ch, 1) * np.linalg.norm(Y[:, :n], 1))
        if rcond > PENCIL_RCOND_MIN:
            Y[:, :n] *= 2.0 * alpha
            ev = np.linalg.eigvals(np.vstack([Y, np.hstack([eye, zero])]))
    except np.linalg.LinAlgError:
        pass
    if ev is None:
        # QZ on C; a singular pencil direction leaves no finite eigenvalue,
        # so nudge C off the singularity and retry once with a fixed
        # unit-modulus rotation (keeps runs deterministic).
        nudge = np.exp(0.7j) * 1e-14 * max(norm_c, 1.0) * eye
        for Cmat in (C, C + nudge):
            R = np.block([[2.0 * alpha * eye, -Cmat], [eye, zero]])
            S = np.block([[Cmat.conj().T, zero], [zero, eye]])
            try:
                ev = sla.eig(R, S, right=False)
            except (sla.LinAlgError, ValueError):
                continue
            ev = ev[np.isfinite(ev)]
            if ev.size:
                break
        else:
            raise SingularPencil(
                "level pencil is singular; perturbation retry failed")
    keep = np.abs(np.abs(ev) - 1.0) <= CIRCLE_TOL * max(1.0, norm_c)
    return np.sort(np.mod(np.angle(ev[keep]), 2.0 * np.pi))


def orthonormal_extend(V: Basis, W) -> Basis:
    """Extend an orthonormal basis by the span of additional vectors.

    Block classical Gram-Schmidt, applied twice: each pass projects the
    whole block against the basis, then each vector in turn against the
    vectors of the block already accepted in that pass.  The second pass
    also repairs what cancellation inside the block left of the basis
    directions.  A vector whose remainder falls below ``DROP_TOL`` times its
    original norm is discarded; when none is accepted, ``V`` itself is
    returned.
    """
    n = V.dim
    X = [np.asarray(w, dtype=complex).reshape(-1) for w in W]
    if any(x.shape[0] != n for x in X):
        raise ValueError("vector length does not match basis dimension")
    if not X:
        return V
    X = np.column_stack(X)
    floors = DROP_TOL * np.linalg.norm(X, axis=0)
    Q = V.cols
    for _ in range(2):
        # One product per projection, not one per vector: BLAS would hand
        # every single small product to its threads.
        if Q.shape[1]:
            X = X - matmul(Q, matmul(Q.conj().T, X))
        accepted, kept_floors = [], []
        for x, floor in zip(X.T, floors):
            if accepted:
                U = np.column_stack(accepted)
                x = x - matmul(U, matmul(U.conj().T, x))
            nx = np.linalg.norm(x)
            if nx > floor:
                accepted.append(x / nx)
                # The floor follows the vector's scale into the next pass.
                kept_floors.append(floor / nx)
        if not accepted:
            return V
        X, floors = np.column_stack(accepted), kept_floors
    return Basis(n, np.hstack([Q, X]))


def stacked_norm(X: np.ndarray, Y: np.ndarray) -> float:
    """``||[X Y]||_2`` of two dense n x n matrices, as the square root of the
    largest eigenvalue of the n x n Gram matrix ``X X^* + Y Y^*``: no SVD of
    the n x 2n block.

    From ``SUBSET_THRESHOLD`` on, BLAS ?herk/?syrk builds the upper triangle
    of the conjugate ``conj(X X^*) + conj(Y Y^*)``, which has the same
    eigenvalues, from the transposed views of X and Y, with no conjugate
    copy; below it numpy's products build the whole matrix.
    """
    if X.shape[0] < SUBSET_THRESHOLD:
        G = matmul(X, X.conj().T) + matmul(Y, Y.conj().T)
    else:
        dtype = np.result_type(X, Y, np.float64)
        cplx = dtype.kind == "c"
        rank_k, = sla.get_blas_funcs(("herk" if cplx else "syrk",),
                                     dtype=dtype)
        # z = Z^T and z^* z = conj(Z Z^*), with trans 'C' (2) or 'T' (1).
        trans = 2 if cplx else 1
        G = rank_k(1.0, np.asarray(X, dtype).T, trans=trans)
        G = rank_k(1.0, np.asarray(Y, dtype).T, beta=1.0, c=G, trans=trans,
                   overwrite_c=1)
    return float(np.sqrt(max(_dense_eigh(G, 1, vectors=False)[0][0], 0.0)))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of dense arrays, each 1-d or 2-d.

    A product with any dimension of at least ``SUBSET_THRESHOLD`` runs on
    scipy's BLAS ``gemm``, the library of the subset eigensolve, so that a
    loop of products and solves keeps to one thread pool; smaller ones run
    on numpy.
    """
    if max(a.shape + b.shape) < SUBSET_THRESHOLD:
        return a @ b
    gemm = _gemm(np.result_type(a, b, np.float64))
    a2, ta = _fortran(a.reshape(1, -1) if a.ndim == 1 else a)
    b2, tb = _fortran(b.reshape(-1, 1) if b.ndim == 1 else b)
    out = gemm(1.0, a2, b2, trans_a=ta, trans_b=tb)
    return out.reshape(a.shape[:-1] + b.shape[1:])


def _fortran(x: np.ndarray):
    """``(y, trans)`` with ``op(y) = x`` for BLAS: a C-ordered x is passed
    as its Fortran-ordered transpose instead of being copied."""
    if x.flags.c_contiguous and not x.flags.f_contiguous:
        return x.T, 1
    return x, 0
