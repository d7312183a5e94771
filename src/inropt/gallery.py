"""Deterministic generators for the benchmark matrix families.

Random families use the counter-based Philox generator so that output is
bit-reproducible given (name, params, seed) across platforms.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParams
from .kernels import hermitian_split

_PHILOX = np.random.Philox


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(_PHILOX(int(seed)))


def cheng_higham7():
    """Indefinite 7x7 pair: A = diag(-3..3), b_ij = 1/(i+j) with the
    (1,1) and (7,7) entries overridden to -1 (1-based indexing)."""
    A = np.diag(np.arange(-3.0, 4.0))
    i = np.arange(1, 8)
    B = 1.0 / (i[:, None] + i[None, :])
    B[0, 0] = -1.0
    B[6, 6] = -1.0
    return A, B


def fiedler(n: int) -> np.ndarray:
    """Fiedler matrix F_ij = |i - j|."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    idx = np.arange(n)
    return np.abs(np.subtract.outer(idx, idx)).astype(float)


def moler(n: int) -> np.ndarray:
    """Moler matrix: m_ii = i, m_ij = min(i, j) - 2 off the diagonal."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    i = np.arange(1, n + 1)
    M = np.minimum.outer(i, i) - 2.0
    np.fill_diagonal(M, i.astype(float))
    return M


def grcar(n: int) -> np.ndarray:
    """Grcar matrix: -1 on the subdiagonal, +1 on the diagonal and the
    first three superdiagonals."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    G = np.zeros((n, n))
    for k in (-1, 0, 1, 2, 3):
        v = -1.0 if k == -1 else 1.0
        if n - abs(k) > 0:
            G += np.diag(np.full(n - abs(k), v), k)
    return G


def grcar_pair(n: int = 640):
    """Hermitian pair whose rotated part the large-scale benchmarks
    minimize: the split of the adjoint of the rotated Grcar matrix.

    C = (grcar(n) * e^{i*pi/6})^*;  A = (C + C^*)/2,  B = -i(C - C^*)/2.
    """
    C = (grcar(n) * np.exp(1j * np.pi / 6)).conj().T
    return hermitian_split(C)


def tridiag_nonsmooth(n: int = 10) -> np.ndarray:
    """Rotated complex tridiagonal matrix with a multiplicity-2 minimizer.

    Diagonal 2 + j/n (first two entries 1), constant i off-diagonals,
    shifted by 0.5i, then rotated by e^{i*pi/6}.  The rotated Hermitian
    part of the returned matrix attains its minimal largest eigenvalue -1
    at the angle 7*pi/6.
    """
    if n < 3:
        raise InvalidParams("n must be >= 3")
    d = 2.0 + (np.arange(1, n + 1)) / n
    d[0] = 1.0
    d[1] = 1.0
    M = np.diag(d.astype(complex))
    off = np.full(n - 1, 1j)
    M += np.diag(off, 1) + np.diag(off, -1)
    M += 0.5j * np.eye(n)
    return M * np.exp(1j * np.pi / 6)


def qep_mass_spring(n: int, beta: float):
    """Damped mass-spring quadratic eigenvalue problem coefficients.

    Aq = I, Bq = beta * tridiag(-10, [20, 30, ..., 30, 20], -10),
    Cq = tridiag(-5, 15, -5); returned as sparse CSR.
    """
    if n < 2:
        raise InvalidParams("n must be >= 2")
    if beta <= 0:
        raise InvalidParams("beta must be positive")
    Aq = sp.eye(n, format="csr")
    d = np.full(n, 30.0)
    d[0] = d[-1] = 20.0
    Bq = (sp.diags([np.full(n - 1, -10.0), d, np.full(n - 1, -10.0)],
                   [-1, 0, 1]) * beta).tocsr()
    Cq = sp.diags([np.full(n - 1, -5.0), np.full(n, 15.0),
                   np.full(n - 1, -5.0)], [-1, 0, 1]).tocsr()
    return Aq, Bq, Cq


def qep_mass_spring4():
    """The explicit 4-mass demo instance of the damped mass-spring QEP."""
    Aq = np.eye(4)
    Bq = np.array([[8.0, -4, 0, 0],
                   [-4, 12, -4, 0],
                   [0, -4, 12, -4],
                   [0, 0, -4, 8]])
    Cq = np.array([[2.0, -1, 0, 0],
                   [-1, 3, -1, 0],
                   [0, -1, 3, -1],
                   [0, 0, -1, 2]])
    return Aq, Bq, Cq


def qep_linearization(Aq, Bq, Cq):
    """Hermitian pair (A1, B1) whose definiteness decides hyperbolicity:
    A1 = [[-Cq, 0], [0, Aq]],  B1 = -[[Bq, Aq], [Aq, 0]].  CSR when any
    coefficient is sparse; complex coefficients stay complex."""
    if sp.issparse(Aq) or sp.issparse(Bq) or sp.issparse(Cq):
        Aq, Bq, Cq = (m if sp.issparse(m) else sp.csr_matrix(m)
                      for m in (Aq, Bq, Cq))
        n = Aq.shape[0]
        Z = sp.csr_matrix((n, n))
        A1 = sp.bmat([[-Cq, Z], [Z, Aq]], format="csr")
        B1 = (-sp.bmat([[Bq, Aq], [Aq, Z]], format="csr")).tocsr()
        return A1, B1
    # The float zero block makes integer input float, as on the sparse path.
    Aq, Bq, Cq = (np.asarray(m) for m in (Aq, Bq, Cq))
    n = Aq.shape[0]
    Z = np.zeros((n, n))
    A1 = np.block([[-Cq, Z], [Z, Aq]])
    B1 = -np.block([[Bq, Aq], [Aq, Z]])
    return A1, B1


def poisson2d(k: int):
    """Five-point Laplacian on a k x k interior grid (n = k^2), CSR."""
    if k < 1:
        raise InvalidParams("k must be >= 1")
    T = sp.diags([np.full(k - 1, -1.0), np.full(k, 2.0),
                  np.full(k - 1, -1.0)], [-1, 0, 1])
    eye = sp.identity(k)
    return (sp.kron(T, eye) + sp.kron(eye, T)).tocsr()


def sparse_random(n: int, density: float, seed: int = 0):
    """General (non-symmetric) sparse real matrix with uniform(0,1) values
    at seeded random positions; expected fill ratio ~= density."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if not 0.0 < density <= 1.0:
        raise InvalidParams("density must be in (0, 1]")
    rng = _rng(seed)
    nnz_target = max(1, int(round(density * n * n)))
    rows = rng.integers(0, n, size=nnz_target)
    cols = rng.integers(0, n, size=nnz_target)
    vals = rng.uniform(0.0, 1.0, size=nnz_target)
    # collapse duplicate positions (keep the first draw)
    flat = rows.astype(np.int64) * n + cols
    _, first = np.unique(flat, return_index=True)
    first.sort()
    return sp.coo_matrix((vals[first], (rows[first], cols[first])),
                         shape=(n, n)).tocsr()


def synthetic_saddle(n: int, m: int, seed: int = 0):
    """Saddle-point matrix S = [[A, B^T], [B, -C]] with its signature J.

    A is a shifted random Gram matrix (SPD with smallest eigenvalue near 1),
    B is a small random coupling, and C is a scaled random Gram matrix
    (SPSD).  The scaling keeps the pair (S, J) definite but with a modest
    margin, so the shift computation is exercised near its boundary.
    """
    if n < 1 or m < 1 or m > n:
        raise InvalidParams("need 1 <= m <= n")
    rng = _rng(seed)
    G = rng.standard_normal((n, n))
    A = G @ G.T / n + np.eye(n)
    # ||B|| ~ 0.25 keeps the Schur complement margin positive but small
    # relative to the blocks, so the shift sits near its feasible window.
    B = (0.25 / (np.sqrt(n) + np.sqrt(m))) * rng.standard_normal((m, n))
    H = rng.standard_normal((m, m))
    C = 0.05 * (H @ H.T) / m
    S = np.block([[A, B.T], [B, -C]])
    J = np.diag(np.concatenate([np.ones(n), -np.ones(m)]))
    return S, J


def generate(name: str, **params):
    """Dispatch a gallery family by name; returns a dict of named matrices."""
    try:
        if name == "cheng_higham7":
            A, B = cheng_higham7()
            return {"A": A, "B": B}
        if name == "fiedler":
            return {"A": fiedler(int(params["n"]))}
        if name == "moler":
            return {"A": moler(int(params["n"]))}
        if name == "grcar":
            return {"G": grcar(int(params["n"]))}
        if name == "grcar_pair":
            A, B = grcar_pair(int(params.get("n", 640)))
            return {"A": A, "B": B}
        if name == "tridiag_nonsmooth":
            C = tridiag_nonsmooth(int(params.get("n", 10)))
            A, B = hermitian_split(C)
            return {"C": C, "A": A, "B": B}
        if name == "qep_mass_spring":
            Aq, Bq, Cq = qep_mass_spring(int(params["n"]),
                                         float(params["beta"]))
            return {"Aq": Aq, "Bq": Bq, "Cq": Cq}
        if name == "qep_mass_spring4":
            Aq, Bq, Cq = qep_mass_spring4()
            return {"Aq": Aq, "Bq": Bq, "Cq": Cq}
        if name == "qep_linearization":
            Aq, Bq, Cq = qep_mass_spring(int(params["n"]),
                                         float(params["beta"]))
            A1, B1 = qep_linearization(Aq, Bq, Cq)
            return {"A1": A1, "B1": B1}
        if name == "poisson2d":
            return {"A": poisson2d(int(params["k"]))}
        if name == "sparse_random":
            return {"R": sparse_random(int(params["n"]),
                                       float(params["density"]),
                                       int(params.get("seed", 0)))}
        if name == "synthetic_saddle":
            S, J = synthetic_saddle(int(params["n"]), int(params["m"]),
                                    int(params.get("seed", 0)))
            return {"S": S, "J": J}
    except KeyError as exc:
        raise InvalidParams(f"{name}: missing parameter {exc}") from exc
    raise InvalidParams(f"unknown gallery family {name!r}")
