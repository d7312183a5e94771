"""Reference values for lambda_max(A cos t + B sin t), computed apart from inropt.

Nothing here imports ``inropt.kernels`` or ``inropt.param``: values come from
numpy/scipy directly.  The global minimum over the circle is found by a grid
of batched ``numpy.linalg.eigvalsh`` calls followed by golden-section polish
of every grid local minimum that could still hold the global one.  Large
pairs of small bandwidth (Grcar, the interleaved QEP linearization) use
``scipy.linalg.eigvals_banded`` for the largest eigenvalue only, which gives
the same function at a fraction of the dense cost.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

TWO_PI = 2.0 * math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Dense batches are cut so one batch holds at most this many matrix entries.
BATCH_ENTRIES = 1 << 21
# Pairs at least this large and at most this wide go through band storage.
BANDED_MIN_DIM = 96
BANDED_MAX_WIDTH = 8


class RefPair:
    """A Hermitian pair (A, B) held dense or in lower band storage."""

    def __init__(self, A=None, B=None, band=None):
        if band is not None:
            self.Ab, self.Bb = band
            self.dim = self.Ab.shape[1]
            self.banded = True
            # max absolute row sum bounds the 2-norm of a Hermitian matrix
            self.norm_bound = _band_norm_bound(self.Ab) + _band_norm_bound(self.Bb)
        else:
            self.A = np.asarray(A, dtype=complex)
            self.B = np.asarray(B, dtype=complex)
            self.dim = self.A.shape[0]
            self.banded = False
            self.norm_bound = (float(np.linalg.norm(self.A, 2))
                               + float(np.linalg.norm(self.B, 2)))

    def lam_max(self, thetas) -> np.ndarray:
        """lambda_max(A cos t + B sin t) for each angle t."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        if self.banded:
            n = self.dim
            out = np.empty(len(thetas))
            for i, t in enumerate(thetas):
                ab = self.Ab * math.cos(t) + self.Bb * math.sin(t)
                out[i] = sla.eigvals_banded(ab, lower=True, select="i",
                                            select_range=(n - 1, n - 1))[0]
            return out
        n = self.dim
        step = max(1, BATCH_ENTRIES // (n * n))
        out = []
        for k in range(0, len(thetas), step):
            th = thetas[k:k + step]
            H = (self.A[None, :, :] * np.cos(th)[:, None, None]
                 + self.B[None, :, :] * np.sin(th)[:, None, None])
            out.append(np.linalg.eigvalsh(H)[:, -1])
        return np.concatenate(out)

    def global_min(self, npts: int | None = None, iters: int = 36):
        """(theta, value) of the global minimum over [0, 2*pi)."""
        if npts is None:
            npts = 48 if self.banded else (720 if self.dim <= 64 else 360)
        h = TWO_PI / npts
        ths = h * np.arange(npts)
        vals = self.lam_max(ths)
        best = float(vals.min())
        # lambda_max is Lipschitz with constant ||A|| + ||B||, so a basin whose
        # grid sample exceeds best + L*h cannot hold a lower minimum.
        slack = self.norm_bound * h
        left, right = np.roll(vals, 1), np.roll(vals, -1)
        cand = np.nonzero((vals <= left) & (vals <= right)
                          & (vals <= best + slack))[0]
        theta, value = float(ths[int(np.argmin(vals))]), best
        for i in cand:
            t, v = self._golden(ths[i] - h, ths[i] + h, iters)
            if v < value:
                theta, value = t, v
        return theta % TWO_PI, value

    def _golden(self, a, b, iters):
        f = lambda t: float(self.lam_max([t])[0])
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(iters):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - GOLDEN * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + GOLDEN * (b - a)
                fd = f(d)
        return (c, fc) if fc < fd else (d, fd)


def _band_norm_bound(ab) -> float:
    n = ab.shape[1]
    rows = np.zeros(n)
    for k in range(ab.shape[0]):
        band = np.abs(ab[k, :n - k])
        rows[:n - k] += band
        if k:
            rows[k:] += band
    return float(rows.max())


def _bandwidth(*mats) -> int:
    width = 0
    for M in mats:
        i, j = (M.nonzero() if sp.issparse(M) else np.nonzero(M))
        if len(i):
            width = max(width, int(np.max(np.abs(i - j))))
    return width


def _lower_band(M, width):
    M = M.toarray() if sp.issparse(M) else np.asarray(M)
    n = M.shape[0]
    ab = np.zeros((width + 1, n), dtype=complex if np.iscomplexobj(M) else float)
    for k in range(width + 1):
        ab[k, :n - k] = np.diagonal(M, -k)
    return ab


def reference_pair(A, B) -> RefPair:
    """RefPair for (A, B): band storage when the pair is large and narrow."""
    n = A.shape[0]
    if n >= BANDED_MIN_DIM:
        width = _bandwidth(A, B)
        if width <= BANDED_MAX_WIDTH:
            return RefPair(band=(_lower_band(A, width), _lower_band(B, width)))
    A = A.toarray() if sp.issparse(A) else A
    B = B.toarray() if sp.issparse(B) else B
    return RefPair(A, B)


def qep_reference(Aq, Bq, Cq) -> RefPair:
    """The hyperbolicity pair of l^2 Aq + l Bq + Cq, built here from its
    definition A1 = [[-Cq, 0], [0, Aq]], B1 = -[[Bq, Aq], [Aq, 0]] with the
    two block rows interleaved, which keeps tridiagonal coefficients inside
    bandwidth 2."""
    Aq, Bq, Cq = (sp.csr_matrix(M) for M in (Aq, Bq, Cq))
    n = Aq.shape[0]
    Z = sp.csr_matrix((n, n))
    A1 = sp.bmat([[-Cq, Z], [Z, Aq]], format="csr")
    B1 = -sp.bmat([[Bq, Aq], [Aq, Z]], format="csr")
    order = np.empty(2 * n, dtype=int)
    order[0::2] = np.arange(n)
    order[1::2] = n + np.arange(n)
    return reference_pair(A1[order][:, order], B1[order][:, order])


def angle_gap(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)
