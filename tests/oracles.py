"""Independent oracles shared across the test suite.

Everything here deliberately avoids the code paths it is used to check:
eigenvalues by characteristic-polynomial bisection (LU determinants, not
eigh), global minima by dense grids with golden-section refinement,
convergence-order estimation by least squares on log-errors, level-pencil
eigenvalues by QZ and level-set classification by eigvalsh.
"""

import math

import numpy as np
import scipy.linalg as sla

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def charpoly_eigs(M, iters=120):
    """All eigenvalues of a real symmetric matrix by bisection on the
    characteristic polynomials of the leading principal minors, whose roots
    interlace.  Determinants go through LU, independent of any symmetric
    eigensolver."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]

    def p(k, lam):
        return float(np.linalg.det(M[:k, :k] - lam * np.eye(k)))

    radii = np.sum(np.abs(M), axis=1) - np.abs(np.diag(M))
    lo = float(np.min(np.diag(M) - radii)) - 1.0
    hi = float(np.max(np.diag(M) + radii)) + 1.0
    roots = [M[0, 0]]
    for k in range(2, n + 1):
        brackets = [lo] + sorted(roots) + [hi]
        new = []
        for a, b in zip(brackets[:-1], brackets[1:]):
            fa, fb = p(k, a), p(k, b)
            assert fa * fb < 0, "interlacing bracket without a sign change"
            for _ in range(iters):
                mid = 0.5 * (a + b)
                fm = p(k, mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if (fm < 0) == (fa < 0):
                    a, fa = mid, fm
                else:
                    b, fb = mid, fm
            new.append(0.5 * (a + b))
        roots = new
    return np.array(sorted(roots, reverse=True))


def golden_refine(f, a, b, iters=100):
    """Golden-section minimization of a unimodal scalar function."""
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
    mid = 0.5 * (a + b)
    return mid, f(mid)


def lam_max_trig(A, B, thetas):
    """lambda_max(A cos t + B sin t) on a vector of angles (batched)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    H = (A[None, :, :] * np.cos(thetas)[:, None, None]
         + B[None, :, :] * np.sin(thetas)[:, None, None])
    return np.linalg.eigvalsh(H)[:, -1]


def grid_min_trig(A, B, npts=100001, refine=True):
    """Global minimum of lambda_max(A cos t + B sin t) by a dense grid with
    local golden-section polish."""
    ths = np.linspace(0.0, 2.0 * np.pi, npts)
    vals = lam_max_trig(A, B, ths)
    i = int(np.argmin(vals))
    if not refine:
        return float(ths[i]), float(vals[i])
    a = ths[max(i - 1, 0)]
    b = ths[min(i + 1, npts - 1)]
    w, v = golden_refine(lambda t: float(lam_max_trig(A, B, [t])[0]), a, b)
    if v <= vals[i]:
        return float(w), float(v)
    return float(ths[i]), float(vals[i])


def fit_order(errors, stride=1, floor=1e-15, last=None):
    """Convergence-order estimate from an error sequence.

    Each pair (e_k, e_{k+stride}) yields the estimate
    log(e_{k+stride}) / log(e_k), the exponent p in e_{k+stride} ~ e_k^p;
    the median over the usable pairs is returned.  ``stride=2`` measures
    the two-step contraction of alternating-side refinement schemes.
    Entries at or below ``floor`` (round-off) or >= 1 (pre-asymptotic) are
    discarded; ``last`` keeps only that many trailing entries.
    """
    e = [float(x) for x in errors if floor < x < 1.0]
    if last is not None:
        e = e[-last:]
    ratios = [math.log10(e[i + stride]) / math.log10(e[i])
              for i in range(len(e) - stride)]
    if not ratios:
        raise ValueError("no usable (e_k, e_{k+stride}) pairs")
    return float(np.median(ratios))


def random_hermitian(n, rng, real=False):
    X = rng.standard_normal((n, n))
    if not real:
        X = X + 1j * rng.standard_normal((n, n))
    return (X + X.conj().T) / 2.0


def random_trig_pair(n, rng, real=False):
    return random_hermitian(n, rng, real), random_hermitian(n, rng, real)


def crossing_pair(n, rng):
    """Pair (A, B) of dimension n >= 2 whose lambda_max has its global
    minimum -cos(alpha) at a built-in crossing t0.

    Two eigenvalues are cos(t - t0 - pi + alpha) and cos(t - t0 - pi - alpha),
    which cross at t0 with slopes -sin(alpha) and sin(alpha); their max is
    least there.  The other n - 2 eigenvalues are those of
    -P cos(t - t0) + K sin(t - t0) with lambda_min(P) > cos(alpha), which lie
    below the crossing at t0.  A random unitary similarity hides the blocks.
    Returns ``(A, B, t0, value)``.
    """
    t0 = float(rng.uniform(0.3, 2.0 * math.pi - 0.3))
    alpha = float(rng.uniform(0.4, 1.1))
    value = -math.cos(alpha)
    m = n - 2
    G = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    P = G @ G.conj().T / (2.0 * m) + (abs(value) + 0.2) * np.eye(m)
    X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    K = (X + X.conj().T) / (2.0 * math.sqrt(2.0 * m))
    phis = np.array([t0 + math.pi - alpha, t0 + math.pi + alpha])
    A = np.zeros((n, n), dtype=complex)
    B = np.zeros((n, n), dtype=complex)
    A[:2, :2] = np.diag(np.cos(phis))
    B[:2, :2] = np.diag(np.sin(phis))
    A[2:, 2:] = -math.cos(t0) * P - math.sin(t0) * K
    B[2:, 2:] = -math.sin(t0) * P + math.cos(t0) * K
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))[None, :]
    A = Q.conj().T @ A @ Q
    B = Q.conj().T @ B @ Q
    return (A + A.conj().T) / 2.0, (B + B.conj().T) / 2.0, t0, value


def pencil_unit_angles_qz(C, alpha, tol_circle=1e-8):
    """Sorted angles in [0, 2*pi) of the near-unit-modulus generalized
    eigenvalues of the level pencil [[2*alpha*I, -C], [I, 0]] against
    diag(C^*, I), by QZ on the pair (never the standard eigenproblem)."""
    C = np.asarray(C, dtype=complex)
    n = C.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    R = np.block([[2.0 * alpha * eye, -C], [eye, zero]])
    S = np.block([[C.conj().T, zero], [zero, eye]])
    ev = sla.eig(R, S, right=False)
    ev = ev[np.isfinite(ev)]
    tol = tol_circle * max(1.0, np.linalg.norm(C, 2))
    keep = np.abs(np.abs(ev) - 1.0) <= tol
    return np.sort(np.mod(np.angle(ev[keep]), 2.0 * np.pi))


def sublevel_arcs_eigvalsh(A, B, alpha, angles, tol):
    """Maximal arcs where lambda_max(A cos t + B sin t) < alpha, built from
    candidate crossing angles with every test an eigvalsh evaluation: an
    angle is kept iff |lambda_max - alpha| <= tol, a gap between kept
    angles is sub-level iff lambda_max(midpoint) < alpha.  Arcs are
    (lo, hi) pairs; an arc through 2*pi has hi <= lo."""
    ang = np.sort([t for t in angles
                   if abs(lam_max_trig(A, B, [t])[0] - alpha) <= tol])
    m = len(ang)
    if m == 0:
        return []
    his = np.append(ang[1:], ang[0] + 2.0 * np.pi)
    sub = lam_max_trig(A, B, 0.5 * (ang + his) % (2.0 * np.pi)) < alpha
    if sub.all():
        return [(ang[0], ang[0])]
    arcs = []
    for i in range(m):
        if sub[i] and not sub[i - 1]:
            j = i
            while sub[(j + 1) % m]:
                j += 1
            arcs.append((ang[i], ang[(j + 1) % m]))
    return sorted(arcs)
