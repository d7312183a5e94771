"""The three workloads: seeded inputs and the operation list of one pass.

Every input is generated here, from ``inropt.gallery`` and a generator
seeded with the workload seed, so the program receives only matrices.
Gallery families without randomness (Grcar, the mass-spring QEP,
Cheng-Higham) are passed through a seeded permutation similarity: the
program sees different matrices for different seeds while every reference
value (minimum, minimizing angle, verdict) stays the same.

An operation is one call into inropt's public API, or one
``inropt.cli.main`` call.  ``digest`` turns its result into the plain
numbers the checks need; it runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.io
from inropt import cli, definite, gallery

import oracle

WORKLOADS = ("small-dense", "dense-grcar", "sparse-qep")

SMALL_SIZES = (4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40)
SMOKE_SMALL_SIZES = (4, 8)
PAIR_KINDS = ("indefinite", "definite", "crossing")
METHODS = ("levelset", "support", "subspace")
NDP_DELTA = 1e-8

CH7_ZETA = 0.8118872239262
GRCAR640 = {"f": 0.634045490256, "theta": 2.617993877986, "distance": 0.644045490256}
GRCAR_DELTA = 1e-2
QEP_BETAS = (0.500, 0.504, 0.508, 0.512, 0.516, 0.520, 0.524, 0.528)
QEP_VERDICTS = (False,) * 5 + (True,) * 3
QEP_LARGE = (1000, 0.520)
CLI_BETA = 0.524


@dataclass
class Case:
    """How the oracle sees one input pair, and its published values."""

    ref: Callable[[], "oracle.RefPair"]
    published: dict = field(default_factory=dict)


@dataclass
class Op:
    """One closed-loop operation of a pass."""

    name: str
    kind: str
    case: Optional[str]
    call: Callable[[], object]
    digest: Callable[[object], dict]
    spec: dict = field(default_factory=dict)


@dataclass
class Workload:
    cases: dict
    ops: list


def warm_up():
    """One dense solve before timing.  Its eigensolves are large enough for
    OpenBLAS to start its worker threads, a one-time cost of up to ~0.8 s
    that would otherwise land in whichever timed operation first needs them."""
    return definite.inner_numerical_radius(pair=gallery.grcar_pair(64),
                                           method="support")


# -- seeded input generation ---------------------------------------------------

def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _random_hermitian(n, rng, scale=1.0):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (X + X.conj().T) / (2.0 * math.sqrt(2.0 * n))


def _random_spd(n, rng, floor):
    G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return G @ G.conj().T / (2.0 * n) + floor * np.eye(n)


def _random_unitary(n, rng):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))[None, :]


def crossing_pair(n, rng):
    """Pair whose lambda_max has its global minimum at a built-in crossing.

    Two eigenvalue branches cos(t - t0 - pi -/+ alpha) cross at t0 with the
    value -cos(alpha), which is the global minimum of their max.  The other
    n - 2 eigenvalues form the block -P cos(t - t0) + K sin(t - t0) with
    lambda_min(P) > cos(alpha), so they stay below the crossing at t0.  A
    random unitary similarity hides the block structure.
    Returns (A, B, t0, value).
    """
    t0 = float(rng.uniform(0.3, 2.0 * math.pi - 0.3))
    alpha = float(rng.uniform(0.4, 1.1))
    value = -math.cos(alpha)
    phis = np.array([t0 + math.pi - alpha, t0 + math.pi + alpha])
    m = n - 2
    P = _random_spd(m, rng, abs(value) + 0.2)
    K = _random_hermitian(m, rng)
    A = np.zeros((n, n), dtype=complex)
    B = np.zeros((n, n), dtype=complex)
    A[:2, :2] = np.diag(np.cos(phis))
    B[:2, :2] = np.diag(np.sin(phis))
    A[2:, 2:] = -math.cos(t0) * P - math.sin(t0) * K
    B[2:, 2:] = -math.sin(t0) * P + math.cos(t0) * K
    Q = _random_unitary(n, rng)
    A = Q.conj().T @ A @ Q
    B = Q.conj().T @ B @ Q
    return (A + A.conj().T) / 2.0, (B + B.conj().T) / 2.0, t0, value


def _permute(rng, *mats):
    """The same seeded permutation similarity applied to every matrix."""
    p = rng.permutation(mats[0].shape[0])
    out = []
    for M in mats:
        if hasattr(M, "tocsr"):
            out.append(M.tocsr()[p][:, p].tocsr())
        else:
            out.append(np.ascontiguousarray(np.asarray(M)[np.ix_(p, p)]))
    return out


# -- digests (outside the timed region) ---------------------------------------

def digest_inr(res) -> dict:
    return {"f": float(res.f_star), "theta": float(res.theta_star),
            "lb": float(res.opt.lower_bound), "status": res.opt.status.value}


def digest_crawford(cr) -> dict:
    return {**digest_inr(cr.witness), "definite": bool(cr.is_definite),
            "crawford": float(cr.gamma)}


def digest_hyperbolic(out) -> dict:
    hyp, wit = out
    return {**digest_inr(wit), "definite": bool(hyp)}


def _chol_ok(M) -> bool:
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def _repair_facts(dA, dB, Bt) -> dict:
    Bt = (Bt + Bt.conj().T) / 2.0
    return {"pert_norm": float(np.linalg.norm(np.hstack([dA, dB]), 2)),
            "btilde_min": float(np.linalg.eigvalsh(Bt)[0]),
            "btilde_pd": _chol_ok(Bt)}


def digest_repair(rep) -> dict:
    return {"distance": float(rep.distance), "theta": float(rep.theta_star),
            "crawford_after": float(rep.crawford_after),
            **_repair_facts(rep.deltaA, rep.deltaB, rep.B_tilde)}


def make_saddle_digest(S, n, m):
    J = np.diag(np.concatenate([np.ones(n), -np.ones(m)]))

    def digest(out):
        if out is None:
            return {"definite": False}
        mu, lam_min = out
        return {"definite": True, "mu": float(mu), "lam_min": float(lam_min),
                "shift_pd": _chol_ok(S - mu * J)}
    return digest


def run_cli(argv):
    """inropt.cli.main with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _cli_json(out) -> dict:
    code, text = out
    return {"code": int(code), "payload": json.loads(text) if text.strip() else None}


def digest_cli_gallery(out) -> dict:
    d = _cli_json(out)
    A, B = gallery.cheng_higham7()
    files = d["payload"]["files"]
    d["roundtrip"] = bool(
        np.array_equal(np.asarray(scipy.io.mmread(files["A"])), A)
        and np.array_equal(np.asarray(scipy.io.mmread(files["B"])), B))
    return d


def digest_cli_distance(out) -> dict:
    d = _cli_json(out)
    files = d["payload"]["files"]
    read = lambda k: np.asarray(scipy.io.mmread(files[k]))
    d.update(_repair_facts(read("deltaA"), read("deltaB"), read("B_tilde")))
    return d


def make_fov_digest(path):
    def digest(out):
        code, _ = out
        thetas, points, zeta = [], [], None
        with open(path) as fh:
            next(fh)
            for line in fh:
                kind, th, re_, im = line.strip().split(",")
                if kind == "boundary":
                    thetas.append(float(th))
                    points.append(complex(float(re_), float(im)))
                elif kind == "zeta":
                    zeta = abs(complex(float(re_), float(im)))
        return {"code": int(code), "thetas": thetas,
                "support": [float((np.exp(-1j * t) * p).real)
                            for t, p in zip(thetas, points)],
                "zeta_sample": zeta}
    return digest


# -- operation builders --------------------------------------------------------

def _inr_ops(key, A, B, methods=METHODS, **opts):
    return [Op(f"inr/{method}/{key}", "inr", key,
               lambda method=method: definite.inner_numerical_radius(
                   pair=(A, B), method=method, **opts),
               digest_inr)
            for method in methods]


def _ndp_op(key, A, B, delta=NDP_DELTA, **opts):
    return Op(f"ndp/{key}", "ndp", key,
              lambda: definite.nearest_definite_pair(A, B, delta=delta, **opts),
              digest_repair, {"delta": delta})


def _pair_ops(key, A, B, methods=METHODS):
    return _inr_ops(key, A, B, methods) + [_ndp_op(key, A, B)]


def _dense_case(A, B, **published):
    return Case(lambda: oracle.RefPair(A, B), published)


def build_small_dense(seed, smoke, workdir):
    rng = _rng("small-dense", seed)
    cases, ops = {}, []
    sizes = SMOKE_SMALL_SIZES if smoke else SMALL_SIZES
    for n in sizes:
        for kind in PAIR_KINDS:
            key = f"{kind}-{n}"
            published = {}
            if kind == "indefinite":
                A, B = _random_hermitian(n, rng), _random_hermitian(n, rng)
            elif kind == "definite":
                A, B = _random_hermitian(n, rng), _random_spd(n, rng, 0.1)
            else:
                A, B, t0, value = crossing_pair(n, rng)
                published = {"f": value, "theta": t0}
            cases[key] = _dense_case(A, B, **published)
            ops += _pair_ops(key, A, B)

    A, B = _permute(rng, *gallery.cheng_higham7())
    cases["cheng_higham7"] = _dense_case(A, B, zeta=CH7_ZETA)
    ops += _pair_ops("cheng_higham7", A, B)

    A, B = _permute(rng, *gallery.hermitian_split(gallery.tridiag_nonsmooth(10)))
    cases["tridiag_nonsmooth"] = _dense_case(A, B, f=-1.0,
                                             theta=7.0 * math.pi / 6.0)
    ops += _pair_ops("tridiag_nonsmooth", A, B)

    A, B = _permute(rng, *gallery.qep_linearization(*gallery.qep_mass_spring4()))
    cases["qep_mass_spring4"] = _dense_case(A, B)
    ops += _pair_ops("qep_mass_spring4", A, B)

    # Saddle matrices keep their block order: saddle_shift builds J from (n, m).
    n, m = (20, 8) if smoke else (100, 40)
    S, J = gallery.synthetic_saddle(n, m, seed=int(rng.integers(0, 2**31)))
    key = "synthetic_saddle"
    cases[key] = _dense_case(S, J)
    ops += _pair_ops(key, S, J, methods=("support", "subspace"))
    ops.append(Op(f"saddle/{key}", "saddle", key,
                  lambda: definite.saddle_shift(S, n, m),
                  make_saddle_digest(S, n, m)))

    ops += _cli_ops(workdir)
    return Workload(cases, ops)


def _cli_ops(workdir):
    stem = os.path.join(workdir, "ch.mtx")
    A, B = (os.path.join(workdir, f"ch_{k}.mtx") for k in "AB")
    pair = ["--pair", A, B]
    fov = os.path.join(workdir, "boundary.csv")
    cases = "cheng_higham7"
    argvs = [
        ("gallery", ["gallery", "cheng_higham7", "-o", stem], digest_cli_gallery),
        ("inr", ["inr", *pair, "--method", "levelset", "--trace"], _cli_json),
        ("definite", ["definite", *pair], _cli_json),
        ("distance", ["distance", *pair, "--delta", repr(NDP_DELTA), "--outdir",
                      os.path.join(workdir, "repair")], digest_cli_distance),
        ("fov", ["fov", *pair, "--samples", "720", "--out", fov],
         make_fov_digest(fov)),
    ]
    return [Op(f"cli/{name}", f"cli-{name}", cases,
               lambda argv=argv: run_cli(argv), digest, {"delta": NDP_DELTA})
            for name, argv, digest in argvs]


def build_dense_grcar(seed, smoke, workdir):
    rng = _rng("dense-grcar", seed)
    cases, ops = {}, []
    small, large = ((40, 60), 120) if smoke else ((100, 200), 640)
    for n in small:
        key = f"grcar-{n}"
        A0, B0 = gallery.grcar_pair(n)
        A, B = _permute(rng, A0, B0)
        cases[key] = Case(lambda A0=A0, B0=B0: oracle.reference_pair(A0, B0))
        ops += _inr_ops(key, A, B, ("levelset", "support"))
    key = f"grcar-{large}"
    A0, B0 = gallery.grcar_pair(large)
    A, B = _permute(rng, A0, B0)
    cases[key] = Case(lambda A0=A0, B0=B0: oracle.reference_pair(A0, B0),
                      dict(GRCAR640) if large == 640 else {})
    ops += _inr_ops(key, A, B, ("subspace",), omega0=0.45)
    ops.append(_ndp_op(key, A, B, GRCAR_DELTA, method="subspace", omega0=0.45))
    return Workload(cases, ops)


def build_sparse_qep(seed, smoke, workdir):
    rng = _rng("sparse-qep", seed)
    cases, ops = {}, []
    picks = (0, 7) if smoke else range(len(QEP_BETAS))
    for i in picks:
        beta, verdict = QEP_BETAS[i], QEP_VERDICTS[i]
        key = f"qep-500-{beta:.3f}"
        coeffs = gallery.qep_mass_spring(500, beta)
        Aq, Bq, Cq = _permute(rng, *coeffs)
        cases[key] = Case(lambda c=coeffs: oracle.qep_reference(*c),
                          {"definite": verdict})
        ops.append(Op(f"hyperbolic/{key}", "hyperbolic", key,
                      lambda Aq=Aq, Bq=Bq, Cq=Cq: definite.is_hyperbolic(
                          Aq, Bq, Cq, method="subspace", omega0=1.0),
                      digest_hyperbolic))
    if not smoke:
        n, beta = QEP_LARGE
        key = f"qep-{n}-{beta:.3f}"
        coeffs = gallery.qep_mass_spring(n, beta)
        A1, B1 = _permute(rng, *gallery.qep_linearization(*coeffs))
        cases[key] = Case(lambda c=coeffs: oracle.qep_reference(*c))
        ops.append(Op(f"crawford/{key}", "crawford", key,
                      lambda: definite.crawford_number(
                          A1, B1, method="subspace", omega0=1.0),
                      digest_crawford))
    key = f"qep-500-{CLI_BETA:.3f}"
    if key not in cases:
        coeffs = gallery.qep_mass_spring(500, CLI_BETA)
        cases[key] = Case(lambda c=coeffs: oracle.qep_reference(*c),
                          {"definite": True})
    argv = ["hyperbolic", "--qep-mass-spring", "500", "--beta", repr(CLI_BETA),
            "--method", "subspace", "--omega0", "1.0"]
    ops.append(Op("cli/hyperbolic", "cli-hyperbolic", key,
                  lambda: run_cli(argv), _cli_json))
    return Workload(cases, ops)


BUILDERS = {
    "small-dense": build_small_dense,
    "dense-grcar": build_dense_grcar,
    "sparse-qep": build_sparse_qep,
}


def build(name, seed, smoke, workdir) -> Workload:
    return BUILDERS[name](seed, smoke, workdir)
