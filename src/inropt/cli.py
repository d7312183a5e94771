"""Command-line interface.

One subcommand per application: ``inr`` (inner numerical radius),
``definite`` (Crawford number), ``distance`` (nearest definite pair),
``hyperbolic`` (QEP test), ``saddle`` (positive-definiteness shift),
``gallery`` (benchmark matrices), ``fov`` (field-of-values boundary data).
Matrices travel as Matrix Market files: results as JSON (CSV for ``fov``)
with 15 significant digits.  Exit codes: 0 success, 1 usage/parse error,
2 non-convergence, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gallery
from .definite import (crawford_number, inner_numerical_radius, is_hyperbolic,
                       nearest_definite_pair, saddle_shift)
from .errors import ConvergenceFailure, InroptError, VerificationFailure
from .kernels import hermitian_split
from .mmio import read_matrix, write_matrix
from .param import ParamHermitian, top_cluster

SCHEMA = "inropt/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2
EXIT_VERIFICATION = 3


def _round15(obj):
    """Clamp floats to 15 significant digits, recursively."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


def _emit(payload, out_path, fmt="json"):
    if fmt == "csv":
        rounded = _round15(payload)
        trace = rounded.pop("trace", [])
        lines = [f"# {k}={v}" for k, v in rounded.items()]
        lines.append("k,omega,value,lower_bound")
        for row in trace:
            cells = (row.get("k"), row.get("omega"), row.get("value"),
                     row.get("lower_bound"))
            lines.append(",".join("" if c is None else str(c)
                                  for c in cells))
        text = "\n".join(lines)
    else:
        text = json.dumps(_round15(payload), indent=2)
    _write(text, out_path)


def _write(text, out_path):
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def _load_pair(args):
    """(A, B) from ``--pair``, or the Hermitian split of ``--matrix`` C."""
    if getattr(args, "matrix", None):
        C = read_matrix(args.matrix)
        return hermitian_split(C.toarray() if hasattr(C, "toarray") else C)
    return read_matrix(args.pair[0]), read_matrix(args.pair[1])


def _solver_opts(args):
    """Only the flags given: unset ones take the library defaults."""
    names = ("tol", "eps_cluster", "max_iter", "omega0")
    return {k: getattr(args, k) for k in names
            if getattr(args, k) is not None}


def _inr_payload(res, args):
    payload = {
        "schema": SCHEMA,
        "command": args.command,
        "method": args.method,
        "zeta": res.zeta,
        "theta_star": res.theta_star,
        "f_star": res.f_star,
        "phi": res.phi,
        "zero_in_fov": res.zero_in_fov,
        "iterations": res.opt.iterations,
        "status": res.opt.status.value,
    }
    if res.opt.note:
        payload["note"] = res.opt.note
    if args.trace or args.format == "csv":
        payload["trace"] = [
            {"k": k, "omega": om, "value": val, "lower_bound": lb}
            for (k, om, val, lb) in res.opt.trace
        ]
    return payload


def _status_code(res):
    return EXIT_OK if res.opt.converged else EXIT_NOT_CONVERGED


def cmd_inr(args):
    res = inner_numerical_radius(pair=_load_pair(args), method=args.method,
                                 **_solver_opts(args))
    _emit(_inr_payload(res, args), args.out, args.format)
    return _status_code(res)


def cmd_definite(args):
    cr = crawford_number(*_load_pair(args), method=args.method,
                         **_solver_opts(args))
    payload = _inr_payload(cr.witness, args)
    payload.update({"is_definite": cr.is_definite, "crawford": cr.gamma})
    _emit(payload, args.out, args.format)
    return _status_code(cr.witness)


def cmd_distance(args):
    rep = nearest_definite_pair(*_load_pair(args), delta=args.delta,
                                method=args.method, variant=args.variant,
                                **_solver_opts(args))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, M in (("deltaA", rep.deltaA), ("deltaB", rep.deltaB),
                    ("A_tilde", rep.A_tilde), ("B_tilde", rep.B_tilde)):
        path = outdir / f"{args.prefix}{name}.mtx"
        write_matrix(path, M)
        files[name] = str(path)
    payload = {
        "schema": SCHEMA,
        "command": "distance",
        "method": args.method,
        "delta": args.delta,
        "distance": rep.distance,
        "psi": rep.psi,
        "theta_star": rep.theta_star,
        "lambda_min_Btilde": rep.crawford_after,
        "files": files,
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_hyperbolic(args):
    if args.qep_mass_spring is not None:
        Aq, Bq, Cq = gallery.qep_mass_spring(args.qep_mass_spring, args.beta)
    else:
        Aq, Bq, Cq = (read_matrix(p) for p in args.qep)
    hyp, wit = is_hyperbolic(Aq, Bq, Cq, method=args.method,
                             **_solver_opts(args))
    payload = _inr_payload(wit, args)
    payload["hyperbolic"] = hyp
    payload["crawford"] = wit.zeta if hyp else 0.0
    _emit(payload, args.out, args.format)
    return _status_code(wit)


def cmd_saddle(args):
    if args.synthetic is not None:
        if args.blocks is not None:
            raise ValueError("--blocks N M is not allowed with --synthetic")
        n, m = args.synthetic
        S, _ = gallery.synthetic_saddle(n, m, args.seed or 0)
    else:
        if args.blocks is None:
            raise ValueError("--blocks N M is required with --matrix")
        if args.seed is not None:
            raise ValueError("--seed is not allowed with --matrix")
        S = read_matrix(args.matrix)
        n, m = args.blocks
    out = saddle_shift(S, n, m, method=args.method, **_solver_opts(args))
    payload = {
        "schema": SCHEMA,
        "command": "saddle",
        "method": args.method,
        "n": n,
        "m": m,
        "definite": out is not None,
        "mu": out[0] if out else None,
        "lambda_min": out[1] if out else None,
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_gallery(args):
    params = {}
    for kv in args.param or []:
        key, _, value = kv.partition("=")
        params[key] = value
    if args.n is not None:
        params.setdefault("n", args.n)
    if args.beta is not None:
        params.setdefault("beta", args.beta)
    mats = gallery.generate(args.name, **params)
    out = Path(args.output)
    files = {}
    if len(mats) == 1:
        files[next(iter(mats))] = str(out)
        write_matrix(out, next(iter(mats.values())))
    else:
        stem = out.with_suffix("")
        for name, M in mats.items():
            path = Path(f"{stem}_{name}.mtx")
            write_matrix(path, M)
            files[name] = str(path)
    _emit({"schema": SCHEMA, "command": "gallery", "name": args.name,
           "params": params, "files": files}, args.out)
    return EXIT_OK


def cmd_fov(args):
    A, B = _load_pair(args)
    m = args.samples
    if m < 3:
        raise ValueError("--samples must be >= 3")
    P = ParamHermitian.trig(A, B)
    C = A + 1j * B
    C = np.asarray(C.toarray() if hasattr(C, "toarray") else C, dtype=complex)
    rows = []
    boundary = []
    for i in range(m):
        th = 2.0 * np.pi * i / m
        v = top_cluster(P, th).vectors[:, 0]
        p = complex(v.conj() @ C @ v)
        boundary.append(p)
        rows.append(("boundary", th, p.real, p.imag))
    for lam in np.linalg.eigvals(C):
        rows.append(("eigenvalue", "", lam.real, lam.imag))
    j = int(np.argmin(np.abs(boundary)))
    zp = boundary[j]
    rows.append(("zeta", 2.0 * np.pi * j / m, zp.real, zp.imag))
    lines = ["kind,theta,re,im"]
    for kind, th, re, im in rows:
        tht = "" if th == "" else f"{th:.15g}"
        lines.append(f"{kind},{tht},{re:.15g},{im:.15g}")
    _write("\n".join(lines), args.out)
    return EXIT_OK


def _add_solver_flags(p, trace=True):
    p.add_argument("--method", default="auto",
                   choices=["auto", "levelset", "support", "subspace"])
    p.add_argument("--tol", type=float, default=None,
                   help="stopping tolerance (library default 1e-12)")
    p.add_argument("--eps-cluster", dest="eps_cluster", type=float,
                   default=None,
                   help="eigenvalue cluster width (library default 1e-6)")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p.add_argument("--omega0", type=float, default=None,
                   help="initial angle (support start / subspace sample)")
    p.add_argument("--out", default=None, help="write the result here")
    if trace:
        p.add_argument("--trace", action="store_true")
        p.add_argument("--format", default="json", choices=["json", "csv"],
                       help="csv emits the trace table, scalars as comments")


def _add_input_flags(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--matrix", help="Matrix Market file for C")
    g.add_argument("--pair", nargs=2, metavar=("A", "B"),
                   help="Matrix Market files for a Hermitian pair")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1: argparse's 2 is non-convergence here
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="inropt",
        description="Global eigenvalue optimization for Hermitian pairs: "
                    "inner numerical radius, definiteness, nearest definite "
                    "pairs, QEP hyperbolicity, saddle-point shifts.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inr", help="inner numerical radius")
    _add_input_flags(p)
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_inr)

    p = sub.add_parser("definite", help="Crawford number / definiteness")
    _add_input_flags(p)
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_definite)

    p = sub.add_parser("distance", help="distance to a nearest definite pair")
    p.add_argument("--pair", nargs=2, metavar=("A", "B"), required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--variant", default="clip", choices=["clip", "uniform"])
    p.add_argument("--outdir", default=".")
    p.add_argument("--prefix", default="repair_")
    _add_solver_flags(p, trace=False)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("hyperbolic", help="QEP hyperbolicity test")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--qep", nargs=3, metavar=("Aq", "Bq", "Cq"))
    g.add_argument("--qep-mass-spring", type=int, metavar="N",
                   help="mass-spring instance of this size")
    p.add_argument("--beta", type=float, default=1.0)
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_hyperbolic)

    p = sub.add_parser("saddle", help="positive-definiteness shift")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--matrix", help="saddle matrix S")
    g.add_argument("--synthetic", nargs=2, type=int, metavar=("N", "M"))
    p.add_argument("--blocks", nargs=2, type=int, metavar=("N", "M"),
                   help="block sizes of S (required with --matrix)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of --synthetic (default 0)")
    _add_solver_flags(p, trace=False)
    p.set_defaults(fn=cmd_saddle)

    p = sub.add_parser("gallery", help="generate benchmark matrices")
    p.add_argument("name")
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("beta", nargs="?", type=float, default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--param", action="append",
                   help="extra key=value generator parameter")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gallery)

    p = sub.add_parser("fov", help="field-of-values boundary samples (CSV)")
    _add_input_flags(p)
    p.add_argument("--samples", type=int, default=360)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fov)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)

    try:
        return args.fn(args)
    except (InroptError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, VerificationFailure):
            return EXIT_VERIFICATION
        if isinstance(exc, ConvergenceFailure):
            return EXIT_NOT_CONVERGED
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
