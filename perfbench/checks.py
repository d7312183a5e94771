"""Checks of every operation's digest against the oracle and published values.

Tolerances:
- ``F_TOL``: a minimum (or distance) against the oracle's global minimum;
- ``LB_SLACK``: rounding allowed above the oracle for a certified lower bound,
  relative to ``max(1, ||A|| + ||B||)``;
- ``CERT_TOL``: a certificate recomputed with numpy/scipy against the value
  the program reported, relative to the same scale.
Published values use the tolerances of the acceptance suite.
"""

from __future__ import annotations

import math

import numpy as np

from oracle import angle_gap

F_TOL = 1e-6
LB_SLACK = 1e-10
CERT_TOL = 1e-9
CH7_TOL = 1e-9
GRCAR_TOL = 1e-8


class Refs:
    """Oracle values per case, computed on first use."""

    def __init__(self, cases):
        self.cases = cases
        self._pairs = {}
        self._mins = {}

    def pair(self, key):
        if key not in self._pairs:
            self._pairs[key] = self.cases[key].ref()
        return self._pairs[key]

    def minimum(self, key):
        if key not in self._mins:
            self._mins[key] = self.pair(key).global_min()
        return self._mins[key]

    def scale(self, key):
        return max(1.0, self.pair(key).norm_bound)

    def lam(self, key, thetas):
        return self.pair(key).lam_max(thetas)


def _near(got, want, tol):
    return got is not None and want is not None and abs(got - want) <= tol


def check_solve(d, refs, key):
    """A minimizer's value, lower bound, angle and certificate."""
    fails = []
    theta_ref, f_ref = refs.minimum(key)
    scale = refs.scale(key)
    if not _near(d["f"], f_ref, F_TOL):
        fails.append(f"f_star {d['f']!r} vs oracle {f_ref!r}")
    lb = d.get("lb")
    if lb is not None and math.isfinite(lb) and lb > f_ref + LB_SLACK * scale:
        fails.append(f"lower_bound {lb!r} above oracle minimum {f_ref!r}")
    lam = float(refs.lam(key, [d["theta"]])[0])
    if not _near(lam, d["f"], CERT_TOL * scale):
        fails.append(f"lambda_max(H(theta*)) {lam!r} != f_star {d['f']!r}")
    pub = refs.cases[key].published
    if "f" in pub and not _near(d["f"], pub["f"], _pub_tol(key)):
        fails.append(f"f_star {d['f']!r} vs published {pub['f']!r}")
    if "theta" in pub and angle_gap(d["theta"], pub["theta"]) > _pub_tol(key):
        fails.append(f"theta* {d['theta']!r} vs published {pub['theta']!r}")
    if "zeta" in pub and not _near(abs(d["f"]), pub["zeta"], CH7_TOL):
        fails.append(f"zeta {abs(d['f'])!r} vs published {pub['zeta']!r}")
    if "definite" in pub and d.get("definite") is not None \
            and d["definite"] != pub["definite"]:
        fails.append(f"verdict {d['definite']} vs published {pub['definite']}")
    if "definite" in d and abs(f_ref) > F_TOL and d["definite"] != (f_ref < 0.0):
        fails.append(f"verdict {d['definite']} vs oracle minimum {f_ref!r}")
    return fails


def _pub_tol(key):
    if key.startswith("grcar"):
        return GRCAR_TOL
    return F_TOL


def check_repair(d, refs, key, delta):
    """Nearest-definite-pair distance and its certificates."""
    fails = []
    _, f_ref = refs.minimum(key)
    scale = refs.scale(key)
    want = max(delta + f_ref, 0.0)
    if not _near(d["distance"], want, F_TOL):
        fails.append(f"distance {d['distance']!r} vs oracle {want!r}")
    if "theta" in d:
        lam = float(refs.lam(key, [d["theta"]])[0])
        if not _near(d["distance"], max(delta + lam, 0.0), CERT_TOL * scale):
            fails.append(f"distance {d['distance']!r} != delta + lambda_max(H(theta*))")
    if not _near(d["pert_norm"], d["distance"], CERT_TOL * scale):
        fails.append(f"||[dA dB]||_2 {d['pert_norm']!r} != distance {d['distance']!r}")
    if not d["btilde_pd"]:
        fails.append("B_tilde fails Cholesky")
    target = max(delta, max(-f_ref, 0.0))
    if not _near(d["btilde_min"], target, F_TOL):
        fails.append(f"lambda_min(B_tilde) {d['btilde_min']!r} vs max(delta, gamma) {target!r}")
    if "crawford_after" in d and not _near(d["btilde_min"], d["crawford_after"],
                                           CERT_TOL * scale):
        fails.append("lambda_min(B_tilde) differs from the reported value")
    pub = refs.cases[key].published
    if "zeta" in pub and not _near(d["distance"], pub["zeta"] + delta, CH7_TOL):
        fails.append(f"distance {d['distance']!r} vs zeta + delta {pub['zeta'] + delta!r}")
    if "distance" in pub and not _near(d["distance"], pub["distance"], GRCAR_TOL):
        fails.append(f"distance {d['distance']!r} vs published {pub['distance']!r}")
    return fails


def check_saddle(d, refs, key):
    _, f_ref = refs.minimum(key)
    if d["definite"] != (f_ref < 0.0):
        return [f"saddle verdict {d['definite']} vs oracle minimum {f_ref!r}"]
    if d["definite"] and not (d["shift_pd"] and d["lam_min"] > 0.0):
        return [f"S - mu*J not positive definite (mu={d['mu']!r})"]
    return []


def check_cli(op, d, refs):
    if d["code"] != 0:
        return [f"exit code {d['code']}"]
    fails = []
    key = op.case
    p = d.get("payload")
    kind = op.kind
    if kind == "cli-gallery":
        if not d["roundtrip"]:
            fails.append("gallery files do not round-trip cheng_higham7")
    elif kind in ("cli-inr", "cli-definite", "cli-hyperbolic"):
        facts = {"f": p["f_star"], "theta": p["theta_star"], "lb": None}
        if kind == "cli-definite":
            facts["definite"] = p["is_definite"]
        if kind == "cli-hyperbolic":
            facts["definite"] = p["hyperbolic"]
        fails += check_solve(facts, refs, key)
        if kind == "cli-inr":
            trace = p.get("trace") or []
            if not trace or not _near(min(r["value"] for r in trace), p["f_star"], 1e-12):
                fails.append("levelset trace missing or not ending at f_star")
        if p.get("status") != "Converged":
            fails.append(f"status {p.get('status')}")
    elif kind == "cli-distance":
        facts = {"distance": p["distance"], "theta": p["theta_star"],
                 **{k: d[k] for k in ("pert_norm", "btilde_min", "btilde_pd")}}
        fails += check_repair(facts, refs, key, op.spec["delta"])
    elif kind == "cli-fov":
        scale = refs.scale(key)
        want = refs.lam(key, d["thetas"])
        err = float(np.max(np.abs(np.asarray(d["support"]) - want)))
        if len(d["thetas"]) != 720 or err > CERT_TOL * scale:
            fails.append(f"boundary support values off by {err:.3e}")
        _, f_ref = refs.minimum(key)
        z = d["zeta_sample"]
        if z is None or not (abs(f_ref) - CERT_TOL * scale <= z <= abs(f_ref) + 1e-2):
            fails.append(f"sampled zeta {z!r} vs oracle {abs(f_ref)!r}")
    return fails


def check(op, d, refs):
    """Failure messages for one operation's digest (empty when it passed)."""
    if op.kind in ("inr", "hyperbolic", "crawford"):
        return check_solve(d, refs, op.case)
    if op.kind == "ndp":
        return check_repair(d, refs, op.case, op.spec["delta"])
    if op.kind == "saddle":
        return check_saddle(d, refs, op.case)
    return check_cli(op, d, refs)
