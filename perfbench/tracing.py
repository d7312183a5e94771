"""Spans and counters around inropt's public functions, from outside the package.

The tracer wraps each function at every place that binds it: a function
imported by name into another module (``from .kernels import
largest_eigpairs``) is a second binding, so every ``inropt`` module is
scanned for the original object and each hit is replaced.  Dense Hermitian
eigensolves are counted where they happen, at ``numpy.linalg.eigh`` and
``numpy.linalg.eigvalsh``, which also catches the direct calls in ``param``,
``levelset``, ``definite`` and ``cli``.  Lanczos calls are counted at
``scipy.sparse.linalg.eigsh``, with a matvec counter on the operator handed
to it.

Each span is recorded as ``[name, start, end, parent, attrs]`` and kept in
memory; self time (duration minus the duration of child spans) is derived
from the records when a pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

# (module, function, span name) for plain functions.
FUNCTIONS = [
    ("inropt.kernels", "hermitian_eig", "kernels.eig"),
    ("inropt.kernels", "largest_eigpairs", "kernels.eigpairs"),
    ("inropt.kernels", "spectral_norm_ub", "kernels.norm_ub"),
    ("inropt.kernels", "pencil_unit_eigs", "kernels.pencil"),
    ("inropt.kernels", "orthonormal_extend", "kernels.extend"),
    ("inropt.param", "eig_max_eval", "param.eval"),
    ("inropt.param", "support_slope", "param.eval"),
    ("inropt.param", "clarke_interval", "param.clarke"),
    ("inropt.param", "default_gamma_trig", "param.gamma"),
    ("inropt.support", "eigopt_minimize", "support.solve"),
    ("inropt.support", "eigopt_minimize_callback", "support.solve"),
    ("inropt.levelset", "levelset_minimize", "levelset.solve"),
    ("inropt.levelset", "level_intervals", "levelset.intervals"),
    ("inropt.subspace", "subspace_minimize", "subspace.solve"),
    ("inropt.subspace", "verify_interpolation", "subspace.verify"),
    ("inropt.definite", "inner_numerical_radius", "definite.call"),
    ("inropt.definite", "crawford_number", "definite.call"),
    ("inropt.definite", "rotate_pair", "definite.call"),
    ("inropt.definite", "eigenpair_backmap", "definite.call"),
    ("inropt.definite", "nearest_definite_pair", "definite.call"),
    ("inropt.definite", "is_hyperbolic", "definite.call"),
    ("inropt.definite", "saddle_shift", "definite.call"),
    ("inropt.cli", "main", "cli.main"),
    ("inropt.mmio", "read_matrix", "mmio.read"),
    ("inropt.mmio", "write_matrix", "mmio.write"),
]

# (module, class, method, span name).
METHODS = [
    ("inropt.param", "ParamHermitian", "evaluate", "param.assemble"),
    ("inropt.param", "ParamHermitian", "derivative_matrix", "param.assemble"),
    ("inropt.param", "ParamHermitian", "project", "param.project"),
    ("inropt.support", "PiecewiseModel", "insert", "support.insert"),
    ("inropt.support", "PiecewiseModel", "peek_min", "support.peek"),
]

# Per-layer metrics reported by the traced run, with their units.
LAYER_METRICS = {
    "kernels.dense_eig.calls": "count",
    "kernels.dense_eig.s": "s",
    "kernels.dense_eig.sum_n3": "n3",
    "kernels.lanczos.calls": "count",
    "kernels.lanczos.s": "s",
    "kernels.lanczos.matvecs": "count",
    "kernels.lanczos.restarts": "count",
    "kernels.norm_ub.calls": "count",
    "kernels.norm_ub.s": "s",
    "kernels.pencil.calls": "count",
    "kernels.pencil.s": "s",
    "kernels.pencil.sum_n3": "n3",
    "kernels.extend.calls": "count",
    "kernels.extend.s": "s",
    "param.eval.calls": "count",
    "param.eval.s": "s",
    "param.clarke.calls": "count",
    "param.assemble.calls": "count",
    "param.assemble.s": "s",
    "param.project.calls": "count",
    "param.project.s": "s",
    "support.solves": "count",
    "support.iterations": "count",
    "support.model.inserts": "count",
    "support.model.s": "s",
    "support.self_s": "s",
    "levelset.solves": "count",
    "levelset.iterations": "count",
    "levelset.intervals.calls": "count",
    "levelset.intervals.s": "s",
    "levelset.filter_evals": "count",
    "levelset.self_s": "s",
    "subspace.solves": "count",
    "subspace.iterations": "count",
    "subspace.basis_dim": "count",
    "subspace.reduced_solves": "count",
    "subspace.reduced.s": "s",
    "subspace.self_s": "s",
    "definite.calls": "count",
    "definite.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "mmio.calls": "count",
    "mmio.s": "s",
    "mmio.bytes": "B",
    "trace.overhead_s": "s",
}

NAME, START, END, PARENT, ATTRS = range(5)


def _inropt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "inropt" or name.startswith("inropt."))]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement, extra_owners=()):
        """Replace ``original`` at every inropt binding plus ``extra_owners``."""
        hits = 0
        for owner, attr in extra_owners:
            self.set(owner, attr, replacement)
            hits += 1
        for mod in _inropt_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    hits += 1
        return hits

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SeededLanczos:
    """Draws the random Lanczos start vectors from a seeded generator.

    ``largest_eigpairs`` passes neither ``v0`` nor ``rng`` to ``eigsh``; with
    scipy >= 1.15 the start vector then comes from OS entropy, so matvec
    counts change from run to run.  The benchmark supplies a generator that
    is reset at the start of every pass, which makes Lanczos work repeat
    exactly for a given seed.  Untraced and traced runs both use it.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = None
        self.patches = Patches()
        self.supported = "rng" in inspect.signature(spla.eigsh).parameters

    def reset(self):
        self.rng = np.random.default_rng([self.seed, 0x1A2C])

    def install(self):
        if not self.supported:
            return
        original = spla.eigsh

        @functools.wraps(original)
        def eigsh(*args, **kwargs):
            if kwargs.get("rng") is None:
                kwargs["rng"] = self.rng
            return original(*args, **kwargs)

        self.patches.everywhere(original, eigsh, [(spla, "eigsh")])
        self.reset()

    def uninstall(self):
        self.patches.undo()


class Tracer:
    """In-memory spans around every traced call while ``enabled``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.enabled = False
        self.patches = Patches()

    # -- span bookkeeping ---------------------------------------------------
    def reset(self):
        self.spans = []
        self._stack = []

    def _open(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def current(self, name):
        """Innermost open span called ``name``, or None."""
        for idx in reversed(self._stack):
            if self.spans[idx][NAME] == name:
                return self.spans[idx]
        return None

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recorded as span ``name``; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` return attribute dicts for the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(name, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                extra = after(args, kwargs, result)
                rec[ATTRS] = {**(rec[ATTRS] or {}), **extra}
            return result

        return wrapper

    # -- installation -------------------------------------------------------
    def install(self):
        import numpy.linalg as nla

        after = {
            "support.solve": lambda a, k, r: {"iterations": r.iterations},
            "levelset.solve": lambda a, k, r: {"iterations": r[0].iterations},
            "subspace.solve": lambda a, k, r: {"iterations": r[0].iterations,
                                               "basis_dim": r[1].basis.size},
            "mmio.write": lambda a, k, r: {"bytes": _file_size(a[0])},
        }
        before = {
            "kernels.pencil": lambda a, k: {"n3": (2 * np.shape(a[0])[0]) ** 3},
            "mmio.read": lambda a, k: {"bytes": _file_size(a[0])},
        }
        for modname, fname, span in FUNCTIONS:
            original = getattr(importlib.import_module(modname), fname)
            wrapped = self.wrap(span, original, before.get(span), after.get(span))
            if not self.patches.everywhere(original, wrapped):
                raise RuntimeError(f"no binding of {modname}.{fname} found")
        for modname, cname, mname, span in METHODS:
            cls = getattr(importlib.import_module(modname), cname)
            self.patches.set(cls, mname, self.wrap(span, cls.__dict__[mname]))

        n3 = lambda a, k: {"n3": _eig_work(a[0])}
        for fname in ("eigh", "eigvalsh"):
            original = getattr(nla, fname)
            self.patches.everywhere(
                original, self.wrap("kernels.dense_eig", original, n3),
                [(nla, fname)])
        self._install_lanczos()

    def _install_lanczos(self):
        tracer = self
        original = spla.eigsh

        @functools.wraps(original)
        def eigsh(A, *args, **kwargs):
            if not tracer.enabled:
                return original(A, *args, **kwargs)
            rec = tracer._open("kernels.lanczos", {"matvecs": 0, "restarts": 0})
            attrs = rec[ATTRS]

            def matvec(x):
                attrs["matvecs"] += 1
                return A @ x

            op = spla.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            try:
                return original(op, *args, **kwargs)
            finally:
                tracer._close(rec)

        self.patches.everywhere(original, eigsh, [(spla, "eigsh")])
        # ARPACK's implicit-restart count lives in scipy's private parameter
        # object; read it when the eigenpairs are extracted.
        try:
            from scipy.sparse.linalg._eigen.arpack import arpack as _arpack
        except ImportError:
            return
        for cname in ("_SymmetricArpackParams", "_UnsymmetricArpackParams"):
            cls = getattr(_arpack, cname, None)
            if cls is None or "extract" not in cls.__dict__:
                continue
            extract = cls.__dict__["extract"]

            @functools.wraps(extract)
            def counted(params, *args, _extract=extract, **kwargs):
                rec = tracer.current("kernels.lanczos") if tracer.enabled else None
                if rec is not None:
                    iters = int(getattr(params, "arpack_dict", {}).get("iter", 1))
                    rec[ATTRS]["restarts"] += max(iters - 1, 0)
                return _extract(params, *args, **kwargs)

            self.patches.set(cls, "extract", counted)

    def uninstall(self):
        self.patches.undo()

    # -- derived metrics ----------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer counts and times of the spans recorded since reset."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        m = defaultdict(float)
        for i, s in enumerate(spans):
            name, attrs = s[NAME], s[ATTRS] or {}
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            self_s = dur[i] - child[i]
            if name == "kernels.dense_eig":
                m["kernels.dense_eig.calls"] += 1
                m["kernels.dense_eig.s"] += dur[i]
                m["kernels.dense_eig.sum_n3"] += attrs["n3"]
                if parent in ("levelset.solve", "levelset.intervals"):
                    m["levelset.filter_evals"] += 1
            elif name == "kernels.lanczos":
                m["kernels.lanczos.calls"] += 1
                m["kernels.lanczos.s"] += dur[i]
                m["kernels.lanczos.matvecs"] += attrs["matvecs"]
                m["kernels.lanczos.restarts"] += attrs["restarts"]
            elif name in ("kernels.norm_ub", "kernels.extend"):
                m[name + ".calls"] += 1
                m[name + ".s"] += dur[i]
            elif name == "kernels.pencil":
                m["kernels.pencil.calls"] += 1
                m["kernels.pencil.s"] += dur[i]
                m["kernels.pencil.sum_n3"] += attrs["n3"]
            elif name in ("param.eval", "param.clarke"):
                m["param.eval.calls"] += 1
                m["param.eval.s"] += dur[i]
                if name == "param.clarke":
                    m["param.clarke.calls"] += 1
            elif name in ("param.assemble", "param.project"):
                m[name + ".calls"] += 1
                m[name + ".s"] += dur[i]
            elif name in ("support.insert", "support.peek"):
                m["support.model.s"] += dur[i]
                if name == "support.insert":
                    m["support.model.inserts"] += 1
            elif name in ("support.solve", "levelset.solve", "subspace.solve"):
                layer = name.split(".")[0]
                m[layer + ".solves"] += 1
                m[layer + ".iterations"] += attrs["iterations"]
                m[layer + ".self_s"] += self_s
                if layer == "subspace":
                    m["subspace.basis_dim"] += attrs["basis_dim"]
                if parent == "subspace.solve":
                    m["subspace.reduced_solves"] += 1
                    m["subspace.reduced.s"] += dur[i]
            elif name == "levelset.intervals":
                m["levelset.intervals.calls"] += 1
                m["levelset.intervals.s"] += dur[i]
                m["levelset.self_s"] += self_s
            elif name == "definite.call":
                m["definite.calls"] += 1
                m["definite.self_s"] += self_s
            elif name == "cli.main":
                m["cli.calls"] += 1
                m["cli.self_s"] += self_s
            elif name in ("mmio.read", "mmio.write"):
                m["mmio.calls"] += 1
                m["mmio.s"] += dur[i]
                m["mmio.bytes"] += attrs["bytes"]
        return {k: float(m.get(k, 0.0)) for k in LAYER_METRICS
                if k != "trace.overhead_s"}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _eig_work(a) -> float:
    shape = np.shape(a)
    if len(shape) < 2:
        return 0.0
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return float(batch) * float(shape[-1]) ** 3
