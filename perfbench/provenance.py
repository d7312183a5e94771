"""Where a benchmark result came from: code, machine, libraries, BLAS threads."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _loaded_openblas():
    """Paths of the OpenBLAS libraries mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path) and ".so" in path:
                    paths.add(path)
    except OSError:
        pass
    return sorted(paths)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_libraries():
    """Per loaded OpenBLAS: the thread count in force and its build config."""
    out = {}
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _call(lib, _THREAD_SYMBOLS, ctypes.c_int)
        config = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        out[os.path.basename(path)] = {
            "threads": threads,
            "config": config.decode() if config else None,
        }
    return out


def _blas_version(module):
    try:
        cfg = module.show_config(mode="dicts")
        return cfg["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):
        return None


def provenance(root) -> dict:
    import numpy
    import scipy
    try:
        import threadpoolctl  # noqa: F401
        has_tpc = True
    except ImportError:
        has_tpc = False
    return {
        "commit": _git_commit(root),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "blas": blas_libraries(),
        "threadpoolctl": has_tpc,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "INR_OPT_THREADS")},
    }
