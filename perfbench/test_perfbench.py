"""Tests of the benchmark itself: smoke runs of every workload and the oracle.

    python3 -m pytest perfbench

The smoke runs call every public API the benchmark uses, so a change that
breaks one of them fails here first.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    out = result(bench(workload, 0))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == set(END_TO_END)
    for name, m in out["metrics"].items():
        assert m["unit"] == END_TO_END[name] and m["value"] > 0


@pytest.mark.parametrize("workload", ["small-dense", "sparse-qep"])
def test_traced_counts_repeat(workload):
    first, second = (result(bench(workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(LAYER_METRICS)
    counts = [k for k, unit in LAYER_METRICS.items() if unit in ("count", "n3", "B")]
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["support.solves"]["value"] > 0
    if workload == "sparse-qep":
        assert first["metrics"]["kernels.lanczos.matvecs"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("small-dense", 0, cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_oracle_tridiag_nonsmooth():
    from inropt import gallery
    A, B = gallery.hermitian_split(gallery.tridiag_nonsmooth(10))
    theta, value = oracle.RefPair(A, B).global_min()
    assert abs(value + 1.0) <= 1e-9
    assert oracle.angle_gap(theta, 7.0 * math.pi / 6.0) <= 1e-6


def test_crossing_pair_minimum_is_built_in():
    rng = np.random.default_rng(5)
    A, B, t0, value = workloads.crossing_pair(12, rng)
    theta, got = oracle.RefPair(A, B).global_min()
    assert abs(got - value) <= 1e-9
    assert oracle.angle_gap(theta, t0) <= 1e-6


def test_banded_paths_match_dense():
    from inropt import gallery
    coeffs = gallery.qep_mass_spring(60, 0.5)
    banded = oracle.qep_reference(*coeffs)
    A1, B1 = gallery.qep_linearization(*coeffs)
    dense = oracle.RefPair(A1.toarray(), B1.toarray())
    ths = np.linspace(0.0, 2.0 * math.pi, 7)
    assert banded.banded and not dense.banded
    assert np.allclose(banded.lam_max(ths), dense.lam_max(ths), atol=1e-10)
    A, B = gallery.grcar_pair(120)
    g = oracle.reference_pair(A, B)
    assert g.banded
    assert np.allclose(g.lam_max(ths), oracle.RefPair(A, B).lam_max(ths), atol=1e-10)
