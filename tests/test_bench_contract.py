"""What perfbench and the README use of the program must keep working.

``perfbench/tracing.py`` patches every function in ``FUNCTIONS`` and every
method in ``METHODS`` by name and stops with "no binding ... found" when one
is gone.  Its tables are read here as literals, without importing it.
``perfbench/workloads.py`` calls the definiteness layer with the keywords
``pair``, ``method``, ``omega0`` and ``delta``, and the README's CLI block
must stay valid command lines.
"""

import ast
import importlib
import shlex
from pathlib import Path

import pytest

from inropt import cli, gallery
from inropt.definite import (crawford_number, inner_numerical_radius,
                             is_hyperbolic, nearest_definite_pair)
from inropt.levelset import levelset_minimize
from inropt.param import ParamHermitian
from inropt.subspace import subspace_minimize

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _table(name):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


@pytest.mark.parametrize("modname, fname, span", _table("FUNCTIONS"))
def test_traced_function_exists(modname, fname, span):
    assert callable(getattr(importlib.import_module(modname), fname))


@pytest.mark.parametrize("modname, cname, mname, span", _table("METHODS"))
def test_traced_method_exists(modname, cname, mname, span):
    cls = getattr(importlib.import_module(modname), cname)
    assert callable(cls.__dict__[mname])


def test_traced_result_fields_resolve():
    A, B = gallery.cheng_higham7()
    assert levelset_minimize(A + 1j * B)[0].iterations >= 1
    P = ParamHermitian.trig(A, B)
    assert subspace_minimize(P, omega1=0.45)[1].basis.size >= 1


def test_workload_keywords_accepted():
    A, B = gallery.cheng_higham7()
    opts = dict(method="subspace", omega0=1.0)
    assert inner_numerical_radius(pair=(A, B), **opts).opt.iterations >= 1
    assert crawford_number(A, B, **opts).witness.opt.iterations >= 1
    assert nearest_definite_pair(A, B, delta=1e-8, **opts).distance > 0
    assert is_hyperbolic(*gallery.qep_mass_spring4(), **opts)[1] is not None


def _readme_cli_lines():
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("inropt ")]


def test_readme_has_cli_lines():
    assert len(_readme_cli_lines()) >= 8


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_line_parses(argv):
    cli.build_parser().parse_args(argv)
