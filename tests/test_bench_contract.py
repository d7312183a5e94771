"""The names perfbench's tracer wraps must keep existing.

``perfbench/tracing.py`` patches every function in ``FUNCTIONS`` and every
method in ``METHODS`` by name and stops with "no binding ... found" when one
is gone.  Its tables are read here as literals, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from inropt import gallery
from inropt.levelset import levelset_minimize
from inropt.param import ParamHermitian
from inropt.subspace import subspace_minimize

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
