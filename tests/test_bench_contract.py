"""What perfbench and the README use of the program must keep working.

``perfbench/tracing.py`` patches every function in ``FUNCTIONS`` and every
method in ``METHODS`` by name and stops with "no binding ... found" when one
is gone.  Its tables are read here as literals, without importing it.
``perfbench/workloads.py`` calls the definiteness layer with the keywords
``pair``, ``method``, ``omega0`` and ``delta``, and every line of the
README's CLI block must parse and run.
"""

import ast
import csv
import importlib
import io
import json
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


def _readme_cli_block():
    """The ``inropt ...`` lines of the README's CLI block, in order."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("inropt ")]


def _readme_cli_lines():
    return [shlex.split(line, comments=True)[1:]
            for line in _readme_cli_block()]


def test_readme_has_cli_lines():
    assert len(_readme_cli_lines()) >= 8


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_line_parses(argv):
    cli.build_parser().parse_args(argv)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # Each line reads the files the lines before it wrote.
    monkeypatch.chdir(tmp_path)
    for line in _readme_cli_block():
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == 0, line
        text = capsys.readouterr().out
        written = [w.strip() for w in line.partition("# writes ")[2].split(",")
                   if w.strip()]
        if "--out" in argv:
            out = argv[argv.index("--out") + 1]
            written.append(out)
            text = Path(out).read_text()
        if argv[0] == "fov":
            rows = list(csv.reader(io.StringIO(text)))
            assert rows[0] == ["kind", "theta", "re", "im"], line
            assert all(len(r) == 4 for r in rows[1:]) and len(rows) > 1, line
        else:
            written += json.loads(text).get("files", {}).values()
        for path in written:
            assert Path(path).is_file(), (line, path)
