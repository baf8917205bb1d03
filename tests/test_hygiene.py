"""Source hygiene: every name a module imports is used, every parameter of
a module-level library function is used, and failures are built in one
place.

No linter ships with the project, so this scans each ``tracedcat`` module,
test module and script with :mod:`ast`.  A name counts as used when the module loads it anywhere,
re-exports it through ``__all__``, or mentions it in a string annotation
such as ``"TAlgebra"``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tracedcat"


def unused_imports(source):
    """The names imported by ``source`` that nothing in it refers to."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # __all__ entries and string annotations
            used.add(node.value)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_scan():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        (1, "os"), (2, "b")]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from .x import T\n__all__ = ['T']\n") == []
    assert unused_imports("from .x import T\ndef f() -> 'T': pass\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted((ROOT / "tests").glob("*.py"))
                         + sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def failure_calls(source):
    """The lines of ``source`` that call ``Failure`` directly."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and "Failure" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None)))


def test_failure_call_scan():
    assert failure_calls("Failure(1)\nx.Failure(2)\nFailure\n") == [1, 2]


def test_failures_built_only_by_the_recorder():
    # every module but laws.py counts and records through laws.Recorder
    calls = {path.name: failure_calls(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py") if path.name != "laws.py"}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def unused_parameters(source):
    """``(line, function, parameter)`` for each parameter of a module-level
    function of ``source`` that its body never refers to."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)]
        params += [a.arg for a in (args.vararg, args.kwarg) if a]
        used = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        out.extend((node.lineno, node.name, p) for p in params
                   if p not in used)
    return out


def test_unused_parameter_scan():
    source = ("def f(a, b, *c, d, **e):\n    return a + len(c)\n"
              "def g(x):\n    def h():\n        return x\n    return h\n"
              "class K:\n    def m(self, y):\n        pass\n")
    assert unused_parameters(source) == [(1, "f", "b"), (1, "f", "d"),
                                         (1, "f", "e")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_parameters(path):
    # every module-level function uses each of its parameters
    assert unused_parameters(path.read_text(encoding="utf-8")) == []
