"""Source hygiene: every name a module imports is used, every parameter of
a module-level library function is used, every default of a library
function is overridden by some call, failures are built and verdicts
decided in one place, and the package's top-level imports form no cycle,
with an import inside a function only where one at the top would close a
cycle.  Every law model whose hom-sets hold several morphisms has its own
HomSet kernels.

No linter ships with the project, so this scans each ``tracedcat`` module,
test module and script with :mod:`ast`.  A name counts as used when the module loads it anywhere,
re-exports it through ``__all__``, or mentions it in a string annotation
such as ``"TAlgebra"``.
"""

import ast
from pathlib import Path

import pytest

from tracedcat.cli import _LAW_MODELS
from tracedcat.core import Model

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


def finish_calls(source):
    """The lines of ``source`` whose call of ``finish`` passes anything but
    a suite and findings, so decides some of the verdict itself."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and "finish" in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))
                  and (len(node.args) > 2
                       or any(isinstance(a, ast.Starred) for a in node.args)
                       or any(kw.arg not in ("suite", "findings")
                              for kw in node.keywords)))


def test_finish_call_scan():
    assert finish_calls("r.finish('s')\nr.finish('s', {})\n"
                        "r.finish(suite='s', findings={})\n"
                        "r.finish('s', True, {})\nr.finish('s', ok=1)\n"
                        "finish(*a)\nr.finish('s', **kw)\n") == [4, 5, 6, 7]


def test_only_the_recorder_decides_a_verdict():
    # Recorder.finish takes a suite and findings; a checker reports what
    # it skipped, sampled or compared through the Recorder instead
    calls = {path.name: finish_calls(path.read_text(encoding="utf-8"))
             for directory in ("src", "tests")
             for path in sorted((ROOT / directory).rglob("*.py"))}
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


def sibling_imports(source):
    """``(top, nested)``: the module ``x`` of each ``from .x import`` in
    ``source``, as a set for its top level and as ``(line, x)`` pairs for
    those inside a function or class."""
    tree = ast.parse(source)
    top = {node.module for node in tree.body
           if isinstance(node, ast.ImportFrom) and node.level == 1}
    nested = sorted((node.lineno, node.module) for stmt in tree.body
                    if not isinstance(stmt, ast.ImportFrom)
                    for node in ast.walk(stmt)
                    if isinstance(node, ast.ImportFrom) and node.level == 1)
    return top, nested


def reachable(graph, start):
    """The modules ``start`` reaches along one or more edges of ``graph``."""
    seen, todo = set(), list(graph.get(start, ()))
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(graph.get(module, ()))
    return seen


def test_sibling_import_scan():
    source = ("from __future__ import annotations\nimport os\n"
              "from .a import f\nclass K:\n    from .c import k\n"
              "def g():\n    from .b import h\n    return h\n")
    assert sibling_imports(source) == ({"a"}, [(5, "c"), (7, "b")])
    assert reachable({"a": {"b"}, "b": {"c", "a"}}, "a") == {"a", "b", "c"}
    assert reachable({"a": {"b"}, "b": set()}, "b") == set()


def package_imports():
    """``(graph, nested)``: each ``tracedcat`` module's top-level sibling
    imports, and its function-level ones with their lines."""
    scans = {path.stem: sibling_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    return ({module: top for module, (top, _) in scans.items()},
            {module: nested for module, (_, nested) in scans.items()})


def test_top_level_imports_are_acyclic():
    graph, _ = package_imports()
    assert [m for m in graph if m in reachable(graph, m)] == []


def test_function_level_imports_only_break_cycles():
    # an import sits inside a function only where its module already
    # reaches the importing one, so that importing it at the top would
    # close a cycle
    graph, nested = package_imports()
    hoistable = {module: [(line, x) for line, x in found
                          if module not in reachable(graph, x)]
                 for module, found in nested.items()}
    assert {m: found for m, found in hoistable.items() if found} == {}


def defaulted_parameters(source):
    """``(function, parameter, position)`` for each parameter with a
    default of each function of ``source``.  ``position`` counts the
    arguments a call passes before it, a method's ``self`` excluded, and is
    None for a keyword-only one; an ``__init__`` goes by its class's name,
    as its class is what a call names."""
    out = []

    def scan(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = 1 if isinstance(node, ast.ClassDef) else 0
                name = node.name if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                out.extend((name, a.arg, k - skip)
                           for k, a in enumerate(positional) if k >= first)
                out.extend((name, a.arg, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None)
            scan(child)

    scan(ast.parse(source))
    return out


def call_arguments(source):
    """``{name: [(positional, keywords), ...]}`` over every call in
    ``source`` of a name or an attribute ``name``: how many arguments it
    passes by position and the names it passes by keyword.  A ``*args``
    counts as every position, a ``**kwargs`` as every keyword (None)."""
    calls = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr",
                                                         None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        calls.setdefault(name, []).append(
            (float("inf") if starred else len(node.args),
             {kw.arg for kw in node.keywords}))
    return calls


def unset_defaults(library, sources):
    """``(module, function, parameter)`` for each defaulted parameter of a
    function in the ``library`` files that no call in the ``sources``
    files sets, by position or by keyword.  Calls are matched to functions
    by name alone."""
    calls = {}
    for path in sources:
        for name, found in call_arguments(
                path.read_text(encoding="utf-8")).items():
            calls.setdefault(name, []).extend(found)
    return [(path.stem, name, param)
            for path in library
            for name, param, position in defaulted_parameters(
                path.read_text(encoding="utf-8"))
            if not any(param in keywords or None in keywords
                       or (position is not None and positional > position)
                       for positional, keywords in calls.get(name, ()))]


def test_unset_default_scan(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def f(a, b=1, *, c=2, d):\n    pass\n"
                   "class K:\n    def __init__(self, x=0):\n        pass\n"
                   "    def m(self, y=0, z=0):\n        pass\n")
    assert defaulted_parameters(lib.read_text()) == [
        ("f", "b", 1), ("f", "c", None), ("K", "x", 0), ("m", "y", 0),
        ("m", "z", 1)]
    use = tmp_path / "use.py"
    use.write_text("f(0, d=1)\nK(1)\nk.m(**opts)\n")
    assert unset_defaults([lib], [use]) == [("lib", "f", "b"),
                                            ("lib", "f", "c")]
    use.write_text("f(*xs, c=3)\nk.m(1)\n")
    assert unset_defaults([lib], [use]) == [("lib", "K", "x"),
                                            ("lib", "m", "z")]


def test_every_default_is_set_by_some_call():
    # a defaulted parameter that no call sets is a setting nobody uses
    sources = [path for directory in ("src", "tests", "scripts")
               for path in sorted((ROOT / directory).rglob("*.py"))]
    assert unset_defaults(sorted(SRC.glob("*.py")), sources) == []


@pytest.mark.parametrize("name", sorted(_LAW_MODELS))
def test_law_models_with_large_hom_sets_have_hom_set_kernels(name):
    # the exhaustive driver hands such a model whole hom-sets; the base
    # kernels would build one Morphism per element
    model = _LAW_MODELS[name]()
    objs = model.enumerate_objects(2)
    if all(len(model.enumerate_hom(A, B) or ()) <= 1
           for A in objs for B in objs):
        return
    kernels = ["_compose_hom", "_tensor_hom"]
    if model.traced:
        kernels.append("_trace_hom")
    assert [k for k in kernels
            if getattr(type(model), k) is getattr(Model, k)] == []
