"""The benchmark names library functions; those names must exist.

``bench/spans.py`` wraps every public function of the layer modules, plus
the methods in its ``METHODS`` table, and each workload in
``bench/workloads.py`` lists in ``expected_spans`` the spans a traced run
must record.  A library function that is deleted, renamed or made private
while a workload still expects it makes ``bench/run.py --trace 1`` fail;
so does a library name or keyword argument that the workloads use and the
library no longer has.  These tests say so first.  They read ``bench/`` and
import nothing from it.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import saacert
import saacert.cli  # noqa: F401  (binds saacert.cli, as the workloads do)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _module_constant(tree: ast.Module, name: str):
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == name):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"bench/spans.py defines no {name}")


def _expected_spans() -> dict:
    """{workload class: expected span names}, from the class bodies."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    found = {}
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for stmt in cls.body:
            if (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "expected_spans"
                            for t in stmt.targets)):
                found[cls.name] = ast.literal_eval(stmt.value)
    return found


def test_bench_span_names_are_library_functions():
    spans = ast.parse((BENCH / "spans.py").read_text())
    layers = _module_constant(spans, "LAYERS")
    methods = _module_constant(spans, "METHODS")
    wrapped = set()
    for layer, cls_name, meth in methods:
        cls = getattr(importlib.import_module(f"saacert.{layer}"), cls_name)
        assert isinstance(vars(cls).get(meth), types.FunctionType), (cls_name, meth)
        wrapped.add(f"{layer}.{meth}")
    expected = _expected_spans()
    assert len(expected) == 4
    missing = []
    for workload, names in expected.items():
        for name in names:
            layer, attr = name.split(".")
            assert layer in layers, (workload, name)
            fn = vars(importlib.import_module(f"saacert.{layer}")).get(attr)
            public = (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                      and fn.__module__ == f"saacert.{layer}")
            if not (public or name in wrapped):
                missing.append((workload, name))
    assert missing == []


def _library_object(node):
    """What an ``sa.<name>[.<attr>...]`` chain names in the library: the
    object, ``KeyError`` naming the chain where it breaks, or None for an
    expression that is no such chain."""
    if isinstance(node, ast.Name):
        return saacert if node.id == "sa" else None
    if not isinstance(node, ast.Attribute):
        return None
    owner = _library_object(node.value)
    if owner is None:
        return None
    if not hasattr(owner, node.attr):
        raise KeyError(ast.unparse(node))
    return getattr(owner, node.attr)


def test_bench_calls_match_the_library_api():
    """Every ``sa.<name>`` that ``bench/workloads.py`` uses exists, and every
    call to a library callable there binds to its signature: no keyword that
    is not a parameter, no positional argument past the last."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    missing, unbound, calls = [], [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            try:
                _library_object(node)
            except KeyError as err:
                missing.append(err.args[0])
        if not isinstance(node, ast.Call):
            continue
        try:
            fn = _library_object(node.func)
        except KeyError:
            continue
        if fn is None or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        calls += 1
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        try:
            inspect.signature(fn).bind_partial(*node.args, **keywords)
        except TypeError as err:
            unbound.append(f"{ast.unparse(node.func)}: {err}")
    assert calls > 20
    assert sorted(set(missing)) == []
    assert unbound == []
