"""The traced benchmark names library functions; those names must exist.

``bench/spans.py`` wraps every public function of the layer modules, plus
the methods in its ``METHODS`` table, and each workload in
``bench/workloads.py`` lists in ``expected_spans`` the spans a traced run
must record.  A library function that is deleted, renamed or made private
while a workload still expects it makes ``bench/run.py --trace 1`` fail;
this test says so first.  It reads ``bench/`` and imports nothing from it.
"""

import ast
import importlib
import types
from pathlib import Path

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
