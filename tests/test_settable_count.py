"""The number of settable values in ``src/saacert`` is recorded here.

A settable value is a parameter with a default (lambdas included) or a
dataclass field with a default, counted over the AST of every module.  Each
one is an option a caller may set, so the library keeps only those some
caller does set.  A change that adds or removes one updates ``RECORDED``
and says why in CHANGES.md.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "saacert"
RECORDED = 130


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d.func if isinstance(d, ast.Call) else d)
               in ("dataclass", "dataclasses.dataclass") for d in node.decorator_list)


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def test_rule_counts_defaults_and_dataclass_fields():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): return lambda x=0: x\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    Z = 1\n"
        "class B:\n"
        "    y: int = 0\n")
    assert settable_values(tree) == 4


def test_settable_value_count_is_recorded():
    count = sum(settable_values(ast.parse(path.read_text()))
                for path in sorted(SRC.glob("*.py")))
    assert count == RECORDED
