"""The package source keeps to 79 columns a line, and defines no function
that nothing in it calls or names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# perfbench/tracer.py looks these up and patches them, and the tests call
# them, but no package code does (ROADMAP item 5 deletes or moves them)
TRACER_ONLY = {"gauss_jacobi", "eval_spectrum_deriv", "parseval_residual"}


def test_no_source_line_is_longer_than_79_columns():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    long = [f"{path.relative_to(SRC)}:{i}: {len(line)} columns"
            for path in paths
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []


def test_every_function_in_the_source_is_referenced_in_it():
    # a function or method is referenced when a name or an attribute in
    # src/ reads it; an import alias is no reference, dunders are exempt
    defined, used = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.relative_to(SRC)}:"
                                              f"{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    unused = {name: where for name, where in defined.items()
              if name not in used
              and not (name.startswith("__") and name.endswith("__"))}
    assert sorted(unused) == sorted(TRACER_ONLY), unused
