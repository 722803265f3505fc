"""True division is confined to a few named functions.

Coefficients are Python ints wherever the mathematics allows it, and
int / int silently gives a float, which then compares equal to the exact
answer (2.0 == 2) and slips past every cross-check.  So `/` may appear only
in the functions below, whose operands are Rat.
"""

import ast
from pathlib import Path

import tautmat

RAT_DIVISION_SITES = {
    "engine._graded_sum_callable",
    "engine.debug_contributions",
    "poly.interpolate_univariate",
}


def division_sites(source, module):
    """Qualified names of the functions holding a `/` or `/=` in source."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.add(".".join((module,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_division_sites_detects_a_stray_division():
    src = "class C:\n    def f(self, a):\n        a /= 2\n        return a\ndef g(a):\n    return a // 2\n"
    assert division_sites(src, "m") == {"m.C.f"}


def test_true_division_only_at_rat_sites():
    found = set()
    for path in sorted(Path(tautmat.__file__).parent.glob("*.py")):
        found |= division_sites(path.read_text(), path.stem)
    assert found <= RAT_DIVISION_SITES, f"true division outside the Rat sites: {found - RAT_DIVISION_SITES}"
