"""True division and the rational type are confined to a few named functions.

Coefficients are Python ints wherever the mathematics allows it, and
int / int silently gives a float, which then compares equal to the exact
answer (2.0 == 2) and slips past every cross-check.  So `/` may appear only
in the functions in RAT_DIVISION_SITES, whose operands are Rat, and `Rat`
may be named only in the functions in RAT_NAME_SITES, so that the rational
layer cannot quietly spread back into the integer paths.
"""

import ast
from pathlib import Path

import tautmat

RAT_DIVISION_SITES = {
    "poly.interpolate_univariate",
}

RAT_NAME_SITES = {
    "poly.interpolate_univariate",
    "poly.psi_inverse",
    "rat.parse_rat",
}


def _sites(source, module, hit):
    """Qualified names of the scopes holding a node for which hit(node) is true."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if hit(node):
            found.add(".".join((module,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def division_sites(source, module):
    """Qualified names of the functions holding a `/` or `/=` in source."""
    return _sites(
        source,
        module,
        lambda node: isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div),
    )


def rat_name_sites(source, module):
    """Qualified names of the scopes that name `Rat` (bare or as an attribute)."""
    return _sites(
        source,
        module,
        lambda node: (isinstance(node, ast.Name) and node.id == "Rat")
        or (isinstance(node, ast.Attribute) and node.attr == "Rat"),
    )


def _package_sites(finder):
    found = set()
    for path in sorted(Path(tautmat.__file__).parent.glob("*.py")):
        found |= finder(path.read_text(), path.stem)
    return found


def test_division_sites_detects_a_stray_division():
    src = "class C:\n    def f(self, a):\n        a /= 2\n        return a\ndef g(a):\n    return a // 2\n"
    assert division_sites(src, "m") == {"m.C.f"}


def test_rat_name_sites_detects_a_stray_rat():
    src = (
        "from .rat import Rat\n"
        "import tautmat.rat as rat\n"
        "ONE = Rat(1)\n"
        "class C:\n    def f(self):\n        return rat.Rat(2, 3)\n"
        "def g(a):\n    '''Rat in a docstring is not a use'''\n    return a + 1\n"
        "def h(Rational):\n    return isinstance(Rational, Rat)\n"
    )
    assert rat_name_sites(src, "m") == {"m", "m.C.f", "m.h"}


def test_true_division_only_at_rat_sites():
    found = _package_sites(division_sites)
    assert found <= RAT_DIVISION_SITES, f"true division outside the Rat sites: {found - RAT_DIVISION_SITES}"


def test_rat_named_only_at_rat_sites():
    found = _package_sites(rat_name_sites)
    assert found <= RAT_NAME_SITES, f"Rat named outside its sites: {found - RAT_NAME_SITES}"
