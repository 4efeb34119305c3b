"""Guards on the library's public surface, read from the source with ast.

A public function that nothing in the package or the demos calls is code
only the tests reach; it belongs in ``tests/`` as a reference.  The
special-number families keep one route each, so ``finsum.special`` takes a
``method`` argument only where the library itself runs two routes.  The
Volkenborn Riemann sums have one summation order and the negative-argument
eta values one route, Abel summation, so no ``finsum.volkenborn`` or
``finsum.zetavals`` function takes one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "finsum"
GUARDED = ("exact", "special", "genfun", "zetavals", "volkenborn", "logsum")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_functions(tree):
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _referenced_names(nodes):
    """Names loaded in the given nodes, as bare names or as attributes."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _outside_references():
    """Names used by every src/finsum module except the package's
    re-exports in __init__.py, and by the demos, keyed by the source path
    that uses them."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    return {path: _referenced_names([_tree(path)]) for path in sources}


@pytest.mark.parametrize("module", GUARDED)
def test_every_public_function_has_a_caller(module):
    path = PACKAGE / f"{module}.py"
    tree = _tree(path)
    elsewhere = set()
    for other, names in _outside_references().items():
        if other != path:
            elsewhere |= names
    uncalled = []
    for func in _public_functions(tree):
        # uses in its own module count, except recursion inside its own body
        rest = [node for node in tree.body if node is not func]
        if func.name not in elsewhere and func.name not in _referenced_names(rest):
            uncalled.append(func.name)
    assert uncalled == [], f"finsum.{module}: public functions only tests call: {uncalled}"


def _taking_a_method(module):
    """Public functions of finsum.<module> with a ``method`` parameter."""
    return [func.name for func in _public_functions(_tree(PACKAGE / f"{module}.py"))
            if any(arg.arg == "method" for arg in func.args.args + func.args.kwonlyargs)]


def test_only_daehee_takes_a_method_in_special():
    assert _taking_a_method("special") == ["daehee"]


def test_no_volkenborn_function_takes_a_method():
    # one summation order per Riemann sum; the second lives in the tests
    assert _taking_a_method("volkenborn") == []


def test_no_zetavals_function_takes_a_method():
    # eta_neg Abel-sums; the Euler-polynomial value is special.euler_polynomial
    assert _taking_a_method("zetavals") == []
