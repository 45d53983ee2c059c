"""The integer-row internals of `poly2` stay inside it: no other module of
the package imports a `_`-prefixed name, `Rows` or `IntTerms` from `poly2`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latcurve"
INTERNAL = {"Rows", "IntTerms"}


def poly2_internal_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every internal name the module source imports from poly2."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "poly2":
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_") or a.name in INTERNAL]
    return found


def test_no_module_imports_poly2_internals():
    assert poly2_internal_imports("from .poly2 import BiPoly, _rows_add\nfrom latcurve.poly2 import Rows") == [
        (1, "_rows_add"),
        (2, "Rows"),
    ]
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "poly2" and (names := poly2_internal_imports(path.read_text()))
    }
    assert found == {}
