"""Module boundaries of the package.

- The integer-row internals of `poly2` stay inside it: no other module of
  the package imports a `_`-prefixed name, `Rows` or `IntTerms` from `poly2`.
- Every top-level function or class of the package is reached by package
  code: its own module or another one uses it, `latcurve/__init__.py`
  exports it, or a latbench span binds it.  Code that only tests call lives
  under `tests/`."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latcurve"
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


def _referenced(node: ast.AST) -> set[str]:
    """Every name the node reads, imports or reads as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def unreached_definitions(sources: dict[str, str], spanned: set[str]) -> list[str]:
    """`module.name` of each top-level function or class in `sources` (module
    name -> source) that no top-level statement but its own definition
    references and no name in `spanned` names.  `__init__` counts as a
    module, so an export is a reference."""
    bodies = {module: [(node, _referenced(node)) for node in ast.parse(text).body] for module, text in sources.items()}
    uses = Counter(name for body in bodies.values() for _, names in body for name in names)
    return [
        f"{module}.{node.name}"
        for module, body in bodies.items()
        for node, names in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in spanned
        and uses[node.name] <= (node.name in names)
    ]


def latbench_layer_names() -> set[str]:
    """The function names `LAYERS` in latbench/spans.py binds, read from its
    source without importing it."""
    for node in ast.parse((ROOT / "latbench" / "spans.py").read_text()).body:
        targets = [node.target] if isinstance(node, ast.AnnAssign) else getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in targets):
            return {fn for table in ast.literal_eval(node.value).values() for fn in table.values()}
    raise AssertionError("latbench/spans.py defines no LAYERS")


def test_unreached_definitions_reads_every_kind_of_use():
    sources = {
        "__init__": "from .a import exported",
        "a": "def exported(): pass\ndef own(): pass\ndef dead(): return dead()\nclass Used: pass\nX = own",
        "b": "from . import a\ndef spanned(): pass\ndef attr(): return a.Used\ndef orphan(): attr()",
    }
    assert unreached_definitions(sources, {"spanned"}) == ["a.dead", "b.orphan"]


def test_every_package_definition_is_reached():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreached_definitions(sources, latbench_layer_names()) == []
