"""Module boundaries of the package.

- The integer-row internals of `poly2` stay inside it: no other module of
  the package imports a `_`-prefixed name, `Rows` or `IntTerms` from `poly2`.
- `poly2` is the one place that eliminates: no other module of the package
  references `resultant_eliminating_y`, so its `UniPoly` stays behind
  `poly2.eliminant` and `poly2.discriminant`.
- `unipoly` reads its integer root walk `_root_slots` alone: every other
  module reads it through `root_slots` or `integer_roots`.
- Outside `unipoly`, nothing isolates or reads a bracket's slot: no other
  module imports or reads `isolate_real_roots` or a `root_slot`, and every
  locus, the level-set eliminants among them, is read by the integer walk.
- Every top-level function or class of the package is reached: another
  top-level statement of a package module or a script under `scripts/`
  uses it, or a latbench span binds it.  An export from
  `latcurve/__init__.py` is not a use.  Code that only tests call lives
  under `tests/`.
- Every method or property of a package class, dunders aside, is read as an
  attribute in `src`, `scripts` or `latbench`, matched by name as above.  A
  member that only tests read lives under `tests/`, on a test-side subclass
  such as `fraction_unipoly.UniPoly` or in a helper.
- `latcurve/__init__.py` exports only the documented API: each name it
  imports is named in README.md, or referenced by a script under
  `scripts/` or by `latbench/run.py`, which read it from `latcurve`.
- Every defaulted parameter of a top-level package function is set by at
  least one call in `src`, `tests`, `scripts` or `latbench`: a setting that
  no caller sets is a constant."""

import ast
import re
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


def resultant_references(source: str) -> list[int]:
    """The first line of each top-level statement of the module source that
    imports, reads or reads as an attribute `resultant_eliminating_y`."""
    return [node.lineno for node in ast.parse(source).body if "resultant_eliminating_y" in _referenced(node)]


def test_only_poly2_eliminates():
    assert resultant_references(
        "from .poly2 import (\n    BiPoly,\n    resultant_eliminating_y,\n)\n"
        "r = poly2.resultant_eliminating_y(p, q)\nf = resultant_eliminating_y\nresultant = 1\n"
        "def g():\n    return resultant_eliminating_y(p, q)"
    ) == [1, 5, 6, 8]
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "poly2" and (lines := resultant_references(path.read_text()))
    }
    assert found == {}


def references(source: str, name: str) -> list[int]:
    """The first line of each top-level statement of the module source that
    imports, reads or reads as an attribute `name`."""
    return [node.lineno for node in ast.parse(source).body if name in _referenced(node)]


def test_only_unipoly_reads_the_root_walk():
    assert references(
        "from .unipoly import (\n    _root_slots,\n    root_slots,\n)\nslots = unipoly._root_slots(p, 0, 1)\n"
        "walk = root_slots\ndef f():\n    return _root_slots(p, None, None)",
        "_root_slots",
    ) == [1, 5, 7]
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "unipoly" and (lines := references(path.read_text(), "_root_slots"))
    }
    assert found == {}


def test_nothing_isolates_outside_unipoly():
    assert references(
        "from .unipoly import root_slot\nslot = root_slot\ndef f():\n    return root_slot(r)\n"
        "class C:\n    g = unipoly.root_slot",
        "root_slot",
    ) == [1, 2, 3, 5]
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "unipoly"
        for name in ("isolate_real_roots", "root_slot")
        if (lines := references(path.read_text(), name))
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


def unreached_definitions(sources: dict[str, str], spanned: set[str], scripts: list[str]) -> list[str]:
    """`module.name` of each top-level function or class in `sources` (module
    name -> source) that no top-level statement but its own definition
    references, that no source in `scripts` references, and that no name in
    `spanned` names.  `__init__` is skipped, so an export is no reference."""
    bodies = {
        module: [(node, _referenced(node)) for node in ast.parse(text).body]
        for module, text in sources.items()
        if module != "__init__"
    }
    uses = Counter(name for body in bodies.values() for _, names in body for name in names)
    uses.update(name for text in scripts for name in _referenced(ast.parse(text)))
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
        "__init__": "from .a import exported, scripted",
        "a": "def exported(): pass\ndef scripted(): pass\ndef own(): pass\ndef dead(): return dead()\n"
        "class Used: pass\nX = own",
        "b": "from . import a\ndef spanned(): pass\ndef attr(): return a.Used\ndef orphan(): attr()",
    }
    scripts = ["from latcurve import scripted\nscripted()"]
    assert unreached_definitions(sources, {"spanned"}, scripts) == ["a.exported", "a.dead", "b.orphan"]


def script_sources() -> list[str]:
    return [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]


def test_every_package_definition_is_reached():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreached_definitions(sources, latbench_layer_names(), script_sources()) == []


def unread_methods(package: dict[str, str], readers: list[str]) -> list[str]:
    """`module.Class.name` of each method or property, dunders aside, of a
    top-level class in `package` (module name -> source) whose name no
    source in `readers` reads as an attribute."""
    read = {sub.attr for text in readers for sub in ast.walk(ast.parse(text)) if isinstance(sub, ast.Attribute)}
    return [
        f"{module}.{node.name}.{item.name}"
        for module, text in package.items()
        for node in ast.parse(text).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in read
    ]


def test_unread_methods_reads_attributes_only():
    package = {
        "a": "class P:\n    def used(self): pass\n    @property\n    def prop(self): return self._helper()\n"
        "    def _helper(self): pass\n    def __add__(self, o): pass\n    def dead(self): pass",
        "b": "class Q:\n    def named(self): pass\ndef f(p):\n    return p.prop\nnamed = 1",
    }
    readers = list(package.values()) + ["p.used()"]
    assert unread_methods(package, readers) == ["a.P.dead", "b.Q.named"]


def test_every_package_method_is_read():
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    tops = ("src", "scripts", "latbench")
    readers = [path.read_text() for top in tops for path in sorted((ROOT / top).rglob("*.py"))]
    assert unread_methods(package, readers) == []


def undocumented_exports(init: str, readme: str, readers: list[str]) -> list[str]:
    """Each name the `__init__` source imports that `readme` does not name as
    a word and no source in `readers` references."""
    read = {name for text in readers for name in _referenced(ast.parse(text))}
    exported = [a.name for node in ast.parse(init).body if isinstance(node, ast.ImportFrom) for a in node.names]
    return [name for name in exported if name not in read and not re.search(rf"\b{name}\b", readme)]


def test_undocumented_exports_reads_readme_and_readers():
    init = "from .a import named, read, hidden\nfrom .b import attr\nX = 1"
    readme = "`named(...)` counts; `hidden_helper` is a longer word"
    readers = ["from latcurve import read", "lib.attr()"]
    assert undocumented_exports(init, readme, readers) == ["hidden"]


def test_package_exports_only_the_documented_api():
    init = (PACKAGE / "__init__.py").read_text()
    readers = script_sources() + [(ROOT / "latbench" / "run.py").read_text()]
    assert undocumented_exports(init, (ROOT / "README.md").read_text(), readers) == []


def defaulted_parameters(source: str) -> dict[str, list[tuple[int | None, str]]]:
    """Function name -> (position, or None when keyword-only, name) of each
    defaulted parameter of the source's top-level functions."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            found += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if found:
                out[node.name] = found
    return out


def unset_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """`module.function(parameter)` of each defaulted parameter in `package`
    (module name -> source) that no call in `callers` (sources) sets by
    keyword or by position.  A call is matched by the name it calls, bare or
    as an attribute; a `*` or `**` argument sets no parameter, so an
    override must be spelled out."""
    params = {
        (module, name): found for module, text in package.items() for name, found in defaulted_parameters(text).items()
    }
    by_name = {name for _, name in params}
    set_by_call = set()
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in by_name:
                positions = sum(not isinstance(a, ast.Starred) for a in node.args)
                set_by_call.update((name, i) for i in range(positions))
                set_by_call.update((name, k.arg) for k in node.keywords if k.arg is not None)
    return [
        f"{module}.{name}({arg})"
        for (module, name), found in params.items()
        for i, arg in found
        if (name, i) not in set_by_call and (name, arg) not in set_by_call
    ]


def test_unset_defaults_reads_every_kind_of_call():
    package = {
        "a": "def f(x, y=1, *, z=2): pass\ndef g(x, w=0): pass\ndef h(v=0, /, u=1): pass",
        "b": "def k(t=0): pass\nclass C:\n    def m(self, s=0): pass",
    }
    callers = [
        "f(0, 1)\na.g(0, w=3)\nh(*args)\nh(**kwargs)",
        "from a import f\ndef wrap():\n    return [k(t=1) for _ in range(2)]",
    ]
    assert unset_defaults(package, callers) == ["a.f(z)", "a.h(v)", "a.h(u)"]
    assert unset_defaults(package, callers + ["h(0, u=1)"]) == ["a.f(z)"]


def test_every_default_is_set_by_some_call():
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    tops = ("src", "tests", "scripts", "latbench")
    callers = [path.read_text() for top in tops for path in sorted((ROOT / top).rglob("*.py"))]
    assert unset_defaults(package, callers) == []
