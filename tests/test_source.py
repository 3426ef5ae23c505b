"""Guards over the package source itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "clusterknit"


def _module_aliases(tree) -> dict:
    """Local name -> sibling module, from ``from . import other [as name]``."""
    return {
        alias.asname or alias.name: alias.name
        for sub in ast.walk(tree)
        if isinstance(sub, ast.ImportFrom) and sub.level == 1 and not sub.module
        for alias in sub.names
    }


def _mentions(node, module: str, aliases: dict) -> tuple[Counter, Counter]:
    """What a subtree of ``module`` names, counted two ways.

    ``bare`` counts every identifier: variables, attributes and imports.
    ``qualified`` counts (defining module, name) pairs where the defining
    module is known: ``other.name`` (through the module's ``aliases``),
    ``from .other import name``, and a bare ``name`` inside ``module``
    itself."""
    bare, qualified = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            bare[sub.id] += 1
            qualified[module, sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            bare[sub.attr] += 1
            if isinstance(sub.value, ast.Name) and sub.value.id in aliases:
                qualified[aliases[sub.value.id], sub.attr] += 1
        elif isinstance(sub, ast.alias):
            bare[sub.name.rsplit(".", 1)[-1]] += 1
        if isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
            for alias in sub.names:
                qualified[sub.module, alias.name] += 1
    return bare, qualified


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree, wanted):
    """(node, is a method) for the module-level functions and classes and
    the methods of those classes whose names ``wanted`` accepts."""
    nodes = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    for node in nodes:
        if wanted(node.name):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and wanted(method.name):
                    yield method, True


def _unused(trees: dict, wanted=_is_public) -> list:
    bare, qualified = Counter(), Counter()
    aliases = {module: _module_aliases(tree) for module, tree in trees.items()}
    for module, tree in trees.items():
        b, q = _mentions(tree, module, aliases[module])
        bare += b
        qualified += q
    unused = []
    for module, tree in trees.items():
        for node, is_method in _definitions(tree, wanted):
            own_bare, own_qualified = _mentions(node, module, aliases[module])
            if is_method:
                uses = bare[node.name] - own_bare[node.name]
            else:
                key = (module, node.name)
                uses = qualified[key] - own_qualified[key]
            if uses <= 0:
                unused.append(f"{module}:{node.lineno} {node.name}")
    return unused


def test_every_public_definition_is_named_in_src():
    """A public function, class or method that nothing in ``src/`` names
    outside its own body is reachable only from the tests: it belongs in
    ``tests/oracles.py`` or nowhere.  A module-level definition counts as
    named only through its own module (``module.name``, ``from .module
    import name``, or a bare name inside the module), so a dead
    ``quiver.to_json`` is not hidden by the ``to_json`` of other modules;
    a method is matched by its bare name."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = _unused(trees)
    assert len(trees) > 10 and not unused, unused


def test_every_private_definition_is_named_in_src():
    """The same guard over private definitions: a ``_`` function, class or
    non-dunder method that nothing in ``src/`` names outside its own body
    is dead, or kept only for the tests (an oracle belongs in
    ``tests/oracles.py``)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = _unused(trees, _is_private)
    assert len(trees) > 10 and not unused, unused


def _asserts(trees: dict) -> list:
    return [
        f"{module}:{node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


def test_no_assert_in_src():
    """Invariants raise a typed error: ``python -O`` strips ``assert``
    statements, so an invariant written as one would go unchecked there."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = _asserts(trees)
    assert len(trees) > 10 and not found, found
    assert _asserts({"a": ast.parse("def f(x):\n    if x:\n        assert x > 1\n")}) == ["a:3"]


def _imports(trees: dict, name: str) -> list:
    return [
        f"{module}:{node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == name for a in node.names)
        or isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == name
    ]


def test_no_dataclasses_in_src():
    """Records are ``NamedTuple``s or ``__slots__`` classes: importing
    ``dataclasses`` (and the ``inspect`` it loads) and building each class
    by ``exec`` is a cost every process would pay before it computes."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = _imports(trees, "dataclasses")
    assert len(trees) > 10 and not found, found
    sample = ast.parse("import dataclasses\nif 1:\n    from dataclasses import field\nfrom . import x\n")
    assert _imports({"a": sample}, "dataclasses") == ["a:1", "a:3"]


def test_only_packing_packs_slots():
    """One slot layout serves every packed vector: only ``packing``
    imports ``struct``."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [site.split(":")[0] for site in _imports(trees, "struct")] == ["packing"]


def test_the_guard_resolves_module_names():
    """A definition named only through another module's namesake is
    reported; one named through its own module is not.  Private
    definitions resolve the same way."""
    trees = {
        "a": ast.parse("def to_json(x):\n    return _knit(x)\n"),
        "b": ast.parse(
            "def to_json(x):\n    return x\n\n\ndef main():\n    return to_json(1)\n"
            "\n\ndef _knit(x):\n    return x\n"
        ),
        "c": ast.parse("from . import b as bee\nfrom .b import main\n\n\ndef run():\n    return bee.to_json(main())\n"),
    }
    assert _unused(trees) == ["a:1 to_json", "c:5 run"]
    assert _unused(trees, _is_private) == ["b:9 _knit"]
