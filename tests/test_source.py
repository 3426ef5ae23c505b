"""Guards over the package source itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "clusterknit"
BENCH = SRC.parents[1] / "perfbench"


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


def _bench_names() -> set:
    """The module-level names the benchmark in ``perfbench/`` reads as
    ``module.name`` from the modules it imports by ``from clusterknit
    import module``."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "clusterknit"
            for alias in node.names
        }
        names |= {
            f"{modules[node.value.id]} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        }
    return names


def test_every_public_definition_is_named_in_src():
    """A public function, class or method that nothing in ``src/`` names
    outside its own body is reachable only from the tests: it belongs in
    ``tests/oracles.py`` or nowhere.  A module-level definition counts as
    named only through its own module (``module.name``, ``from .module
    import name``, or a bare name inside the module), so a dead
    ``quiver.to_json`` is not hidden by the ``to_json`` of other modules;
    a method is matched by its bare name.  The benchmark is a caller too:
    what ``perfbench/`` names this way counts as named."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bench = _bench_names()
    unused = [u for u in _unused(trees) if u.split(":")[0] + " " + u.split(" ")[1] not in bench]
    assert len(trees) > 10 and not unused, unused
    assert {"cluster to_json", "rigidpath result_to_json", "euler to_json"} <= bench


def test_every_private_definition_is_named_in_src():
    """The same guard over private definitions: a ``_`` function, class or
    non-dunder method that nothing in ``src/`` names outside its own body
    is dead, or kept only for the tests (an oracle belongs in
    ``tests/oracles.py``)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = _unused(trees, _is_private)
    assert len(trees) > 10 and not unused, unused


def test_the_package_lists_every_module():
    """The lazy loader resolves exactly the names in ``__all__``, so it
    lists every module file, and each resolves to its module."""
    import clusterknit

    stems = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert set(clusterknit.__all__) == stems
    for name in ("cli", "reference", "seedtext"):
        assert getattr(clusterknit, name).__name__ == f"clusterknit.{name}"


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


def _raised(trees: dict) -> set:
    """The class names that ``raise`` statements name: ``X``, ``X(...)``,
    ``module.X`` and ``module.X(...)``."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    """Each class in ``errors`` is raised by name somewhere in ``src/``.  A
    class that nothing raises is left behind by deleted code, and a caller
    that catches it waits for an error that never comes."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    classes = {node.name for node in trees["errors"].body if isinstance(node, ast.ClassDef)}
    missing = sorted(classes - _raised(trees))
    assert len(classes) > 10 and not missing, missing
    sample = ast.parse("raise A\nraise b.B('x') from None\ntry:\n    f()\nexcept C:\n    raise\n")
    assert _raised({"a": sample}) == {"A", "B"}


def test_the_cli_only_parses_loads_and_writes():
    """``cli`` defines its loaders, ``emit``, the six commands, the parser,
    ``main`` and its entry point ``run``, and only ``main`` calls ``emit``:
    each report is built in the module that computes its data."""
    tree = ast.parse((SRC / "cli.py").read_text())
    defined = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    commands = {f"cmd_{c}" for c in ("build", "mutate", "path", "euler", "minors", "check")}
    assert set(defined) == {
        "read_json", "load_terminal", "load_ordering", "emit", "build_parser", "main", "run", *commands
    }
    emits = [
        name
        for name, node in defined.items()
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "emit"
    ]
    assert emits == ["main"]


def test_the_installed_script_runs_the_entry_point():
    """The ``clusterknit`` script calls ``cli.run``, as ``python -m
    clusterknit.cli`` does, so both freeze the heap before they exit."""
    text = (SRC.parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts == 'clusterknit = "clusterknit.cli:run"'
    tail = ast.parse((SRC / "cli.py").read_text()).body[-1]
    assert ast.unparse(tail) == "if __name__ == '__main__':\n    run()"


def _private_imports(trees: dict) -> list:
    """Sites where a module names another module's ``_`` definition:
    ``from .other import _name`` or ``other._name``."""
    found = []
    for module, tree in trees.items():
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found += [f"{module}:{node.lineno} {a.name}" for a in node.names if _is_private(a.name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases and _is_private(node.attr):
                    found.append(f"{module}:{node.lineno} {node.attr}")
    return found


def test_no_module_imports_a_private_name():
    """A ``_`` name is its module's own: another module that needs it
    reaches it through a public function."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = _private_imports(trees)
    assert len(trees) > 10 and not found, found
    sample = ast.parse("from . import q\nfrom .q import _a, b\n\n\ndef f():\n    return q._c(q.d, _e)\n")
    assert _private_imports({"a": sample}) == ["a:2 _a", "a:6 _c"]


TUPLE_PROTOCOL = {"__len__", "__getitem__", "__iter__", "__contains__"}


def _tuple_overrides(trees: dict) -> list:
    """The classes that subclass ``tuple`` (directly, as a ``NamedTuple``
    or through such a class defined before them) and define a method of
    the tuple protocol."""
    tuples, found = {"tuple", "NamedTuple"}, []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
            if bases & tuples:
                tuples.add(node.name)
                if any(isinstance(m, ast.FunctionDef) and m.name in TUPLE_PROTOCOL for m in node.body):
                    found.append(f"{module}:{node.lineno} {node.name}")
    return found


def test_no_tuple_record_overrides_the_tuple_protocol():
    """A record that is a tuple stays one: ``len``, indexing, iteration and
    ``in`` mean what they mean for every tuple, so no such class redefines
    them."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = _tuple_overrides(trees)
    assert len(trees) > 10 and not found, found
    sample = ast.parse(
        "class A(typing.NamedTuple):\n    x: int\n\n    def __len__(self):\n        return 1\n\n\n"
        "class B(A):\n    def __iter__(self):\n        return iter(())\n\n\n"
        "class C:\n    def __len__(self):\n        return 0\n"
    )
    assert _tuple_overrides({"a": sample}) == ["a:1 A", "a:8 B"]
