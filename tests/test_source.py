"""Guards over the package source itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "clusterknit"


def _mentions(node) -> Counter:
    """Every identifier a subtree names: variables, attributes and imports."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
    return names


def _public_definitions(tree):
    """Module-level functions and classes, and the methods of those
    classes, whose names do not start with an underscore."""
    nodes = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    for cls in [n for n in nodes if isinstance(n, ast.ClassDef)]:
        nodes += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    return [n for n in nodes if not n.name.startswith("_")]


def test_every_public_definition_is_named_in_src():
    """A public function, class or method that nothing in ``src/`` names
    outside its own body is reachable only from the tests: it belongs in
    ``tests/oracles.py`` or nowhere."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    mentions = sum((_mentions(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in _public_definitions(tree)
        if mentions[node.name] - _mentions(node)[node.name] <= 0
    ]
    assert len(trees) > 10 and not unused, unused
