"""The private names one srcid module reads from another."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srcid"


def private_imports():
    """{(module, name)}: each ``_``-prefixed name a srcid module imports from
    another srcid module or reads as an attribute of one (``sources._x``)."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        bound.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.add((path.stem, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in bound):
                found.add((path.stem, f"{node.value.id}.{node.attr}"))
    return found


def test_the_private_names_read_across_modules_are_pinned():
    assert private_imports() == set()
