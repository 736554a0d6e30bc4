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


FIELD_NAMES = {"EXACT", "COMPLEX"}


def _names_a_field(node) -> bool:
    """``node`` is EXACT or COMPLEX, bare or as ``fields.X``, or their string."""
    if isinstance(node, ast.Name):
        return node.id in FIELD_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in FIELD_NAMES
    return isinstance(node, ast.Constant) and node.value in ("exact", "complex")


def field_branches():
    """{module.function}: each top-level srcid function or method that reads
    an ``.exact`` attribute or compares a value with a field's name.  The
    field objects of ``fields`` answer every other exact-or-complex choice."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defs = [(node.name, node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for name, func in defs:
            for node in ast.walk(func):
                if ((isinstance(node, ast.Attribute) and node.attr == "exact")
                        or (isinstance(node, ast.Compare)
                            and any(map(_names_a_field, [node.left, *node.comparators])))):
                    found.add(f"{path.stem}.{name}")
    return found


def test_the_functions_that_branch_on_the_field_are_pinned():
    # no function branches on the field: a new exact-or-complex choice
    # belongs in a field object of ``fields``, as a hook
    assert field_branches() == set()


ELIMINATIONS = {"det_exact", "det_complex"}


def elimination_names():
    """{(module, name)}: each reference to ``det_exact`` or ``det_complex``
    outside ``linalg`` (a name, an attribute or an import), the re-exports of
    ``__init__`` apart."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                if path.stem != "__init__":
                    found.update((path.stem, alias.name) for alias in node.names
                                 if alias.name in ELIMINATIONS)
            elif isinstance(node, ast.Name) and node.id in ELIMINATIONS:
                found.add((path.stem, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in ELIMINATIONS:
                found.add((path.stem, node.attr))
    return found


def test_only_linalg_names_an_elimination():
    # linalg.det is the one choice between Bareiss and the LU: every other
    # module takes a determinant through it
    assert elimination_names() == set()


FAMILY_NAMES = {"mpt", "scalar_product", "dwbc", "bs", "bs_limit", "ik"}


def _holds_a_family(node) -> bool:
    """``node`` is a family's name, or a tuple, list or set literal holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_holds_a_family, node.elts))
    return isinstance(node, ast.Constant) and node.value in FAMILY_NAMES


def family_branches():
    """{module.function}: each top-level srcid function or method that
    compares a value with a determinant family's name or subtracts a set
    holding one.  ``detreps.FAMILIES`` and ``detreps.AUX_DRAWS`` answer
    which families a regime has and which draw auxiliary values."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defs = [(node.name, node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for name, func in defs:
            for node in ast.walk(func):
                if ((isinstance(node, ast.Compare)
                        and any(map(_holds_a_family, [node.left, *node.comparators])))
                        or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                            and any(map(_holds_a_family, [node.left, node.right])))):
                    found.add(f"{path.stem}.{name}")
    return found


def test_no_function_outside_detreps_branches_on_a_family():
    # the families of a regime are the keys of detreps.FAMILIES and the
    # families that draw aux values the keys of detreps.AUX_DRAWS; dwbc's
    # matrix builder, public on its own, checks the table for itself
    assert family_branches() == {"detreps.build_dwbc_matrix"}
