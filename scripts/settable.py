"""List the independently settable values of srcid, module by module.

    python3 scripts/settable.py [PATH ...]

Three kinds of value are listed, each found with ``ast``:

* ``param``: a parameter that has a default, of any function or method
  (nested ones included), shown as ``<qualname>(<name>=)``;
* ``field``: a field of a ``@dataclass`` class that ``__init__`` takes,
  shown as ``<class>.<name>``.  A ``ClassVar`` annotation and a field whose
  ``field(...)`` call passes ``init=False`` are not settable and are left
  out;
* ``flag``: an option string (one starting with ``-``) passed first to an
  ``add_argument`` call, shown as ``<parser> <flag>``.  The parser is the
  command named by the ``add_parser`` call its variable was assigned
  from, or the variable's own name.

With no PATH the script reads each ``*.py`` file of ``src/srcid`` (run it
from anywhere; the paths are found from the script's own location).  For
each file it prints ``<count>  <path>``, then one indented line per value,
``<kind>  <name>``; the last line is ``total: <count>``.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srcid"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _settable_field(stmt) -> str | None:
    """The name of the dataclass field ``stmt`` declares, None if it declares none."""
    if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
        return None
    if "ClassVar" in ast.unparse(stmt.annotation):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    ):
        return None
    return stmt.target.id


def _defaulted(args: ast.arguments) -> list:
    positional = [*args.posonlyargs, *args.args]
    named = positional[len(positional) - len(args.defaults):]
    named += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return [arg.arg for arg in named]


def settable(source: str) -> list:
    """(kind, name) of each settable value of one module's ``source``."""
    found = []
    parsers = {}  # variable -> command name of the add_parser call it holds

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join((*scope, child.name))
                found.extend(("param", f"{qualname}({name}=)") for name in _defaulted(child.args))
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    for stmt in child.body:
                        name = _settable_field(stmt)
                        if name is not None:
                            found.append(("field", ".".join((*scope, child.name, name))))
                visit(child, (*scope, child.name))
                continue
            if (isinstance(child, ast.Assign) and isinstance(child.value, ast.Call)
                    and isinstance(child.value.func, ast.Attribute)
                    and child.value.func.attr == "add_parser" and child.value.args
                    and isinstance(child.value.args[0], ast.Constant)):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        parsers[target.id] = child.value.args[0].value
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "add_argument" and child.args
                    and isinstance(child.args[0], ast.Constant)
                    and str(child.args[0].value).startswith("-")):
                owner = child.func.value
                parser = owner.id if isinstance(owner, ast.Name) else ast.unparse(owner)
                found.append(("flag", f"{parsers.get(parser, parser)} {child.args[0].value}"))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="Python files to read (default: every module of src/srcid)")
    args = parser.parse_args(argv)
    paths = args.paths or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        values = settable(path.read_text())
        total += len(values)
        shown = path.resolve().relative_to(ROOT) if path.resolve().is_relative_to(ROOT) else path
        print(f"{len(values):6d}  {shown}")
        for kind, name in values:
            print(f"        {kind:5s}  {name}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
