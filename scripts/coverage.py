"""List the statements of srcid that a ``srcid verify`` run never executes.

    python3 scripts/coverage.py [--field exact|complex|both] [--points N] [--case GLOB]

Run from the repository root; only the standard library is used.  Under
one ``sys.settrace`` line tracer, the script imports srcid (from ``src/``
unless it is already imported) and runs ``srcid verify`` in-process once
per field (``both``, the default, runs the exact field, then the complex
one), over every case or the cases matching ``--case`` (repeatable).  The
reports themselves are discarded.  Code that runs at import (the case
registry) counts as run only when this script is the first to import
srcid.

The statements are found with ``ast``: every statement inside a function
body, nested blocks included, whose first lines (the header of a block
statement, all lines of a simple one) carry bytecode.  A statement ran when
one of those lines raised a line event.  Module and class bodies run at
import and are left out.  For each module of ``src/srcid`` the script
prints how many function-body statements never ran, then one line per such
statement: its line, its function and its first line of source.

Exit status: 0 when every run finished (whatever its cases' verdicts), 2
when the arguments select nothing or ``srcid verify`` rejects them.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import os
import pkgutil
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("exact", "complex")


def _code_lines(code: types.CodeType) -> set:
    """Lines that carry bytecode in ``code`` and the code objects inside it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def function_statements(path: str) -> list:
    """(lines, qualname, first source line) of each function-body statement of
    ``path`` that carries bytecode; ``lines`` are its lines that do."""
    source = Path(path).read_text()
    text = source.splitlines()
    executable = _code_lines(compile(source, path, "exec"))
    found = []

    def visit(node, qualname, in_function):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                continue
            if in_function:
                body = getattr(child, "body", None)
                end = body[0].lineno if body and body[0].lineno > child.lineno else None
                header = range(child.lineno, end or child.end_lineno + 1)
                lines = executable.intersection(header)
                if lines:
                    found.append((lines, qualname, text[child.lineno - 1].strip()))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{qualname}.{child.name}" if qualname else child.name, True)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{qualname}.{child.name}" if qualname else child.name, False)
            else:
                visit(child, qualname, in_function)

    visit(ast.parse(source), "", False)
    return found


def package_files() -> list:
    """The source file of every srcid module, as its code objects name it."""
    import srcid

    names = sorted(info.name for info in pkgutil.iter_modules(srcid.__path__))
    return [srcid.__file__] + [importlib.import_module(f"srcid.{name}").__file__
                               for name in names]


def run(args) -> tuple:
    """(exit code, srcid files, {(file, line)} run) of importing srcid and
    running ``srcid verify`` per field, all under one line tracer."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    folder = os.path.join(importlib.util.find_spec("srcid").submodule_search_locations[0], "")
    ran = set()
    record = ran.add

    def local(frame, event, arg):
        if event == "line":
            record((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(folder) else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        modules = package_files()
        from srcid.cli import main as srcid_main
        from srcid.engine import UnknownCaseError, match_cases

        fields = FIELDS if args.field == "both" else (args.field,)
        try:
            fields = [f for f in fields if match_cases(args.case, field_name=f)]
        except UnknownCaseError as exc:
            print(f"error: no case matches {exc.args[0]!r}", file=sys.stderr)
            return 2, modules, ran
        if not fields:
            print("error: no case matches the selection", file=sys.stderr)
            return 2, modules, ran
        for field in fields:
            argv = ["verify", "--field", field, "--points", str(args.points), "--out", os.devnull]
            for pattern in args.case or ():
                argv += ["--case", pattern]
            if srcid_main(argv) == 2:
                return 2, modules, ran
    finally:
        sys.settrace(previous)
    return 0, modules, ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="list the function-body statements of srcid that srcid verify never runs")
    parser.add_argument("--field", default="both", choices=[*FIELDS, "both"])
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--case", action="append", default=None,
                        help="case id glob (repeatable); default: all cases")
    args = parser.parse_args(argv)
    code, modules, ran = run(args)
    if code:
        return code

    total = missed_total = 0
    for path in modules:
        statements = function_statements(path)
        missed = [(min(lines), qualname, text) for lines, qualname, text in statements
                  if not any((path, line) in ran for line in lines)]
        total += len(statements)
        missed_total += len(missed)
        print(f"{os.path.relpath(path, ROOT)}: {len(missed)} of {len(statements)} "
              f"function-body statements never ran")
        for line, qualname, text in missed:
            print(f"  {line:5d}  {qualname}: {text}")
    print(f"total: {missed_total} of {total} function-body statements never ran "
          f"(field {args.field}, {args.points} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
