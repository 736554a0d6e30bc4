"""Count the code lines of srcid, module by module.

    python3 scripts/code_lines.py [PATH ...]

A code line is a source line that carries a token other than a comment,
a line break or indentation, and that is not part of a docstring (a
string literal standing first in the body of a module, class or
function).  The tokens come from ``tokenize``, the docstrings from
``ast``; a multi-line token counts every line it spans.  With no PATH the
script counts each ``*.py`` file of ``src/srcid`` (run it from anywhere;
the paths are found from the script's own location).  It prints one line
per file, ``<count>  <path>``, then ``total: <count>``.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srcid"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="Python files to count (default: every module of src/srcid)")
    args = parser.parse_args(argv)
    paths = args.paths or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        shown = path.resolve().relative_to(ROOT) if path.resolve().is_relative_to(ROOT) else path
        print(f"{count:6d}  {shown}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
