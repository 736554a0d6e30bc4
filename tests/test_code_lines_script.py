"""scripts/code_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 2


def area(r):
    """Function
    docstring.
    """
    text = """a string that is
    not a docstring"""
    return math.pi * r**2, text


async def wait():
    \'\'\'Single-quoted docstring.\'\'\'
    return (1,
            2)
'''


def _load():
    spec = importlib.util.spec_from_file_location("srcid_code_lines_script",
                                                  ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings():
    code_lines = _load().code_lines
    # import, class, size, def area, text (2 lines), return, async def, return (2 lines)
    assert code_lines(SOURCE) == 10
    assert code_lines("") == 0
    assert code_lines('"""only a docstring"""\n# and a comment\n') == 0
    # a string after the first statement is code, not a docstring
    assert code_lines('x = 1\n"""not a docstring"""\n') == 2


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    script = _load()
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(SOURCE)
    second.write_text("y = 2\n\n\n")
    assert script.main([str(first), str(second)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["10", "1"]
    assert lines[-1] == "total: 11"


def test_code_lines_counts_the_package_by_default(capsys):
    assert _load().main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    files = [line.split()[1] for line in lines[:-1]]
    assert "src/srcid/engine.py" in files and "src/srcid/__init__.py" in files
    assert int(lines[-1].removeprefix("total: ")) == sum(int(line.split()[0])
                                                        for line in lines[:-1])
