"""scripts/settable.py: what counts as a settable value."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''import argparse
from dataclasses import dataclass, field
from typing import ClassVar


@dataclass(frozen=True)
class Config:
    size: int
    scale: float = 1.0
    limit: ClassVar[int] = 3
    memo: dict = field(default_factory=dict, init=False)
    plain = 4


class Plain:
    width: int = 2

    def grow(self, by=1, *, twice=False, label):
        def inner(x=0):
            return x
        return inner


def build(argv=None):
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    run = sub.add_parser("run")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("target")
    parser.add_argument("--verbose", action="store_true")
    return parser
'''


def _load():
    spec = importlib.util.spec_from_file_location("srcid_settable_script",
                                                  ROOT / "scripts" / "settable.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_settable_lists_defaults_fields_and_flags():
    assert _load().settable(SOURCE) == [
        ("field", "Config.size"),
        ("field", "Config.scale"),
        ("param", "Plain.grow(by=)"),
        ("param", "Plain.grow(twice=)"),
        ("param", "Plain.grow.inner(x=)"),
        ("param", "build(argv=)"),
        ("flag", "run --seed"),
        ("flag", "parser --verbose"),
    ]
    assert _load().settable("def f(a, b):\n    return a\n") == []


def test_settable_prints_each_file_and_the_total(tmp_path, capsys):
    script = _load()
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(SOURCE)
    second.write_text("def g(x=1):\n    return x\n")
    assert script.main([str(first), str(second)]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [line.split() for line in lines if not line.startswith("        ")]
    assert [count for count, *_ in counts[:2]] == ["8", "1"]
    assert lines[-2].split() == ["param", "g(x=)"]
    assert lines[-1] == "total: 9"


def test_settable_reads_the_package_by_default(capsys):
    assert _load().main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    files = [line.split() for line in lines[:-1] if not line.startswith("        ")]
    assert ["src/srcid/cli.py"] in [path for _, *path in files]
    assert "        flag   verify --seed" in lines
    assert int(lines[-1].removeprefix("total: ")) == sum(int(count) for count, _ in files)
