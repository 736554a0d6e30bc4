"""scripts/report_diff.py: the per-point and per-case lines of ``compare``."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    # report_diff imports bench_compare as a sibling module
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        spec = importlib.util.spec_from_file_location("srcid_report_diff_script",
                                                      ROOT / "scripts" / "report_diff.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return module


def report(cases: dict) -> str:
    """A report text with one entry per case: id -> (tol, [(residual, ok), ...])."""
    return json.dumps({"cases": [
        {"id": case_id, "tol": tol,
         "points": [{"index": i, "residual": residual, "ok": ok}
                    for i, (residual, ok) in enumerate(points)]}
        for case_id, (tol, points) in cases.items()
    ]})


def test_compare_prints_each_moved_case_with_its_margins(capsys):
    compare = _load().compare
    before = report({"moved": (1e-8, [(2e-9, True), (3e-8, False), (1e-12, True)]),
                     "still": (1e-10, [(1e-15, True)])})
    after = report({"moved": (1e-8, [(2e-9, True), (4e-9, True), (5e-12, True)]),
                    "still": (1e-10, [(1e-15, True)])})
    assert compare("complex", before, after) is False
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"complex {side} sha256 {hashlib.sha256(text.encode()).hexdigest()}"
                         for side, text in (("base", before), ("head", after))]
    assert lines[2:] == [
        "  complex moved#1: 3e-08 ok=False -> 4e-09 ok=True",
        "  complex moved#2: 1e-12 ok=True -> 5e-12 ok=True",
        "  complex moved: 2 of 3 points differ, 1 changed pass/fail; tol 1e-08, "
        "base worst 3e-08, 1 failing, head worst 4e-09, 0 failing",
        "complex: 2 of 4 points differ, 1 changed pass/fail",
    ]


def test_compare_of_identical_reports_prints_only_the_counts(capsys):
    compare = _load().compare
    text = report({"one": (0.0, [(0.0, True), (0.0, True)])})
    assert compare("exact", text, text) is True
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == ["exact: 0 of 2 points differ, 0 changed pass/fail"]


def test_compare_counts_a_case_missing_on_one_side(capsys):
    compare = _load().compare
    before = report({"kept": (1e-8, [(1e-9, True)])})
    after = report({"kept": (1e-8, [(1e-9, True)]), "new": (1e-6, [(2e-7, True)])})
    assert compare("complex", before, after) is False
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        "  complex new#0: absent -> 2e-07 ok=True",
        "  complex new: 1 of 1 points differ, 1 changed pass/fail; tol 1e-06, "
        "base absent, head worst 2e-07, 0 failing",
        "complex: 1 of 1 points differ, 1 changed pass/fail",
    ]
