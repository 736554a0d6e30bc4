"""scripts/coverage.py on one cheap case: the statements it lists as never run."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("srcid_coverage_script",
                                                  ROOT / "scripts" / "coverage.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coverage_lists_the_statements_one_case_never_runs(capsys):
    coverage = _load()
    before = sys.gettrace()
    code = coverage.main(["--field", "exact", "--points", "1", "--case", "rational_ik"])
    out = capsys.readouterr().out
    assert code == 0
    assert sys.gettrace() is before
    modules = re.findall(r"^src/srcid/(\w+)\.py: (\d+) of (\d+) function-body", out, re.M)
    assert {name for name, _, _ in modules} >= {"linalg", "sources", "detreps", "wallcross"}
    counts = {name: (int(missed), int(total)) for name, missed, total in modules}
    # rational_ik never reaches wallcross, and reaches most of the rest
    assert counts["wallcross"][0] == counts["wallcross"][1] > 0
    assert 0 < counts["linalg"][0] < counts["linalg"][1]
    listed = out.splitlines()
    assert any("geometric_sides: n, m = len(u), len(v)" in line for line in listed)
    assert any("det_complex: a = [list(r) for r in rows]" in line for line in listed)
    # izergin_korepin_core's determinant is exact: Bareiss ran, LU did not
    assert not any("det_exact:" in line and "// prev" in line for line in listed)
    assert out.rstrip().splitlines()[-1].startswith("total: ")


def test_coverage_rejects_a_selection_of_nothing(capsys):
    coverage = _load()
    assert coverage.main(["--field", "exact", "--case", "elliptic_*"]) == 2
    assert coverage.main(["--field", "exact", "--points", "0", "--case", "rational_ik"]) == 2
    assert "no case matches" in capsys.readouterr().err
