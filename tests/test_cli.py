"""Command-line interface: subcommands, exit codes, report formats."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from srcid import cli, detreps, engine
from srcid.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_prints_registry(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 68
    assert any("rational_source_identity" in l for l in lines)
    # every line carries the case anchor description
    assert all("(" in l and ")" in l for l in lines)


def test_list_regime_filter(capsys):
    code, out, _ = run_cli(capsys, "list", "--regime", "elliptic")
    assert code == 0
    assert "rational_source_identity" not in out
    assert "elliptic_source_identity" in out


def test_exact_report_at_the_default_seed_is_pinned(capsys):
    # The report bytes, pinned across commits: every exact draw and value of
    # 3 points per case.  The exact field holds no float, so the bytes do not
    # depend on the platform's libm.  A change that moves an exact draw or
    # value on purpose (new point records, redrawn degenerate points) re-pins
    # this sha256 and records the old one, the new one and why in CHANGES.md.
    code, out, _ = run_cli(capsys, "verify", "--field", "exact", "--points", "3",
                           "--format", "json", "--no-timings")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "44f8ba0b857ac662256010eb7a914666316715412c864849092de804509795e8")


def test_exact_symmetrization_report_at_200_points_is_pinned(capsys):
    # the three lascoux cases at 200 points reach n = 6, which the 3-point
    # pin above does not: every drawn point and every exact side value
    code, out, _ = run_cli(capsys, "verify", "--field", "exact", "--points", "200",
                           "--case", "*symmetri*", "--format", "json", "--no-timings")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "aeceafabd58797c320b79cd1d866245a250902fe6d75e2210b303d2f2248cf03")


@pytest.mark.parametrize("seed, digest", [
    ("1", "2b2e11ca8a6369e77fd659f6b0e1296e36a8d4e57d7ff71b6052722f8f59f5fd"),
    ("3", "98ec20ed5f005073cb00aca020290659e7b07cf0857fcd8d4e25308f05cd4d78"),
], ids=["seed-1", "seed-3"])
def test_exact_trig_bs_reports_through_a_degenerate_delta_are_pinned(capsys, seed, digest):
    # an aux draw of trig_bs_F point 158 at seed 1 (q = 5) and one of
    # trig_bs_G point 195 at seed 3 (q = 3) has delta = q, a degenerate
    # deformed basis: the aux sampler rejects it and draws again
    code, out, _ = run_cli(capsys, "verify", "--field", "exact", "--seed", seed, "--points",
                           "200", "--case", "trig_bs_[FG]", "--format", "json", "--no-timings")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_success_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--regime",
        "rational",
        "--field",
        "exact",
        "--seed",
        "42",
        "--points",
        "3",
    )
    assert code == 0
    assert "cases passed" in out
    assert "FAIL" not in out


def test_verify_unknown_case_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--case", "no_such_case")
    assert code == 2
    assert "no case matches" in err


def test_verify_names_the_first_unmatched_pattern_after_one_registry_scan(capsys, monkeypatch):
    scans = []
    list_cases = engine.list_cases
    monkeypatch.setattr(engine, "list_cases", lambda: scans.append(1) or list_cases())
    code, _, err = run_cli(capsys, "verify", "--case", "rational_ik", "--case", "no_such_*",
                           "--case", "other_missing")
    assert code == 2
    assert "no case matches 'no_such_*'" in err and "other_missing" not in err
    assert len(scans) == 1
    # the selection keeps the registry order, whatever the pattern order
    selected = engine.match_cases(["trig_mpt_?", "rational_*"], field_name="exact")
    assert [c.case_id for c in selected] == sorted(c.case_id for c in selected)
    assert {c.regime for c in selected} == {"rational", "trig"}


def test_verify_bad_flag_exit_two(capsys):
    code, _, _ = run_cli(capsys, "verify", "--field", "imaginary")
    assert code == 2


def test_verify_json_reports_are_byte_identical(capsys):
    args = (
        "verify",
        "--case",
        "q_*",
        "--seed",
        "7",
        "--points",
        "2",
        "--format",
        "json",
        "--no-timings",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["run"]["seed"] == 7
    assert all("millis" not in case for case in doc["cases"])
    assert all(case["pass"] for case in doc["cases"])


def test_verify_json_includes_timings_by_default(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--case", "binomial_subset_identity", "--points", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert all("millis" in case for case in doc["cases"])


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--case", "rational_ik", "--points", "3", "--format", "csv",
        "--no-timings",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("case_id,field,point,seed,residual")
    assert len(lines) == 4  # header + one row per point


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--case", "rational_ik", "--points", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["cases"][0]["id"] == "rational_ik"


@pytest.mark.parametrize("argv", [
    ("verify", "--case", "rational_ik", "--points", "1"),
    ("sample", "--points", "1"),
    ("bench", "--sizes", "2", "--reps", "1"),
])
def test_an_unwritable_out_path_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # verify and bench open the path before any work: no case runs, no bench
    # point is drawn; sample draws its rows first and fails on the open after
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before --out was opened")

    monkeypatch.setattr(engine, "run_case", no_work)
    monkeypatch.setattr(cli, "_bench_point", no_work)
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ("--regime", "elliptic", "--field", "exact"),
    ("--regime", "elliptic", "--nmax", "0"),
], ids=["exact-elliptic", "nmax-0"])
def test_a_refused_sample_leaves_the_out_file_as_it_was(tmp_path, capsys, argv):
    # every row is drawn before --out is opened
    target = tmp_path / "sample.json"
    target.write_text("old\n")
    code, out, err = run_cli(capsys, "sample", *argv, "--out", str(target))
    assert code == 2
    assert out == "" and err.startswith("error: ")
    assert target.read_bytes() == b"old\n"


def test_sample_out_file(tmp_path, capsys):
    target = tmp_path / "sample.json"
    target.write_text("old\n")
    code, out, _ = run_cli(capsys, "sample", "--regime", "trig", "--points", "2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert [row["point"] for row in json.loads(target.read_text())] == [0, 1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, to_stdout", [
    (("verify", "--case", "q_binomial_product", "--points", "1", "--out", "/dev/full"), False),
    (("sample", "--points", "1", "--out", "/dev/full"), False),
    (("bench", "--sizes", "2", "--reps", "1", "--out", "/dev/full"), False),
    (("list",), True),
    (("verify", "--case", "q_binomial_product", "--points", "1"), True),
])
def test_a_failed_write_is_a_usage_error(argv, to_stdout):
    # a full device fails the write, flush or close, after the run; standard
    # output is block-buffered, as by default, and Python reports nothing
    # more when it flushes it at exit
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "srcid.cli", *argv], env=env, text=True,
                              stdout=full if to_stdout else subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"error: cannot write {'standard output' if to_stdout else '--out /dev/full'}: "
        "No space left on device"
    ]


def test_sample_dump(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--regime", "trig", "--field", "exact", "--points", "3",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert all(row["regime"] == "trig" for row in rows)
    assert all("q" in row["params"] for row in rows)


def test_sample_lists_the_elliptic_parameters_only(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--regime", "elliptic", "--field", "complex", "--points", "2",
    )
    assert code == 0
    assert all(sorted(row["params"]) == ["lam", "p", "q", "u", "v", "z"]
               for row in json.loads(out))


@pytest.mark.parametrize("regime, names", [
    ("rational", ["c", "u", "v", "z"]),
    ("trig", ["lam", "q", "u", "v", "z"]),
])
def test_sample_lists_the_exact_parameters_only(capsys, regime, names):
    # the int form a sampled point carries is no parameter
    code, out, _ = run_cli(
        capsys, "sample", "--regime", regime, "--field", "exact", "--points", "2",
    )
    assert code == 0
    assert all(sorted(row["params"]) == names for row in json.loads(out))


def test_bench_outputs_table(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "4,6", "--reps", "1")
    assert code == 0
    assert "ratio" in out
    assert "ratio strictly increasing" in out


@pytest.mark.parametrize("family", sorted(detreps.AVAILABILITY["rational"] - {"ik"}))
def test_bench_runs_every_family(capsys, family):
    # bs, bs_limit and mpt need auxiliary parameters, drawn after the point
    code, out, err = run_cli(capsys, "bench", "--sizes", "2,3", "--reps", "1", "--family", family)
    assert code == 0, err
    assert "det_ms" in out and "ratio strictly increasing" in out
    assert "Traceback" not in err


def test_bench_rejects_bad_sizes(capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "4,nope")
    assert code == 2
    code, _, err = run_cli(capsys, "bench", "--sizes", "0,4")
    assert code == 2
    for empty in ("", ","):
        code, out, err = run_cli(capsys, "bench", "--sizes", empty)
        assert code == 2
        assert out == "" and "--sizes" in err


def test_bench_rejects_zero_reps(capsys):
    code, out, err = run_cli(capsys, "bench", "--sizes", "4", "--reps", "0")
    assert code == 2
    assert out == ""
    assert "--reps" in err and "Traceback" not in err


def test_verify_rejects_zero_points(capsys):
    code, out, err = run_cli(capsys, "verify", "--case", "rational_ik", "--points", "0")
    assert code == 2
    assert out == ""
    assert "points" in err and "Traceback" not in err


def test_verify_rejects_zero_tol_singular(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--case", "rational_ik", "--tol-singular", "0",
    )
    assert code == 2
    assert out == ""
    assert "tol_singular" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_tol_singular(capsys, value):
    # a nan or infinite radius used to reject every draw up to the resampling cap
    code, out, err = run_cli(
        capsys, "verify", "--field", "complex", "--case", "rational_source_identity",
        f"--tol-singular={value}",
    )
    assert code == 2
    assert out == ""
    assert "tol_singular" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
def test_verify_rejects_negative_or_non_finite_tol(capsys, value):
    # -1 and nan used to fail every check, inf to pass every complex one
    code, out, err = run_cli(
        capsys, "verify", "--field", "complex", "--case", "rational_source_identity",
        f"--tol={value}",
    )
    assert code == 2
    assert out == ""
    assert "tol_match" in err and "Traceback" not in err


def test_verify_accepts_a_zero_tol(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--field", "exact", "--case", "rational_source_identity",
        "--points", "2", "--tol", "0",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_exact_field_reports_tol_zero_under_a_tol_override(capsys):
    # an exact pass stays literal equality: --tol only sets the complex tolerance
    code, out, _ = run_cli(
        capsys, "verify", "--field", "exact", "--case", "rational_source_identity",
        "--points", "2", "--tol", "0.5", "--format", "json", "--no-timings",
    )
    assert code == 0
    (case,) = json.loads(out)["cases"]
    assert case["tol"] == 0


def test_sample_rejects_exact_elliptic(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--regime", "elliptic", "--field", "exact",
    )
    assert code == 2
    assert out == ""
    assert "complex-only" in err and "Traceback" not in err


def test_a_sample_past_the_resampling_cap_is_a_usage_error(capsys, monkeypatch):
    def capped(*args):
        raise engine.SamplingError("resampling cap exceeded")

    monkeypatch.setattr(engine, "sample_params", capped)
    code, out, err = run_cli(capsys, "sample", "--regime", "trig")
    assert code == 2
    assert out == ""
    assert err == "error: resampling cap exceeded\n"


def test_verify_runner_error_is_a_failed_point(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--case", "*symmetrization*", "--nmax", "0", "--points", "2",
        "--format", "json", "--no-timings",
    )
    assert code == 1
    doc = json.loads(out)
    assert len(doc["cases"]) == 3
    for case in doc["cases"]:
        assert not case["pass"]
        assert all("Error: " in point["error"] for point in case["points"])


def test_bench_ratios_increase_with_size(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "8,10,12", "--reps", "3", "--seed", "1")
    assert code == 0
    assert len(out.splitlines()) == 5  # header, three sizes, verdict
    assert out.splitlines()[-1] == "ratio strictly increasing: True"


def test_verify_nmax_and_tol_flags(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--case", "rational_source_identity", "--points", "3",
        "--nmax", "2", "--tol", "1e-6", "--field", "complex",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_regime_and_field_filter_combined(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--regime", "elliptic", "--field", "exact", "--points", "1",
    )
    # elliptic cases are complex-only, so the selection is empty
    assert code == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


def test_nmax_below_a_size_range(capsys):
    # a case is not run outside its registered sizes: its points fail with the range
    code, out, _ = run_cli(
        capsys, "verify", "--case", "rational_mpt_F", "--nmax", "0", "--points", "1",
        "--format", "json", "--no-timings",
    )
    assert code == 1
    (point,) = json.loads(out)["cases"][0]["points"]
    assert point["error"] == "ValueError: --nmax 0 is below this case's sizes 1..4"
    code, out, err = run_cli(capsys, "sample", "--regime", "elliptic", "--nmax", "0")
    assert code == 2
    assert out == ""
    assert "below" in err and "Traceback" not in err
    for command in ("sample", "verify"):
        code, out, err = run_cli(capsys, command, "--nmax", "-1")
        assert code == 2
        assert out == ""
        assert "nmax" in err and "Traceback" not in err
