"""Tests of the benchmark itself, on small versions of its workloads.

    PYTHONPATH=src python -m pytest -q perfbench

They use the srcid modules already imported by pytest and never
re-import srcid, so the other suites see unmodified modules.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, BenchmarkError, Registry  # noqa: E402

import srcid.engine as engine  # noqa: E402
import srcid.qseries as qseries  # noqa: E402

SMALL = {
    "registry-complex": dataclasses.replace(WORKLOADS["registry-complex"], points=2),
    "registry-exact": dataclasses.replace(WORKLOADS["registry-exact"], points=2),
    "lascoux": dataclasses.replace(WORKLOADS["lascoux"], sizes=(1, 2, 3, 4)),
    "large-n": dataclasses.replace(WORKLOADS["large-n"], sizes=(8,)),
}

# layer metric -> the workloads named to exercise it
EXERCISED_ON = {
    "qseries.theta.calls": ["registry-complex"],
    "qseries.theta.self_s": ["registry-complex"],
    "qseries.theta.repeat_share": ["registry-complex"],
    "qseries.qpoch_inf.calls": ["registry-complex"],
    "qseries.qpoch_inf.self_s": ["registry-complex"],
    "qseries.qpoch_inf.factors": ["registry-complex"],
    "symmetrize.sym_c.calls": ["lascoux"],
    "symmetrize.sym_c.self_s": ["lascoux"],
    "symmetrize.sym_c.terms": ["lascoux"],
    "symmetrize.sides.self_s": ["lascoux"],
    "sources.subset_sum.calls": ["large-n", "registry-exact"],
    "sources.subset_sum.self_s": ["large-n", "registry-exact"],
    "sources.subset_sum.subsets": ["large-n", "registry-exact"],
    "sources.difference_ops.self_s": ["registry-exact"],
    "linalg.det_exact.calls": ["large-n", "registry-exact"],
    "linalg.det_exact.self_s": ["large-n", "registry-exact"],
    "linalg.det_exact.ops": ["large-n", "registry-exact"],
    "linalg.det_complex.calls": ["registry-complex"],
    "linalg.det_complex.self_s": ["registry-complex"],
    "detreps.det_rep.self_s": ["registry-exact", "large-n"],
    "wallcross.self_s": ["registry-exact"],
    "engine.sampling.draws": ["registry-exact"],
    "engine.sampling.accept_ratio": ["registry-exact"],
    # counts sampler dead ends, a defect that strikes on some seeds only
    "engine.sampling.errors": [],
    "engine.sampling.self_s": ["registry-exact"],
    "engine.run_case.self_s": ["registry-exact"],
    "cli.report.self_s": ["registry-complex", "registry-exact"],
    "cli.report.bytes": ["registry-complex", "registry-exact"],
    "trace.wall_s": list(WORKLOADS),
    "trace.overhead_share": list(WORKLOADS),
}


@pytest.fixture(scope="module")
def traced_metrics():
    out = {}
    for name, workload in SMALL.items():
        values, checks, attempted, _, _ = run.run_traced(workload, workload.prepare(), 7)
        assert all(checks.values()), (name, checks)
        assert attempted > 0
        out[name] = values
    return out


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(spans.METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert set(EXERCISED_ON) == set(spans.METRICS)


@pytest.mark.parametrize("metric", sorted(EXERCISED_ON))
def test_layer_metric_is_nonzero_on_its_workload(traced_metrics, metric):
    for name in EXERCISED_ON[metric]:
        assert traced_metrics[name][metric] > 0, (metric, name)


def test_layers_absent_from_a_workload_stay_zero(traced_metrics):
    assert traced_metrics["registry-complex"]["symmetrize.sym_c.calls"] == 0
    assert traced_metrics["lascoux"]["qseries.theta.calls"] == 0
    assert traced_metrics["large-n"]["qseries.qpoch_inf.calls"] == 0


def test_child_spans_nest_inside_parents():
    workload = SMALL["registry-complex"]
    with spans.Tracer() as tracer:
        run.run_pass(workload, workload.prepare(), 3)
    assert tracer.nesting_violations() == []
    theta, qpoch = tracer.names.index("qseries.theta"), tracer.names.index("qseries.qpoch_inf")
    nested = [
        i for i, parent in enumerate(tracer.parents)
        if parent >= 0 and tracer.name_ids[i] == qpoch and tracer.name_ids[parent] == theta
    ]
    assert nested
    # a layer calling into itself stays in one span
    assert all(tracer.name_ids[i] != tracer.name_ids[p]
               for i, p in enumerate(tracer.parents) if p >= 0)


def test_tracer_restores_every_binding():
    import srcid.linalg as linalg

    before = (qseries.theta, linalg.theta, engine.theta, engine.PointContext.attempt,
              engine.run_case)
    with spans.Tracer():
        assert linalg.theta is not before[1]
    after = (qseries.theta, linalg.theta, engine.theta, engine.PointContext.attempt,
             engine.run_case)
    assert after == before


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seed_drives_the_inputs(name):
    workload = SMALL[name]
    plan = workload.prepare()
    first = run.run_pass(workload, plan, 11)
    again = run.run_pass(workload, plan, 11)
    other = run.run_pass(workload, plan, 12)
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert len(first.point_ms) == first.attempted


def test_exceptions_become_failed_points():
    def raises(ctx):
        raise ZeroDivisionError("boom")

    case = engine.CaseDef("perfbench_raises", "identity", "rational", "raises",
                          ("complex",), raises)
    engine.register(case)
    try:
        workload = Registry("raises", "complex", points=3, tail_pct=50)
        result = run.run_pass(workload, ["perfbench_raises"], 5)
    finally:
        del engine.REGISTRY["perfbench_raises"]
    assert result.attempted == 3
    assert len(result.failures) == 3
    assert "ZeroDivisionError: boom" in result.failures[0]


@pytest.mark.parametrize("name", ["registry-complex", "registry-exact"])
def test_registry_cases_split_into_timed_and_known_defect(name):
    workload = WORKLOADS[name]
    plan = workload.prepare()
    defects = workload.defect_cases(plan)
    field_cases = [c.case_id for c in engine.match_cases(None, field_name=workload.field)
                   if c.kind != "lascoux"]
    assert plan and defects
    assert sorted(plan + defects) == sorted(field_cases)


def test_known_defects_are_reported_untimed():
    workload = SMALL["registry-complex"]
    plan = workload.prepare()
    _, _, attempted, failed, lines = run.run_timed(workload, plan, 7, 0)
    assert failed == 0
    assert attempted % (len(plan) * workload.points) == 0
    assert any(line.startswith("# known_defect_fail_share = ") for line in lines)


def test_a_missing_named_case_stops_the_benchmark():
    workload = dataclasses.replace(WORKLOADS["registry-complex"], cases=("no_such_case",))
    with pytest.raises(BenchmarkError):
        workload.prepare()


def test_large_n_counts_a_raising_point_as_failed():
    workload = dataclasses.replace(WORKLOADS["large-n"], regimes=("no-such-regime",), sizes=(8,))
    result = run.run_pass(workload, workload.prepare(), 5)
    assert result.attempted == 1
    assert "ValueError" in result.failures[0]


def test_percentile_helpers():
    assert run.samples_needed(90) == 100
    assert run.samples_needed(50) == 20
    assert run.nearest_rank(range(1, 101), 90) == (90, 10)
    assert run.nearest_rank([5.0], 99) == (5.0, 0)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
