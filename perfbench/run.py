"""srcid benchmark: one workload, measured in this process.

    python3 perfbench/run.py --workload registry-complex --seed 20260801 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, each in a fresh process

Run from the repository root.  srcid is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2 and prints no result.

With ``--trace 0`` the run times passes of the workload for ``--seconds``
seconds (longer if the tail percentile still lacks samples), each pass on
its own seed drawn from ``--seed``, then runs the first unit of the first
pass (for registry workloads, the whole ``verify`` report) again and checks
that srcid's output is byte-identical.  With ``--trace 1`` it runs the first
pass untraced and then traced, and reports per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed``, ``metrics``.
Everything runs in one thread, so no layer waits on another: the benchmark
reports busy (self) time per layer and no wait time.

Speed probe.  On a shared host the speed of this process drifts by up to a
third within seconds as neighbours load the machine; its CPU time drifts
with its wall time, so the drift is not preemption and timing CPU time does
not remove it.  A fixed pure-Python probe (exact and complex arithmetic, as
in srcid) therefore runs before and after every unit of work, and each
unit's times are scaled by ``PROBE_REF_MS`` over the mean of those two probe
times.  The end-to-end metrics are the times a unit would take on a machine
where the probe takes ``PROBE_REF_MS``; the unscaled figures are printed on
the comment lines.  Per-layer span times are not scaled.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS, BenchmarkError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20260801
SETUP_REPS = 9
MAX_LOOP_S = 120.0  # a run must end within 180 s even on a slow machine
PROBE_REF_MS = 6.0  # the probe's time on an unloaded 2-core x86-64 VM, Python 3.11

END_TO_END = {
    "points_per_s": "1/s",
    "point_ms_p50": "ms",
    "point_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    pass


def probe_ms() -> float:
    """Time a fixed computation that srcid's arithmetic resembles."""
    start = perf_counter()
    acc, z = Fraction(0), 1 + 0j
    for i in range(1, 1500):
        acc += Fraction(i, i + 7)
        z = z * (0.999 + 0.001j) + 1e-3
    return (perf_counter() - start) * 1000.0


@dataclasses.dataclass
class PassResult:
    attempted: int
    failures: list
    wall_s: float  # scaled to the probe reference
    raw_wall_s: float
    point_ms: list  # scaled to the probe reference
    probe_ms: list
    digests: list  # sha256 of srcid's output, one per unit

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def run_pass(workload, plan, seed: int, units: int | None = None) -> PassResult:
    """A pass, or its first ``units`` units, probing speed before and after each unit."""
    result = PassResult(0, [], 0.0, 0.0, [], [probe_ms()], [])
    for unit in itertools.islice(workload.units(plan, seed), units):
        result.probe_ms.append(probe_ms())
        scale = PROBE_REF_MS / statistics.fmean(result.probe_ms[-2:])
        result.attempted += unit.attempted
        result.failures += unit.failures
        result.wall_s += unit.wall_s * scale
        result.raw_wall_s += unit.wall_s
        result.point_ms += [ms * scale for ms in unit.point_ms]
        result.digests.append(hashlib.sha256(unit.output.encode()).hexdigest())
    return result


def import_srcid():
    """Import srcid afresh from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "srcid" or m.startswith("srcid.")]:
        del sys.modules[name]
    try:
        srcid = importlib.import_module("srcid")
        importlib.import_module("srcid.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import srcid from {SRC}: {exc}") from exc
    if Path(srcid.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"srcid was imported from {srcid.__file__}, not from {SRC}")


def measure_setup(workload):
    """Median scaled time to import srcid and select the workload's cases.

    The first import also loads the standard-library modules srcid uses.
    """
    scaled, raw = [], []
    before = probe_ms()
    for _ in range(SETUP_REPS):
        start = perf_counter()
        import_srcid()
        plan = workload.prepare()
        elapsed = perf_counter() - start
        after = probe_ms()
        raw.append(elapsed)
        scaled.append(elapsed * PROBE_REF_MS / statistics.fmean((before, after)))
        before = after
    if not plan:
        raise SetupError(f"workload {workload.name} selects nothing")
    return statistics.median(scaled), statistics.median(raw), plan


def pass_seeds(seed: int):
    """The run's seed for the first pass, then seeds drawn from it."""
    rng = random.Random(f"perfbench:{seed}")
    yield seed
    while True:
        yield rng.randrange(2**31)


def samples_needed(pct: float) -> int:
    """Fewest samples that leave at least 10 beyond the ``pct`` percentile."""
    n = 10
    while n - math.ceil(pct / 100 * n) < 10:
        n += 1
    return n


def nearest_rank(values, pct: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> str:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return f"python {platform.python_version()} · nproc {nproc} · {platform.platform()}"


def _fail_lines(attempted, failures, limit=5, what="fail_share"):
    lines = [f"# {what} = {len(failures) / attempted:.6f} share "
             f"({len(failures)} failed / {attempted} attempted points)"]
    lines += [f"#   {text[:160]}" for text in failures[:limit]]
    if len(failures) > limit:
        lines.append(f"#   ... {len(failures) - limit} more")
    return lines


def run_timed(workload, plan, seed, seconds):
    seeds = pass_seeds(seed)
    passes, point_ms = [], []
    need = samples_needed(workload.tail_pct)
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, plan, next(seeds)))
        point_ms += passes[-1].point_ms
        elapsed = perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(point_ms) >= need):
            break
    repeat = run_pass(workload, plan, seed, units=1)
    report_sha256 = passes[0].digests[0]
    defect_plan = workload.defect_cases(plan)
    defects = run_pass(workload, defect_plan, seed) if defect_plan else None

    checks = {
        "first unit repeated byte-identical": repeat.digests[0] == report_sha256,
        "one timed runner call per point": all(
            len(p.point_ms) == p.attempted for p in passes + [repeat]
        ),
    }
    tail, beyond = nearest_rank(point_ms, workload.tail_pct)
    values = {
        "points_per_s": sum(p.attempted for p in passes) / sum(p.wall_s for p in passes),
        "point_ms_p50": statistics.median(point_ms),
        "point_ms_tail": tail,
    }
    probes = [ms for p in passes for ms in p.probe_ms]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    lines = [
        f"# passes: {len(passes)} timed in {elapsed:.1f} s, then the first unit repeated",
        f"# report_sha256 = {report_sha256} (first unit of the first pass; repeat "
        f"{'equal' if checks['first unit repeated byte-identical'] else 'DIFFERS'})",
        f"# point_ms_tail is p{workload.tail_pct:g}: {beyond} of {len(point_ms)} samples beyond it",
        f"# speed probe: median {statistics.median(probes):.3f} ms over {len(probes)} probes "
        f"(reference {PROBE_REF_MS} ms); unscaled points_per_s = "
        f"{sum(p.attempted for p in passes) / sum(p.raw_wall_s for p in passes):.6g} 1/s",
    ] + _fail_lines(attempted, failures)
    if defects:
        lines.append(f"# the workload's {len(defect_plan)} known-defect cases, checked once "
                     f"untimed and not counted in attempted/failed:")
        lines += _fail_lines(defects.attempted, defects.failures, what="known_defect_fail_share")
    return values, checks, attempted, len(failures), lines


def run_traced(workload, plan, seed):
    untraced = run_pass(workload, plan, seed)
    with spans.Tracer() as tracer:
        traced = run_pass(workload, plan, seed)
    values = tracer.metrics(traced.raw_wall_s, traced.wall_s / untraced.wall_s)
    checks = {
        "traced pass byte-identical to untraced": traced.digest == untraced.digest,
        "child spans nest inside their parents": not tracer.nesting_violations(),
    }
    shares = sorted(
        ((name[: -len(".self_s")], value / traced.raw_wall_s)
         for name, value in values.items() if name.endswith(".self_s")),
        key=lambda item: -item[1],
    )
    lines = [
        f"# traced pass: {len(tracer.starts)} spans, {traced.raw_wall_s:.3f} s "
        f"(untraced {untraced.raw_wall_s:.3f} s; overhead share from probe-scaled times)",
        "# self time share of the traced pass: "
        + ", ".join(f"{name} {share:.1%}" for name, share in shares if share >= 0.005),
        "# waiting: none; every layer runs in the one benchmark thread",
    ] + _fail_lines(traced.attempted, traced.failures)
    return values, checks, traced.attempted, len(traced.failures), lines


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"## {name} --trace {trace}", flush=True)
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, check=False,
            )
            worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    try:
        setup_s, raw_setup_s, plan = measure_setup(workload)
        if args.trace:
            values, checks, attempted, failed, lines = run_traced(workload, plan, args.seed)
            units = spans.METRICS
        else:
            values, checks, attempted, failed, lines = run_timed(
                workload, plan, args.seed, args.seconds
            )
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
            lines.append(f"# setup_s is the median of {SETUP_REPS} imports "
                         f"(unscaled {raw_setup_s:.6g} s)")
    except (SetupError, BenchmarkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"# srcid benchmark · workload {workload.name} · seed {args.seed} · trace {args.trace}")
    print(f"# {environment()}")
    print(f"# {workload.describe(plan)}")
    for line in lines:
        print(line)
    for name, ok in checks.items():
        print(f"# check: {name}: {'ok' if ok else 'FAILED'}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
