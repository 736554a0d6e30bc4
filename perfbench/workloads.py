"""The four srcid workloads.

Each workload turns a seed into one *pass*: a fixed amount of verification
work at the workload's stated sizes, run as a sequence of *units*.  A unit
is one call into srcid (a ``verify`` run, one ``run_case`` point, one
library point); it reports the points it attempted, the points that failed
with their error text, its wall time, per-point times and srcid's output,
which must be the same whenever the same seed is run again.  ``run.py``
probes the machine's speed between units.

srcid is imported inside the functions, never at module level: the
benchmark times that import as its set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from time import perf_counter

EXACT = "exact"
COMPLEX = "complex"


class BenchmarkError(RuntimeError):
    """srcid could not run a pass at all (bad selection, usage error)."""


@dataclasses.dataclass
class Unit:
    attempted: int
    failures: list  # "case#point: error text", one per failed point
    wall_s: float
    point_ms: list
    output: str


@contextlib.contextmanager
def timed_runners(case_ids, point_ms):
    """Time every case-runner call into ``point_ms`` while the block runs.

    ``run_case`` turns a ``SamplingError`` into a failed point and goes on
    with the next point; any other exception would abort the whole run.  The
    wrapper re-raises other exceptions as ``SamplingError`` carrying the
    exception's type and text, so they too become failed points.
    """
    from srcid import engine

    originals = {cid: engine.REGISTRY[cid] for cid in case_ids}

    def timed(runner):
        def run(ctx):
            start = perf_counter()
            try:
                return runner(ctx)
            except engine.SamplingError:
                raise
            except Exception as exc:
                raise engine.SamplingError(f"{type(exc).__name__}: {exc}") from exc
            finally:
                point_ms.append((perf_counter() - start) * 1000.0)
        return run

    try:
        for cid, case in originals.items():
            engine.REGISTRY[cid] = dataclasses.replace(case, runner=timed(case.runner))
        yield
    finally:
        engine.REGISTRY.update(originals)


def _report_failures(cases) -> list:
    return [
        f"{case['id']}#{point['index']}: "
        + (point.get("error") or f"{point['label']} residual {point['residual']:.3g}")
        for case in cases
        for point in case["points"]
        if not point["ok"]
    ]


# Complex-field cases whose checks keep a wide margin: over 3000 sampled
# points each (seeds 5000-5299, 10 points per case) the worst residual stayed
# below 2e-4 of the case's tolerance.  Every other complex case came to 4e-4
# of its tolerance or beyond, and nine went beyond it: the residual of
# a complex check has no scale (ROADMAP, "ill-posed complex vanishing and aux
# checks").  The rational/trig evaluation runners share the sampler dead end
# and stay out although their margin is wide.
COMPLEX_WELL_POSED = (
    "elliptic_quasi_periodicity",
    "elliptic_evaluation",
    "q_binomial_product",
    "q_inversion_statistic",
    "trig_bs_delta_limit",
    "rational_bs_delta_limit",
)


@dataclasses.dataclass(frozen=True)
class Registry:
    """``srcid verify --field <field> --points <points>`` over registered cases.

    The timed cases are the field's cases whose kind is not in
    ``kinds_excluded``, narrowed to ``cases`` when that is given.  The
    field's other cases, ``lascoux`` apart (a workload of its own), are the
    workload's known-defect cases: points of theirs fail at random on some
    seeds, so a timed run would count a different number of failures each
    time.  Each run checks them once, untimed, and prints what fails.
    """

    name: str
    field: str
    points: int
    tail_pct: float
    kinds_excluded: tuple = ()
    cases: tuple = ()

    def describe(self, plan) -> str:
        skipped = f", kinds other than {'/'.join(self.kinds_excluded)}" if self.kinds_excluded else ""
        narrowed = " well-posed" if self.cases else ""
        return (f"cli.main verify: {len(plan)}{narrowed} {self.field}-capable cases{skipped}, "
                f"{self.points} points per case, registry sizes")

    def prepare(self) -> list:
        from srcid import engine

        plan = [c.case_id for c in engine.match_cases(None, field_name=self.field)
                if c.kind not in self.kinds_excluded
                and (not self.cases or c.case_id in self.cases)]
        if self.cases and len(plan) != len(self.cases):
            raise BenchmarkError(f"{self.name}: cases not registered for the {self.field} "
                                 f"field: {sorted(set(self.cases) - set(plan))}")
        return plan

    def defect_cases(self, plan) -> list:
        from srcid import engine

        return [c.case_id for c in engine.match_cases(None, field_name=self.field)
                if c.kind != "lascoux" and c.case_id not in plan]

    def units(self, plan, seed: int):
        from srcid import cli

        argv = ["verify", "--field", self.field, "--points", str(self.points),
                "--seed", str(seed), "--format", "json", "--no-timings"]
        for case_id in plan:
            argv += ["--case", case_id]
        out, point_ms = io.StringIO(), []
        with timed_runners(plan, point_ms), contextlib.redirect_stdout(out):
            start = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - start
        if code not in (0, 1):
            raise BenchmarkError(f"srcid verify exited with {code}")
        text = out.getvalue()
        cases = json.loads(text)["cases"]
        yield Unit(
            attempted=sum(len(case["points"]) for case in cases),
            failures=_report_failures(cases),
            wall_s=wall,
            point_ms=point_ms,
            output=text,
        )


@dataclasses.dataclass(frozen=True)
class Lascoux:
    """The ``lascoux``-kind cases through ``engine.run_case``, one point per size.

    The registry draws n at random, and one n = 6 point costs as much as
    ten n = 5 points, so a random draw of sizes would make the pass time
    depend on the seed.  Each pass instead runs every case once at each
    n in ``sizes``; a case clamps n to its own range.
    """

    name: str
    sizes: tuple
    tail_pct: float

    def describe(self, plan) -> str:
        return (f"engine.run_case: {len(plan)} lascoux cases, exact field, one point "
                f"per case at each n = {self.sizes[0]}..{self.sizes[-1]} (clamped per case)")

    def prepare(self) -> list:
        from srcid import engine

        return [c.case_id for c in engine.match_cases(None, field_name=EXACT)
                if c.kind == "lascoux"]

    def defect_cases(self, plan) -> list:
        return []

    def units(self, plan, seed: int):
        from srcid import engine

        for case_id in plan:
            for n in self.sizes:
                config = engine.SamplingConfig(
                    master_seed=seed * 100 + n, points=1, field=EXACT, fixed_sizes=(n, n)
                )
                point_ms = []
                with timed_runners([case_id], point_ms):
                    start = perf_counter()
                    report = engine.run_case(case_id, config)
                    wall = perf_counter() - start
                case = report.as_dict(include_timings=False)
                yield Unit(
                    attempted=len(case["points"]),
                    failures=_report_failures([case]),
                    wall_s=wall,
                    point_ms=point_ms,
                    output=json.dumps(case, indent=2, sort_keys=True),
                )


# determinant family per size, so every family runs at a fixed size each pass
LARGE_N_FAMILIES = {8: "scalar_product", 9: "dwbc", 10: "mpt", 11: "bs", 12: "bs_limit"}


@dataclasses.dataclass(frozen=True)
class LargeN:
    """Library calls at n = m beyond the registry's sizes, exact field.

    A point draws rational or trig parameters, evaluates the subset sums F
    and G and one determinant representation of F, and passes when all
    three are equal as fractions.
    """

    name: str
    regimes: tuple
    sizes: tuple
    tail_pct: float

    def describe(self, plan) -> str:
        return (f"library: F, G subset sums and one det_rep family, exact field, "
                f"regimes {'/'.join(self.regimes)}, n = m = {self.sizes[0]}..{self.sizes[-1]}")

    def prepare(self) -> list:
        return [(regime, n) for regime in self.regimes for n in self.sizes]

    def defect_cases(self, plan) -> list:
        return []

    def units(self, plan, seed: int):
        for regime, n in plan:
            start = perf_counter()
            try:
                f, g, d = self.point(regime, n, seed)
                error = None if f == g == d else f"F = {f}, G = {g}, det = {d}"
            except Exception as exc:  # a failed point, not a failed benchmark
                f = g = d = None
                error = f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
            yield Unit(
                attempted=1,
                failures=[] if error is None else [f"{regime}#n={n}: {error}"],
                wall_s=wall,
                point_ms=[wall * 1000.0],
                output=json.dumps([regime, n, str(f), str(g), str(d)]),
            )

    @staticmethod
    def point(regime: str, n: int, seed: int):
        from srcid import detreps, engine, sources

        config = engine.SamplingConfig(master_seed=seed, field=EXACT)
        ctx = engine.PointContext(random.Random(f"{seed}:large-n:{regime}:{n}"), EXACT, config)
        params = ctx.sample_rational(n, n) if regime == "rational" else ctx.sample_trig(n, n)
        f = sources.source_subset_sum(regime, "F", params)
        g = sources.source_subset_sum(regime, "G", params)
        family = LARGE_N_FAMILIES[n]
        for _ in range(20):
            aux = ctx.sample_aux(regime, family, "F", params)
            try:
                return f, g, detreps.det_rep(regime, family, "F", params, aux)
            except detreps.AuxInvariantError:
                continue
        raise engine.SamplingError(f"no admissible {family} auxiliary parameters")


WORKLOADS = {
    w.name: w
    for w in (
        Registry("registry-complex", COMPLEX, points=10, tail_pct=99, cases=COMPLEX_WELL_POSED),
        # specialization: the rational/trig vanishing and evaluation runners
        # reach a sampler dead end ("resampling cap exceeded") on some seeds
        Registry("registry-exact", EXACT, points=10, tail_pct=98,
                 kinds_excluded=("lascoux", "specialization")),
        Lascoux("lascoux", sizes=(2, 3, 4, 5, 6), tail_pct=90),
        LargeN("large-n", regimes=("rational", "trig"), sizes=(8, 9, 10, 11, 12), tail_pct=70),
    )
}
