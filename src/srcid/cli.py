"""Command-line front end: list cases, run suites, dump samples, benchmark.

Exit codes: 0 all selected cases pass, 1 at least one case fails,
2 invalid arguments (including unknown case ids), a ``sample`` point that
cannot be drawn, or output that cannot be written.

The JSON report layout is

    { "run": { "seed": ..., "config": {...} },
      "cases": [ { "id", "anchor", "kind", "regime", "field", "tol",
                   "points": [ {"index", "seed", "residual", ...} ],
                   "max_rel_err", "pass", "millis" } ] }

and is byte-identical across runs for the same arguments when
``--no-timings`` is passed.  CSV flattens to one row per (case, point).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import random
import sys
import time

from . import engine, sources, detreps
from .engine import SamplingConfig, UnknownCaseError
from .fields import COMPLEX, EXACT


class UsageError(ValueError):
    """An argument value the command cannot run with (exit code 2)."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srcid",
        description="verify subset-sum source identities and their determinant forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered verification cases")
    p_list.add_argument("--regime", default="all",
                        choices=["elliptic", "trig", "rational", "all"])

    p_verify = sub.add_parser("verify", help="run verification cases")
    p_verify.add_argument("--case", action="append", default=None,
                          help="case id glob (repeatable); default: all cases")
    p_verify.add_argument("--regime", default="all",
                          choices=["elliptic", "trig", "rational", "all"])
    p_verify.add_argument("--field", default=None, choices=[EXACT, COMPLEX])
    p_verify.add_argument("--seed", type=int, default=20260801)
    p_verify.add_argument("--points", type=int, default=10)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override the per-case matching tolerance of the complex field "
                               "(an exact pass is always literal equality)")
    p_verify.add_argument("--tol-singular", type=float, default=1e-3)
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--out", default=None, help="write the report to this path")
    p_verify.add_argument("--format", default="text", choices=["json", "csv", "text"])
    p_verify.add_argument("--no-timings", action="store_true",
                          help="drop wall-clock fields for byte-identical reports")

    p_sample = sub.add_parser("sample", help="dump sampled parameter sets")
    p_sample.add_argument("--regime", default="rational",
                          choices=["elliptic", "trig", "rational"])
    p_sample.add_argument("--field", default=None, choices=[EXACT, COMPLEX])
    p_sample.add_argument("--seed", type=int, default=20260801)
    p_sample.add_argument("--points", type=int, default=5)
    p_sample.add_argument("--nmax", type=int, default=None)
    p_sample.add_argument("--out", default=None)

    p_bench = sub.add_parser(
        "bench", help="time subset sums against determinant evaluation",
        description="Time rational_F against one determinant family at complex rational "
                    "points, n = m: subset_ms times the subset sums' complex table walk, "
                    "not the int walks of exact points.",
    )
    p_bench.add_argument("--sizes", default="8,10,12",
                         help="comma-separated n values (n = m)")
    p_bench.add_argument("--family", default="scalar_product",
                         choices=sorted(detreps.AVAILABILITY["rational"] - {"ik"}))
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=20260801)
    p_bench.add_argument("--out", default=None)
    return parser


def _config_from_args(args) -> SamplingConfig:
    try:
        return SamplingConfig(
            master_seed=args.seed,
            points=args.points,
            tol_singular=getattr(args, "tol_singular", 1e-3),
            tol_match=getattr(args, "tol", None),
            field=args.field,
            nmax=args.nmax,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@contextlib.contextmanager
def _output(out_path):
    """The stream a command writes its result to: standard output, or
    ``--out``.  ``verify`` and ``bench`` open it before any work, so that a
    path that cannot be written is a ``UsageError`` at once and not after
    the run; ``sample`` opens it after its draws, so that a refused draw
    keeps the file.  A command does no other I/O, so an ``OSError`` here is
    a failed write, flush or close of the stream: a ``UsageError`` too."""
    where = f"--out {out_path}" if out_path else "standard output"
    try:
        fh = open(out_path, "w") if out_path else sys.stdout
        with fh if out_path else contextlib.nullcontext():
            yield fh
            fh.flush()
    except OSError as exc:
        if not out_path:
            # Python flushes stdout again at exit: what the failed write left goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), fh.fileno())
        raise UsageError(f"cannot write {where}: {exc.strerror}") from exc


def _report_json(reports, args, include_timings: bool) -> str:
    doc = {
        "run": {
            "seed": args.seed,
            "config": {
                "points": args.points,
                "tol": args.tol,
                "tol_singular": args.tol_singular,
                "nmax": args.nmax,
                "field": args.field,
                "regime": args.regime,
                "cases": sorted(r.case_id for r in reports),
            },
        },
        "cases": [r.as_dict(include_timings=include_timings) for r in reports],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _report_csv(reports, include_timings: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["case_id", "field", "point", "seed", "residual", "ok", "label"]
    if include_timings:
        header.append("case_millis")
    writer.writerow(header)
    for rep in reports:
        for rec in rep.points:
            row = [rep.case_id, rep.field, rec.index, rec.seed, repr(rec.residual),
                   rec.ok, rec.label]
            if include_timings:
                row.append(f"{rep.millis:.3f}")
            writer.writerow(row)
    return buf.getvalue()


def _report_text(reports, include_timings: bool) -> str:
    lines = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        timing = f" {rep.millis:8.1f} ms" if include_timings else ""
        lines.append(
            f"{status} {rep.case_id:40s} field={rep.field:7s} "
            f"points={len(rep.points):3d} max_err={rep.max_rel_err:.3e}{timing}"
        )
    total = len(reports)
    passed = sum(1 for r in reports if r.passed)
    lines.append(f"{passed}/{total} cases passed")
    return "\n".join(lines) + "\n"


def _cmd_list(args) -> int:
    with _output(None) as out:
        for case in engine.match_cases(None, regime=args.regime):
            out.write(f"{case.case_id:40s} [{case.kind:14s}] ({case.regime}, "
                      f"{'/'.join(case.fields)}) {case.anchor}\n")
    return 0


def _cmd_verify(args) -> int:
    config = _config_from_args(args)
    try:
        cases = engine.match_cases(args.case, regime=args.regime, field_name=args.field)
    except UnknownCaseError as exc:
        raise UsageError(f"no case matches {exc.args[0]!r}") from None
    if not cases:
        raise UsageError("selection matches no runnable case")
    with _output(args.out) as out:
        reports = [engine.run_case(c.case_id, config) for c in cases]
        include_timings = not args.no_timings
        if args.format == "json":
            out.write(_report_json(reports, args, include_timings))
        elif args.format == "csv":
            out.write(_report_csv(reports, include_timings))
        else:
            out.write(_report_text(reports, include_timings))
    return 0 if all(r.passed for r in reports) else 1


def _params_as_dict(params) -> dict:
    out = {}
    for key in (f.name for f in dataclasses.fields(params) if f.repr):
        val = getattr(params, key)
        if isinstance(val, tuple):
            out[key] = [str(x) for x in val]
        else:
            out[key] = str(val)
    return out


def _cmd_sample(args) -> int:
    config = _config_from_args(args)
    rows = []
    # every row is drawn before --out is opened, so a refused draw leaves the file as it was
    for index in range(args.points):
        try:
            params = engine.sample_params(args.regime, config, index)
        # --nmax below the regime's sizes, a field that refuses the
        # regime, or a draw past the resampling cap
        except (ValueError, engine.SamplingError) as exc:
            raise UsageError(str(exc)) from exc
        rows.append({
            "point": index,
            "regime": args.regime,
            "field": engine.sample_field(args.regime, config),
            "n": len(params.u),
            "m": len(params.v),
            "params": _params_as_dict(params),
        })
    with _output(args.out) as out:
        out.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return 0


def _bench_point(seed: int, n: int, family: str):
    """A rational point at n = m and the family's F-side aux, drawn after it."""
    config = SamplingConfig(master_seed=seed, field=COMPLEX)
    ctx = engine.PointContext(random.Random(f"{seed}:bench:{n}"), COMPLEX, config)
    params = ctx.sample_rational(n, n)
    return params, ctx.sample_aux("rational", family, "F", params)


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        raise UsageError("--sizes must be comma-separated integers") from exc
    if not sizes:
        raise UsageError("--sizes needs at least one size")
    if any(n < 1 or n > sources.SIZE_CAP for n in sizes):
        raise UsageError(f"sizes must lie in [1, {sources.SIZE_CAP}]")
    if args.reps < 1:
        raise UsageError("--reps must be at least 1")
    lines = [f"{'n':>4s} {'subset_ms':>12s} {'det_ms':>12s} {'ratio':>10s}"]
    ratios = []
    with _output(args.out) as out:
        for n in sizes:
            params, aux = _bench_point(args.seed, n, args.family)
            t_subset = min(_timed(lambda: sources.rational_F(params)) for _ in range(args.reps))
            t_det = min(
                _timed(lambda: detreps.det_rep("rational", args.family, "F", params, aux))
                for _ in range(args.reps)
            )
            ratio = t_subset / t_det if t_det > 0 else float("inf")
            ratios.append(ratio)
            lines.append(f"{n:4d} {t_subset * 1e3:12.3f} {t_det * 1e3:12.3f} {ratio:10.2f}")
        increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
        lines.append(f"ratio strictly increasing: {increasing}")
        out.write("\n".join(lines) + "\n")
    return 0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sample":
            return _cmd_sample(args)
        return _cmd_bench(args)
    except UnknownCaseError as exc:
        print(f"error: unknown case {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
