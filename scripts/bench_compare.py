"""Run the benchmark on two commits in alternating pairs and write one JSON file.

    python3 scripts/bench_compare.py --base <rev> --head <rev> --pairs 10 \
        --workload lascoux --out BENCH_<n>.json

Run from the repository root.  Each commit is exported with ``git archive``
into its own temporary directory, so only committed files are measured.
Pair i runs ``perfbench/run.py --trace 0`` once on each commit at seed
``--seed + i``; even pairs run the base first, odd pairs the head first.
After the pairs, three ``--trace 1`` runs per commit at ``--seed``,
alternating base and head, give the per-layer metrics: each layer records
its three values per side and their median, since a single traced run
cannot resolve a layer of a few milliseconds.  Count layers must repeat
exactly across the three runs, or the script stops.  The file records
every run, each side's median and quartiles, how many pairs the head won
per end-to-end metric (ties count for neither side), the report hash of
each run, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3  # per commit and workload; each layer records the median


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its last-line JSON plus the report hash, if printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    sha = re.search(r"report_sha256 = ([0-9a-f]+)", proc.stdout)
    result["report_sha256"] = sha.group(1) if sha else None
    return result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(trees: dict, workload: str, pairs: int, seed: int, seconds: float,
            better: dict) -> dict:
    runs = {"base": [], "head": []}
    for i in range(pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(bench(trees[side], workload, seed + i, seconds, trace=0))
            print(f"{workload} pair {i} {side} done", file=sys.stderr)
    end_to_end = {}
    for name, direction in better.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        sign = 1 if direction == "higher" else -1
        end_to_end[name] = {
            "unit": runs["base"][0]["metrics"][name]["unit"],
            "better": direction,
            "base": summary(base),
            "head": summary(head),
            "head_wins": sum(1 for b, h in zip(base, head) if sign * (h - b) > 0),
            "base_wins": sum(1 for b, h in zip(base, head) if sign * (h - b) < 0),
        }
    traced = {"base": [], "head": []}
    for i in range(TRACED_RUNS):
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            traced[side].append(bench(trees[side], workload, seed, seconds, trace=1)["metrics"])
    per_layer = {}
    for name, metric in traced["base"][0].items():
        values = {side: [run[name]["value"] for run in traced[side]] for side in traced}
        if not any(values["base"] + values["head"]):
            continue
        if metric["unit"] == "count" and any(len(set(v)) > 1 for v in values.values()):
            raise RuntimeError(f"{workload} {name} differs between traced runs: {values}")
        per_layer[name] = {"unit": metric["unit"],
                           "base": statistics.median(values["base"]),
                           "head": statistics.median(values["head"]),
                           "base_runs": values["base"], "head_runs": values["head"]}
    return {
        "seeds": [seed + i for i in range(pairs)],
        "end_to_end": end_to_end,
        "per_layer_trace_1_seed": seed,
        "per_layer_trace_1_runs": TRACED_RUNS,
        "per_layer": per_layer,
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
        "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
        "report_sha256": {side: [r["report_sha256"] for r in runs[side]] for side in runs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision measured as the parent")
    parser.add_argument("--head", default="HEAD", help="git revision measured as the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20260801)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    doc = {
        "command": "python3 scripts/bench_compare.py " + " ".join(argv or sys.argv[1:]),
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "run_seconds": benchmark["run_seconds"],
        "base": git("rev-parse", args.base),
        "head": git("rev-parse", args.head),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side, rev in (("base", args.base), ("head", args.head)):
            trees[side] = Path(tmp) / side
            trees[side].mkdir()
            export(rev, trees[side])
        for workload in args.workload:
            doc["workloads"][workload] = compare(
                trees, workload, args.pairs, args.seed, benchmark["run_seconds"], better
            )
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
