"""Compare the verification reports of a base commit and the working tree.

    python3 scripts/report_diff.py --base <rev> [--points N]

Run from the repository root.  The base commit is exported with
``git archive`` into a temporary directory (as in ``bench_compare.py``);
the head is the working tree.  For each field, ``srcid verify --field
<field> --format json --no-timings`` runs on both, and the script prints
the sha256 of each report, then every point whose record differs, with
its case, index, residual and pass flag before and after, one line per
case with differing points (how many of its points differ and how many
changed their pass flag, the case's tolerance, and its worst residual and
failing points on base and on head, so a change in the last bits reads as
a change of margin), and the same two counts over the field.  As with
diff(1), the exit status is 0 when both fields' reports are byte-identical
and 1 when either differs; 2 means a report could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from bench_compare import ROOT, export

FIELDS = ("exact", "complex")


def report(tree: Path, field: str, points: int) -> str:
    """The JSON report of ``srcid verify`` over every case of ``field``, default seed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "srcid.cli", "verify", "--field", field, "--format", "json",
         "--no-timings", "--points", str(points)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{tree} verify --field {field} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return proc.stdout


def points_of(text: str) -> dict:
    doc = json.loads(text)
    return {(case["id"], point["index"]): point
            for case in doc["cases"] for point in case["points"]}


def margins_of(text: str) -> dict:
    """case id -> (tol, worst residual, failing points) of one report."""
    return {case["id"]: (case["tol"], max((p["residual"] for p in case["points"]), default=None),
                         sum(1 for p in case["points"] if not p["ok"]))
            for case in json.loads(text)["cases"]}


def margin(case: tuple | None) -> str:
    return "absent" if case is None else f"worst {case[1]:.3g}, {case[2]} failing"


def outcome(point) -> str:
    return "absent" if point is None else f"{point['residual']:.3g} ok={point['ok']}"


def compare(field: str, before: str, after: str) -> bool:
    """Print the two reports' hashes and differing points; True when identical."""
    hashes = [hashlib.sha256(text.encode()).hexdigest() for text in (before, after)]
    for side, sha in zip(("base", "head"), hashes):
        print(f"{field} {side} sha256 {sha}")
    old, new = points_of(before), points_of(after)
    old_cases, new_cases = margins_of(before), margins_of(after)
    # case -> [points, differing, changed pass/fail]
    tally = defaultdict(lambda: [0, 0, 0])
    for key in sorted(old.keys() | new.keys()):
        counts = tally[key[0]]
        counts[0] += 1
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        counts[1] += 1
        if a is None or b is None or a["ok"] != b["ok"]:
            counts[2] += 1
        print(f"  {field} {key[0]}#{key[1]}: {outcome(a)} -> {outcome(b)}")
    for case, (points, differing, flipped) in tally.items():
        if differing:
            a, b = old_cases.get(case), new_cases.get(case)
            print(f"  {field} {case}: {differing} of {points} points differ, "
                  f"{flipped} changed pass/fail; tol {(a or b)[0]:.3g}, "
                  f"base {margin(a)}, head {margin(b)}")
    differing = sum(counts[1] for counts in tally.values())
    flipped = sum(counts[2] for counts in tally.values())
    print(f"{field}: {differing} of {len(old)} points differ, {flipped} changed pass/fail")
    return hashes[0] == hashes[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--points", type=int, default=10)
    args = parser.parse_args(argv)
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        try:
            export(args.base, base)
            for field in FIELDS:
                before = report(base, field, args.points)
                after = report(ROOT, field, args.points)
                same = compare(field, before, after) and same
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"report_diff: {exc}", file=sys.stderr)
            return 2
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
