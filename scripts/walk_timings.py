"""Time the exact int subset sums by each walk, summed size by summed size.

    python3 scripts/walk_timings.py [--sizes 2-12] [--repeat 5]

For each summed size n, regime (rational, trig) and side (F, G) the script
draws the exact point at n = m that the large-n benchmark workload draws at
its default seed and times ``sources.source_subset_sum`` with the
depth-first walk (``subset_sums_by_size``) and with the level walk
(``_level_sums``), chosen by setting ``sources.LEVEL_WALK_FROM`` above or
below n.  The two walks are timed in turn, and each prints its best of
``--repeat`` runs in ms per sum, then the ratio DFS / level (above 1: the
level walk is faster).  These timings are what ``LEVEL_WALK_FROM`` is
chosen from.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import random
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from srcid import engine, sources  # noqa: E402
from srcid.fields import EXACT  # noqa: E402

SEED = 20260801


def draw(regime, n):
    """The large-n workload's point for (regime, n) at ``SEED``."""
    config = engine.SamplingConfig(master_seed=SEED, field=EXACT)
    ctx = engine.PointContext(random.Random(f"{SEED}:large-n:{regime}:{n}"), EXACT, config)
    return ctx.sample_rational(n, n) if regime == "rational" else ctx.sample_trig(n, n)


def best_ms(regime, side, params, start, repeat):
    sources.LEVEL_WALK_FROM = start
    call = lambda: sources.source_subset_sum(regime, side, params)
    number, _ = timeit.Timer(call).autorange()
    return min(timeit.repeat(call, number=number, repeat=repeat)) / number * 1000.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="2-12", help="lo-hi summed sizes")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    lo, hi = map(int, args.sizes.split("-"))
    kept = sources.LEVEL_WALK_FROM
    print(f"{'n':>3} {'regime':>8} side {'dfs_ms':>9} {'level_ms':>9} {'ratio':>6}")
    try:
        for n in range(lo, hi + 1):
            for regime in ("rational", "trig"):
                params = draw(regime, n)
                for side in "FG":
                    dfs = best_ms(regime, side, params, n + 1, args.repeat)
                    level = best_ms(regime, side, params, n, args.repeat)
                    print(f"{n:>3} {regime:>8} {side:>4} {dfs:>9.3f} {level:>9.3f} "
                          f"{dfs / level:>6.2f}", flush=True)
    finally:
        sources.LEVEL_WALK_FROM = kept
    return 0


if __name__ == "__main__":
    sys.exit(main())
