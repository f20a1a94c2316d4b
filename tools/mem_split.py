#!/usr/bin/env python3
"""Where one gridbench workload's memory is held, by allocation site.

Builds the workload's grid and runs one pass of it — the set-up and
every round of the first timed pass, from the same seed gridbench uses —
under the stdlib's ``tracemalloc``, then prints what is still allocated
at the end of the pass: bytes and blocks per source line, the top ones
first, with the total traced and its peak.  A site is the line that
allocated the object (in ``Table.insert``, the row list, a hash bucket,
a sorted-index entry), so the split says which structure holds the
bytes ``peak_rss_mb`` counts.

Usage: python3 tools/mem_split.py --workload catalog_load
           [--seed N] [--smoke] [--top N]
"""

from __future__ import annotations

import argparse
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def site_of(frame) -> str:
    """``path:line`` from the repository root, or the last two path
    components of a file outside it (``json/decoder.py:353``)."""
    name = frame.filename
    name = os.path.relpath(name, ROOT) if name.startswith(ROOT + os.sep) \
        else os.sep.join(name.split(os.sep)[-2:])
    return f"{name}:{frame.lineno}"


def held_after_one_pass(workload: str, seed: int, scale: float):
    """``(statistics by line, traced bytes, traced peak)`` at the end of
    one pass of ``workload``, its set-up included."""
    from gridbench import runner
    phase = runner.Phase(workload, seed, scale)
    tracemalloc.start()
    try:
        phase.setup()
        meter = phase.untimed_pass(0, phase.workload.rounds_per_pass)
        snapshot = tracemalloc.take_snapshot()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if meter.failed:
        raise SystemExit(f"mem_split: {meter.failed} failed ops: "
                         f"{meter.errors}")
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)])
    return snapshot.statistics("lineno"), current, peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 size, as gridbench --smoke")
    parser.add_argument("--top", type=int, default=25,
                        help="allocation sites to print (default 25)")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":    # as gridbench pins it
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, ROOT)
    import gridbench
    gridbench.use_repo_sources()
    stats, current, peak = held_after_one_pass(
        args.workload, args.seed, 0.05 if args.smoke else 1.0)
    print(f"{args.workload} seed {args.seed}: {current / 2**20:,.2f} MiB "
          f"traced at the end of one pass (peak {peak / 2**20:,.2f} MiB), "
          f"{len(stats):,} allocation sites")
    print(f"\n{'MiB':>9} {'share':>6} {'blocks':>10}  site")
    for stat in stats[:args.top]:
        print(f"{stat.size / 2**20:9.2f} {stat.size / current:6.1%} "
              f"{stat.count:10,}  {site_of(stat.traceback[0])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
