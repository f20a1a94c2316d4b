"""Command line of gridbench.

Driver mode (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 -m gridbench --workload W --seed N --seconds S --trace 0|1

prints the result object as the last line of standard output.  Without
``--workload`` every workload runs, each in its own subprocess in driver
mode, and a table is printed; see ``--help`` for the other modes.
"""

from __future__ import annotations

import argparse
import os
import sys

import gridbench

DEFAULT_SEED = 2002


def reexec_with_fixed_hashing() -> None:
    """String hashing is salted per process; pin it so set and dict
    iteration order — and with it every virtual-clock number — is a
    function of ``--seed`` alone."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, "-m", "gridbench"] + sys.argv[1:])


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python3 -m gridbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload and "
                        "print its result object as the last line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1), help="report the per-layer metrics "
                        "(and write gridbench/output/trace-*.jsonl)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about 1/20 size; wall "
                        "metrics are printed but mean little")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite mode: repeat each workload this often")
    parser.add_argument("--out", help="suite mode: where to write the "
                        "results (default gridbench/output/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge results B against results A with the "
                        "bounds of BENCHMARK.json")
    parser.add_argument("--check-determinism", action="store_true",
                        help="two smoke runs with one seed must agree "
                        "exactly on every virtual-clock number and count")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        from gridbench.compare import compare_files
        return compare_files(*args.compare)
    reexec_with_fixed_hashing()
    gridbench.use_repo_sources()
    from gridbench import suite
    if args.check_determinism:
        return suite.check_determinism(args.seed)
    scale = 0.05 if args.smoke else 1.0
    if args.workload:
        return suite.run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace), scale)
    return suite.run_all(args.seed, args.seconds, bool(args.trace), scale,
                         args.runs, args.out)


if __name__ == "__main__":
    sys.exit(main())
