#!/usr/bin/env python3
"""Where one gridbench workload's Python-level calls go, by function and by layer.

Runs the workload's *profiled pass* — the fixed piece of work gridbench
counts ``py_calls_per_op`` over — under ``cProfile`` and prints calls per
client call: the top functions, and every call folded into the layer its
code lives in.  A built-in (``isinstance``, ``len``, ``set.add``) has no
file, so it is charged to the layer of the function that called it, from
cProfile's sub-call entries.  The total equals gridbench's
``py_calls_per_op`` for the same workload and seed.

Usage: python3 tools/layer_profile.py --workload catalog_load
           [--seed N] [--smoke] [--top N] [--json]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: files that are a layer of their own; any other file under src/repro/
#: folds into its first package (db, mcat, obs, storage, auth, ...)
FILE_LAYERS = {"net/wire.py": "wire", "net/rpc.py": "rpc",
               "net/simnet.py": "simnet", "core/dispatch.py": "dispatch",
               "core/server.py": "dispatch", "core/client.py": "client",
               "util/paths.py": "paths"}


def layer_of(filename: str) -> str:
    marker = os.sep + os.path.join("src", "repro") + os.sep
    if marker not in filename:
        return "gridbench" if os.sep + "gridbench" + os.sep in filename \
            else "stdlib"
    rel = filename.split(marker, 1)[1].replace(os.sep, "/")
    if rel.startswith("core/planes/"):
        return "planes"
    return FILE_LAYERS.get(rel, rel.split("/", 1)[0])


def label_of(code) -> str:
    if isinstance(code, str):                 # a built-in: "<built-in ...>"
        return code
    name = code.co_filename
    name = os.path.relpath(name, ROOT) if name.startswith(ROOT + os.sep) \
        else os.sep.join(name.split(os.sep)[-2:])      # stdlib: html/parser.py
    return f"{name}:{code.co_firstlineno}({code.co_name})"


def profile(workload: str, seed: int, scale: float):
    """``(cProfile stats, client calls)`` of the workload's profiled pass,
    entered from the same state gridbench enters it from."""
    from gridbench import runner
    phase = runner.Phase(workload, seed, scale)
    phase.setup()
    phase.untimed_pass(runner.WARMUP_PASS, 1)
    if phase.workload.fresh_per_pass:
        phase.setup()
    profiler = cProfile.Profile()
    meter = phase.untimed_pass(runner.PROFILED_PASS, phase.sampled_rounds,
                               profiler)
    if meter.failed:
        raise SystemExit(f"layer_profile: {meter.failed} failed ops: "
                         f"{meter.errors}")
    return profiler.getstats(), meter.calls


def fold(stats, ops: int):
    """Calls per op by function, and by layer with built-ins attributed
    to their caller's layer."""
    functions, layers = Counter(), Counter()
    for entry in stats:
        functions[label_of(entry.code)] += entry.callcount / ops
        if isinstance(entry.code, str):
            layers["unattributed"] += entry.callcount / ops
            continue
        layer = layer_of(entry.code.co_filename)
        layers[layer] += entry.callcount / ops
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                layers[layer] += sub.callcount / ops
                layers["unattributed"] -= sub.callcount / ops
    return functions, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 size, as gridbench --smoke")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print (default 25)")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":    # as gridbench pins it
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, ROOT)
    import gridbench
    gridbench.use_repo_sources()
    stats, ops = profile(args.workload, args.seed,
                         0.05 if args.smoke else 1.0)
    functions, layers = fold(stats, ops)
    report = {"workload": args.workload, "seed": args.seed, "ops": ops,
              "py_calls_per_op": sum(functions.values()),
              "layer": dict(layers.most_common()),
              "function": dict(functions.most_common(args.top))}
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"{args.workload} seed {args.seed}: {ops} client calls, "
          f"{report['py_calls_per_op']:,.1f} Python-level calls per call")
    for title in ("layer", "function"):
        print(f"\n{'calls/op':>12}  {title}")
        for name, calls in report[title].items():
            if round(calls, 1):
                print(f"{calls:12,.1f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
