"""``python3 -m gridbench --compare A.json B.json``

Judges results B against results A (both written by suite mode), one row
per workload and metric: the end-to-end metrics with the bounds of
``BENCHMARK.json``, and the timing metrics (declared per-layer, so
unbounded there) with :data:`TIMING_BOUND`:

* ``ok``          B's median is within the bound of A's;
* ``improved``    better than A by more than the bound;
* ``REGRESSED``   worse than A by more than the bound;
* ``unresolved``  the spread is wider than the bound, so neither of the
                  above can be said — the run-to-run quartile spread when
                  a side has three runs or more, else the pass-to-pass
                  spread recorded inside its single run.

Call counts, virtual seconds and byte counts are outputs of the program
and its cost model, not measurements: with equal seeds they must be
*identical* (1e-9 relative), whatever bound the driver tolerates across
seeds.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from gridbench import load_spec

EXACT_UNITS = ("count", "virt_s", "bytes")
EXACT_TOLERANCE = 1e-9
#: allowed worsening of ops_per_s, items_per_s and op_p50_us (ISSUE 11)
TIMING_BOUND = 0.10
TIMING = ("ops_per_s", "items_per_s", "op_p50_us")


def spread_of(summary: Dict[str, Any], metric: str) -> float:
    if len(summary["runs"]) >= 3:
        return summary["run_spread"][metric]
    return summary["pass_spread"].get(metric, 0.0)


def judge(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any],
          same_inputs: bool) -> Dict[str, Any]:
    name = metric["name"]
    before, after = a["median"][name], b["median"][name]
    change = (after - before) / before if before else 0.0
    worse = change if metric["better"] == "lower" else -change
    exact = same_inputs and metric["unit"] in EXACT_UNITS
    bound = EXACT_TOLERANCE if exact else metric["bound"]
    spread = 0.0 if exact else max(spread_of(a, name), spread_of(b, name))
    if spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSED"
    elif worse < -bound:
        verdict = "improved"
    else:
        verdict = "identical" if exact else "ok"
    return {"before": before, "after": after, "change": change,
            "bound": bound, "spread": spread, "verdict": verdict}


def compare_files(path_a: str, path_b: str) -> int:
    spec = load_spec()
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    print(f"A = {path_a} (seed {a['seed']}), B = {path_b} "
          f"(seed {b['seed']}); change = (B - A) / A")
    print(f"{'workload':<14} {'metric':<17} {'A':>12} {'B':>12} "
          f"{'change':>9} {'bound':>7} {'spread':>7}  verdict")
    regressed = 0
    for workload in spec["workloads"]:
        w = workload["name"]
        if w not in a["workloads"] or w not in b["workloads"]:
            print(f"{w:<14} missing from one side")
            regressed += 1
            continue
        timing = [dict(m, bound=TIMING_BOUND) for m in spec["per_layer"]
                  if m["name"] in TIMING]
        for metric in spec["end_to_end"] + timing:
            row = judge(metric, a["workloads"][w], b["workloads"][w],
                        same_inputs)
            regressed += row["verdict"] == "REGRESSED"
            print(f"{w:<14} {metric['name']:<17} {row['before']:>12.6g} "
                  f"{row['after']:>12.6g} {row['change']:>+9.2%} "
                  f"{row['bound']:>7.1%} {row['spread']:>7.1%}  "
                  f"{row['verdict']}")
    return 1 if regressed else 0
