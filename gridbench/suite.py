"""Driver mode (one workload, in this process) and suite mode (every
workload, each in a subprocess running driver mode)."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

from gridbench import ROOT, load_spec, tracing
from gridbench.measure import quartile_spread
from gridbench.runner import OUTPUT_DIR, run_workload

SMOKE_SECONDS = 0.3
DETAILS_PREFIX = "details: "


def run_one(name: str, seed: int, seconds: Optional[float], trace: bool,
            scale: float) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if name not in known:
        print(f"unknown workload {name!r}; choose from {known}",
              file=sys.stderr)
        return 2
    if seconds is None:
        seconds = SMOKE_SECONDS if scale < 1.0 else spec["run_seconds"]
    result = run_workload(name, seed, seconds, trace, scale)
    details = result.pop("details")
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    for message in details["errors"]:
        print(f"{name} FAILED {message}")
    print(DETAILS_PREFIX + json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# suite mode
# ---------------------------------------------------------------------------

def run_child(name: str, seed: int, seconds: Optional[float], trace: bool,
              scale: float) -> Dict[str, Any]:
    """One driver-mode run in its own process; returns its result object
    with the ``details`` line folded back in."""
    command = [sys.executable, "-m", "gridbench", "--workload", name,
               "--seed", str(seed), "--trace", "1" if trace else "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if scale < 1.0:
        command.append("--smoke")
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"),
                          timeout=600)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode} "
                           f"without a result:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["details"] = next(
        (json.loads(line[len(DETAILS_PREFIX):]) for line in lines
         if line.startswith(DETAILS_PREFIX)), {})
    return result


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Median and run-to-run quartile spread of every end-to-end metric
    and of the timing metrics each run carries in its details."""
    values = {n: [r["metrics"][n]["value"] for r in runs]
              for n in runs[0]["metrics"]}
    values.update({n: [r["details"]["timing"][n] for r in runs]
                   for n in runs[0]["details"]["timing"]})
    return {
        "median": {n: statistics.median(v) for n, v in values.items()},
        "run_spread": {n: quartile_spread(v) for n, v in values.items()},
        # within one run, from pass to pass (timing metrics only)
        "pass_spread": {
            n: max(r["details"]["pass_spread"][n] for r in runs)
            for n in runs[0]["details"]["pass_spread"]},
        "runs": runs,
    }


def print_end_to_end(name: str, summary: Dict[str, Any],
                     spec: Dict[str, Any]) -> None:
    details = summary["runs"][0]["details"]
    print(f"\n== {name}: {len(summary['runs'])} run(s), "
          f"{details['passes']} passes, {details['timed_calls']} timed "
          f"calls, item = {details['item']}")
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    for n in summary["median"]:
        extra = ""
        if len(summary["runs"]) > 1:
            extra = f"   run spread {summary['run_spread'][n]:.2%}"
        elif n in summary["pass_spread"]:
            extra = f"   pass spread {summary['pass_spread'][n]:.2%}"
        print(f"  {n:<18} {summary['median'][n]:>14.6g} "
              f"{units[n]:<8}{extra}")
    failed = sum(r["failed"] for r in summary["runs"])
    attempted = sum(r["attempted"] for r in summary["runs"])
    print(f"  {'failed_ratio':<18} {failed / attempted:>14.6g} "
          f"({failed} of {attempted})")


def print_layers(name: str, result: Dict[str, Any]) -> None:
    m = {k: v["value"] for k, v in result["metrics"].items()}
    d = result["details"]
    print(f"\n-- {name}: per-layer budget over {d['traced_calls']} traced "
          f"calls ({d['spans_written']} spans in {d['trace_file']})")
    print(f"  {'layer':<10}{'self us/op':>12}{'share':>8}"
          f"{'calls/op':>10}{'virt self s/op':>18}")
    wall = sum(m[f"{l}.self_us_per_op"] for l in tracing.LAYERS)
    virt = sum(m[f"{l}.virt_self_s_per_op"] for l in tracing.LAYERS)
    for layer in tracing.LAYERS:
        self_us = m[f"{layer}.self_us_per_op"]
        print(f"  {layer:<10}{self_us:>12.2f}{self_us / wall:>8.1%}"
              f"{m[f'{layer}.calls_per_op']:>10.2f}"
              f"{m[f'{layer}.virt_self_s_per_op']:>18.9f}")
    print(f"  {'sum':<10}{wall:>12.2f}{'':>8}{'':>10}{virt:>18.9f}")
    print(f"  traced client-call time {d['traced_call_us_per_op']:.2f} us/op "
          f"(layers cover {wall / d['traced_call_us_per_op']:.1%}); "
          f"virtual {d['traced_virt_s_per_op']:.9f} s/op; "
          f"trace.overhead_ratio {m['trace.overhead_ratio']:.2f}")
    in_table = {f"{layer}.{column}" for layer in tracing.LAYERS for column
                in ("self_us_per_op", "calls_per_op", "virt_self_s_per_op")}
    for key, value in m.items():
        if key not in in_table and value:
            print(f"  {key:<36}{value:>14.6g} "
                  f"{result['metrics'][key]['unit']}")


def run_all(seed: int, seconds: Optional[float], trace: bool, scale: float,
            runs: int, out: Optional[str]) -> int:
    spec = load_spec()
    results: Dict[str, Any] = {
        "seed": seed, "scale": scale, "seconds": seconds,
        "workloads": {}, "traced": {}}
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        summary = summarise([run_child(name, seed, seconds, False, scale)
                             for _ in range(runs)])
        results["workloads"][name] = summary
        print_end_to_end(name, summary, spec)
        ok = ok and all(r["correct"] for r in summary["runs"])
        if trace:
            traced = run_child(name, seed, seconds, True, scale)
            results["traced"][name] = traced
            print_layers(name, traced)
            ok = ok and traced["correct"]
    path = out or os.path.join(OUTPUT_DIR, "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"\nresults written to {os.path.relpath(path)}"
          + ("" if ok else "; SOME OPERATIONS FAILED"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# determinism self-check
# ---------------------------------------------------------------------------

EXACT_END_TO_END = ("py_calls_per_op", "virt_s_per_op", "virt_p99_s",
                    "wan_bytes_per_op")
# per-layer metrics that come off a real clock; every other one is a
# count, a byte total or virtual time
TIMED_PER_LAYER = ("_per_s", "_us", ".self_us_per_op", ".load_slowdown",
                   ".self_share", ".overhead_ratio")


def exact_view(plain: Dict[str, Any], traced: Dict[str, Any]
               ) -> Dict[str, Any]:
    """Everything two runs with one seed must agree on bit for bit."""
    view = {n: plain["metrics"][n]["value"] for n in EXACT_END_TO_END}
    view["op_counts"] = plain["details"]["op_counts"]
    for key, entry in traced["metrics"].items():
        if not key.endswith(TIMED_PER_LAYER):
            view[key] = entry["value"]
    return view


def check_determinism(seed: int) -> int:
    spec = load_spec()
    bad = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        views, digests = [], []
        for s in (seed, seed, seed + 1):
            plain = run_child(name, s, None, False, 0.05)
            traced = run_child(name, s, None, True, 0.05)
            views.append(exact_view(plain, traced))
            digests.append(plain["details"]["input_digest"])
        same = views[0] == views[1] and digests[0] == digests[1]
        other = (digests[2] != digests[0]
                 and views[2]["op_counts"] == views[0]["op_counts"])
        print(f"{name:<14} same seed: "
              f"{'identical' if same else 'DIFFERENT'} "
              f"({len(views[0])} exact values); other seed: "
              f"{'new inputs, same op counts' if other else 'WRONG'}")
        if not same:
            for key in views[0]:
                if views[0][key] != views[1][key]:
                    print(f"    {key}: {views[0][key]!r} vs "
                          f"{views[1][key]!r}")
        bad += (not same) + (not other)
    return 1 if bad else 0
