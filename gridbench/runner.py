"""Runs one workload and turns its samples into the declared metrics.

An untraced run (``trace=False``) yields the end-to-end metrics.  A
traced run (``trace=True``) first measures untraced for half the time —
the timing metrics, per-op latencies and the program's own counters —
then installs the span wrappers, rebuilds the grid and measures the
per-layer budget; the ratio of the two throughputs is the tracing
overhead.

What repeats exactly is taken over a fixed piece of work, so that it
does not depend on how many passes the time budget allowed: everything
on the virtual clock and every byte and call count over the *first
pass*, and the Python function calls per client call over one extra
*profiled pass* run right after the warm-up.

What is timed is the process's own CPU time around each client call,
sampled per pass: a rate is the best pass's, a latency the lowest
per-pass median, set-up time the quickest set-up.  On a shared box
interference only ever slows a sample down, so the best one says most
about the program (README, "Clocks, estimators and bounds").
"""

from __future__ import annotations

import cProfile
import collections
import gc
import hashlib
import math
import os
import resource
import statistics
from time import perf_counter, thread_time
from typing import Any, Dict, List, Optional

from gridbench import ROOT, load_spec, tracing
from gridbench.measure import Meter, Stats, percentile, quartile_spread
from gridbench.workloads import OP_KINDS, WORKLOADS, Workload

OUTPUT_DIR = os.path.join(ROOT, "gridbench", "output")
WARMUP_PASS, PROFILED_PASS = -1, -2     # pass numbers that seed inputs
# the traced phase and the profiled pass run this share of a pass's rounds
SAMPLED_SHARE = 0.25


class Phase:
    """One measured stretch of a workload: set-up, warm-up, timed passes."""

    def __init__(self, name: str, seed: int, scale: float,
                 recorder: Optional[tracing.Recorder] = None):
        self.workload: Workload = WORKLOADS[name](seed, scale)
        self.meter = Meter(recorder)
        self.recorder = recorder
        self.workload.on_build = self.on_build
        self.sampled_rounds = max(1, math.ceil(
            self.workload.rounds_per_pass * SAMPLED_SHARE))
        self.rounds_per_pass = self.workload.rounds_per_pass \
            if recorder is None else self.sampled_rounds
        # set-ups are timed in full-size untraced phases only
        self.setups = self.workload.setups \
            if scale >= 1.0 and recorder is None else 1
        self.setup_s: List[float] = []
        self.passes: List[List[Stats]] = []      # per pass, its rounds
        self.py_calls_per_op = 0.0
        self.first_pass_counters: Dict[str, float] = {}
        self.first_pass_layers: Dict[str, tuple] = {}
        # smoke runs fingerprint the first pass's inputs, so the
        # determinism check can tell "same inputs" from "same counts"
        self.input_digest = ""
        if scale < 1.0 and recorder is None:
            self.meter.digest = hashlib.sha256()

    def on_build(self, fed: Any) -> None:
        self.meter.attach(fed)
        if self.recorder is not None:
            self.recorder.attach(fed)

    def setup(self) -> None:
        # the previous grid goes first: freeing it is not set-up work
        self.workload.grid = None
        gc.collect()
        t0 = thread_time()
        self.workload.setup()
        self.setup_s.append(thread_time() - t0)

    def untimed_pass(self, pass_no: int, rounds: int,
                     profiler: Optional[cProfile.Profile] = None) -> Meter:
        """Run ``rounds`` rounds whose samples stay out of the timings."""
        w = self.workload
        meter = Meter(self.recorder)
        meter.attach(w.grid.fed)
        meter.profiler = profiler
        for round_no in range(rounds):
            w.round(meter, pass_no, round_no)
        w.audit(meter)
        self.meter.failed += meter.failed
        self.meter.errors = (self.meter.errors + meter.errors)[:5]
        return meter

    def run(self, seconds: float) -> None:
        w, meter = self.workload, self.meter
        self.setup()
        # warm-up: one untimed round, so imports, lazy set-up and the
        # allocator's first growth stay out of the samples
        if self.recorder is not None:
            self.recorder.keep = False
        self.untimed_pass(WARMUP_PASS, 1)
        # count the Python-level calls of a fixed piece of work, always
        # from the same state: a fresh or just-warmed grid.  The traced
        # phase runs it too (uncounted), so that both phases enter their
        # first pass from the same state
        if w.fresh_per_pass:
            self.setup()
        profiler = cProfile.Profile() if self.recorder is None else None
        profiled = self.untimed_pass(PROFILED_PASS, self.sampled_rounds,
                                     profiler)
        if profiler is not None:
            self.py_calls_per_op = sum(
                entry.callcount for entry in profiler.getstats()
            ) / profiled.calls
        else:
            for total in self.recorder.totals.values():
                total[:] = [0.0, 0, 0.0]
            self.recorder.keep = True

        start = perf_counter()
        while not self.passes or perf_counter() - start < seconds:
            pass_no = len(self.passes)
            # set-ups are spread over the run, like the passes, so that
            # the quickest one has the same chance of a quiet moment
            due = (perf_counter() - start) * self.setups / seconds
            if w.fresh_per_pass or len(self.setup_s) < min(self.setups,
                                                           1 + int(due)):
                self.setup()
            before = w.grid.fed.obs.metrics.snapshot() if pass_no == 0 else {}
            rounds = []
            for round_no in range(self.rounds_per_pass):
                gc.collect()
                mark = meter.mark()
                w.round(meter, pass_no, round_no)
                rounds.append(meter.since(mark))
            self.passes.append(rounds)
            if pass_no == 0:
                self.first_pass_counters = \
                    w.grid.fed.obs.metrics.delta(before)
                if meter.digest is not None:
                    self.input_digest = meter.digest.hexdigest()
                    meter.digest = None
                if self.recorder is not None:
                    self.first_pass_layers = self.recorder.snapshot()
                    self.recorder.keep = False
            w.audit(meter)

    # -- sample read-out ----------------------------------------------------

    def rates(self, what: str = "calls", head: Optional[int] = None,
              clock: str = "cpu_s") -> List[float]:
        """Per pass: ``what`` delivered per second of client calls (over
        the pass's first ``head`` rounds only, if given)."""
        return [sum(getattr(r, what) for r in rounds[:head])
                / math.fsum(getattr(r, clock) for r in rounds[:head])
                for rounds in self.passes]

    def median_latencies(self) -> List[float]:
        """Per pass: the median CPU time of one client call."""
        cpu = self.meter.cpu
        return [statistics.median(
            cpu[rounds[0].first:rounds[-1].first + rounds[-1].calls])
            for rounds in self.passes]

    def first_pass_calls(self) -> int:
        return sum(r.calls for r in self.passes[0])

    def first_pass_slice(self, samples: list) -> list:
        lo = self.passes[0][0].first
        return samples[lo:lo + self.first_pass_calls()]

    def counter(self, name: str) -> float:
        """Sum of one of the program's counters over the first pass."""
        return sum(v for k, v in self.first_pass_counters.items()
                   if k == name or k.startswith(name + "{"))

    def wan_bytes(self) -> float:
        """``net.bytes`` between different hosts, over the first pass."""
        total = 0.0
        for key, value in self.first_pass_counters.items():
            if key.startswith("net.bytes{"):
                labels = dict(part.split("=", 1)
                              for part in key[10:-1].split(","))
                if labels["src"] != labels["dst"]:
                    total += value
        return total


def end_to_end(phase: Phase) -> Dict[str, float]:
    calls = phase.first_pass_calls()
    virt = phase.first_pass_slice(phase.meter.virt)
    return {
        "py_calls_per_op": phase.py_calls_per_op,
        "virt_s_per_op": math.fsum(virt) / calls,
        "virt_p99_s": percentile(virt, 99),
        "wan_bytes_per_op": phase.wan_bytes() / calls,
        "setup_s": min(phase.setup_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timing(phase: Phase) -> Dict[str, float]:
    return {
        "ops_per_s": max(phase.rates("calls")),
        "items_per_s": max(phase.rates("items")),
        "op_p50_us": min(phase.median_latencies()) * 1e6,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: Phase, traced: Phase) -> Dict[str, float]:
    """The per-layer metrics: timing, counters and per-op latencies from
    the untraced phase, the layer budget from the traced one."""
    out = timing(plain)
    rec = traced.recorder
    traced_calls = traced.meter.calls
    first_calls = traced.first_pass_calls()
    wall_total = math.fsum(t[0] for t in rec.totals.values())
    for layer in tracing.LAYERS:
        wall, _spans, _virt = rec.totals[layer]
        _wall, spans, virt = traced.first_pass_layers[layer]
        out[f"{layer}.self_us_per_op"] = wall / traced_calls * 1e6
        out[f"{layer}.calls_per_op"] = spans / first_calls
        out[f"{layer}.virt_self_s_per_op"] = virt / first_calls
    out["obs.self_share"] = ratio(rec.totals["obs"][0], wall_total)

    by_kind: Dict[str, List[float]] = {k: [] for k in OP_KINDS}
    for kind, cpu in zip(plain.meter.kinds, plain.meter.cpu):
        by_kind[kind].append(cpu)
    for kind, times in by_kind.items():
        out[f"client.{kind}.p50_us"] = \
            statistics.median(times) * 1e6 if times else 0.0
        out[f"client.{kind}.p99_us"] = \
            percentile(times, 99) * 1e6 if times else 0.0

    first_pass = plain.passes[0]
    calls = plain.first_pass_calls()
    user_bytes = sum(r.user_bytes for r in first_pass)
    c = plain.counter
    out["wire.bytes_sized_per_op"] = \
        (c("rpc.request_bytes") + c("rpc.response_bytes")) / calls
    out["simnet.msgs_per_op"] = c("net.messages") / calls
    out["simnet.wan_bytes_per_user_byte"] = \
        ratio(plain.wan_bytes(), user_bytes)
    out["mcat.rows_scanned_per_result"] = ratio(
        c("mcat.query_rows_scanned"), c("mcat.query_rows_matched"))
    out["mcat.load_slowdown"] = \
        (first_pass[-1].items / first_pass[-1].cpu_s) \
        / (first_pass[0].items / first_pass[0].cpu_s)
    out["storage.bytes_copied_per_user_byte"] = ratio(
        c("storage.bytes_read") + c("storage.bytes_written"), user_bytes)
    out["storage.cache_hit_ratio"] = ratio(
        c("storage.cache_hits"),
        c("storage.cache_hits") + c("storage.cache_misses"))
    out["storage.stages_per_op"] = c("storage.stages") / calls
    out["policy.decisions_per_op"] = c("policy.decisions") / calls
    # like with like: the untraced rate over the rounds of a pass that
    # the traced phase also ran
    out["trace.overhead_ratio"] = \
        max(plain.rates(head=traced.rounds_per_pass)) / max(traced.rates())
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> Dict[str, Any]:
    """Measure one workload; returns the driver's result object plus a
    ``details`` entry (timing, sample counts, spreads, consistency sums)."""
    spec = load_spec()
    plain = Phase(name, seed, scale)
    plain.run(seconds / 2 if trace else seconds)
    details: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale,
        "item": plain.workload.item,
        "passes": len(plain.passes), "timed_calls": plain.meter.calls,
        "first_pass_calls": plain.first_pass_calls(),
        "setups": len(plain.setup_s),
        "op_counts": collections.Counter(
            plain.first_pass_slice(plain.meter.kinds)),
        "input_digest": plain.input_digest,
        "timing": timing(plain),
        # what the best pass is the best of, and the same rate on the
        # elapsed-time clock
        "median_ops_per_s": statistics.median(plain.rates()),
        "elapsed_ops_per_s": max(plain.rates(clock="wall_s")),
        "pass_spread": {
            "ops_per_s": quartile_spread(plain.rates()),
            "items_per_s": quartile_spread(plain.rates("items")),
            "op_p50_us": quartile_spread(plain.median_latencies())},
    }
    meters = [plain.meter]

    if not trace:
        values = end_to_end(plain)
        declared = spec["end_to_end"]
    else:
        recorder = tracing.Recorder()
        undo = tracing.install(recorder)
        try:
            traced = Phase(name, seed, scale, recorder)
            traced.run(seconds / 2)
        finally:
            tracing.uninstall(undo)
        values = per_layer(plain, traced)
        declared = spec["per_layer"]
        meters.append(traced.meter)
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUTPUT_DIR, f"trace-{name}.jsonl")
        first_calls = traced.first_pass_calls()
        details.update({
            "traced_passes": len(traced.passes),
            "traced_calls": traced.meter.calls,
            "trace_file": os.path.relpath(trace_path, ROOT),
            "spans_written": recorder.write_jsonl(trace_path),
            # the two sums the layer table must reproduce
            "traced_call_us_per_op":
                math.fsum(traced.meter.wall) / traced.meter.calls * 1e6,
            "traced_virt_s_per_op": math.fsum(
                traced.first_pass_slice(traced.meter.virt)) / first_calls,
            "untraced_virt_s_per_op": math.fsum(
                plain.first_pass_slice(plain.meter.virt))
                / plain.first_pass_calls(),
        })

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(
            "BENCHMARK.json and gridbench disagree on the metric set: "
            f"{sorted(set(names) ^ set(values))}")
    units = {m["name"]: m["unit"] for m in declared}
    failed = sum(m.failed for m in meters)
    details["errors"] = [e for m in meters for e in m.errors][:5]
    return {
        "correct": failed == 0,
        "attempted": sum(m.calls + m.checks for m in meters),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in names},
        "details": details,
    }
