#!/usr/bin/env python3
"""Where one gridbench workload's Python-level calls go, by function and by layer.

Runs the workload's *profiled pass* — the fixed piece of work gridbench
counts ``py_calls_per_op`` over — under ``cProfile`` and prints calls per
client call: the top functions, and every call folded into the layer its
code lives in.  A built-in (``isinstance``, ``len``, ``set.add``) has no
file, so it is charged to the layer of the function that called it, from
cProfile's sub-call entries.  The total equals gridbench's
``py_calls_per_op`` for the same workload and seed.

``--by-call`` takes the same pass apart by kind of client call instead:
rows delivered, Python-level calls, virtual seconds, RPC exchanges per
call (message pairs, ``rpc.calls``: a batch is one, a server's call to
another server one more), charged catalog ops (``mcat.ops``), catalog
rows those ops touched, and which catalog methods
were charged at least once per delivered row — the N+1 pattern, a
catalog round trip per hit — among the kinds of call that deliver
``PER_ROW_FLOOR`` rows or more per call (a MySRB page delivers one, so
its once-per-page methods are not flagged).  It exits 1 if there is such
a method, which is how CI uses it — and also if the methods it found do
not account for every ``mcat.ops`` of a kind of call, because then the
check above looked at only some of them.

``--callers NAME...`` answers "who calls ``inc``": calls per client call
of every Python function with one of those names, by ``caller ->
callee``, from the same profile (the rows of one callee add up to its
line in the function table).

``--per-item`` names every function (a built-in too: each is a call
``py_calls_per_op`` counts) called once or more per item a bulk call
delivered (the ``bulk.items`` counter).  It profiles the pass at the
size asked and at twice that: the client calls are the same, only
their items double, so a function's extra calls over the extra items
is what each item costs it, and work done once per call cancels out.
It exits 1 if a function costs one call per item or more and is not in
:data:`PER_ITEM_ALLOWED`, or if an entry there no longer costs one call
per item, which is how CI uses it.

Usage: python3 tools/layer_profile.py --workload catalog_load
           [--seed N] [--smoke] [--top N] [--json] [--by-call]
           [--callers NAME...] [--per-item]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import re
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


def warmed_phase(workload: str, seed: int, scale: float):
    """The workload in the state gridbench enters its profiled pass from."""
    from gridbench import runner
    phase = runner.Phase(workload, seed, scale)
    phase.setup()
    phase.untimed_pass(runner.WARMUP_PASS, 1)
    if phase.workload.fresh_per_pass:
        phase.setup()
    return phase


def profile(workload: str, seed: int, scale: float):
    """``(cProfile stats, client calls)`` of the workload's profiled pass,
    entered from the same state gridbench enters it from."""
    from gridbench import runner
    phase = warmed_phase(workload, seed, scale)
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


def callers(stats, ops: int, names):
    """Calls per op of the functions called ``names``, keyed
    ``(caller, callee)`` labels, from cProfile's sub-call entries."""
    wanted = set(names)
    edges = Counter()
    for entry in stats:
        for sub in entry.calls or ():
            # Python-level callees only: a built-in has no co_name
            if getattr(sub.code, "co_name", None) in wanted:
                edges[label_of(entry.code), label_of(sub.code)] += \
                    sub.callcount / ops
    return edges


#: why the storage layer runs once per file
_ONE_CREATE_PER_FILE = ("a member's files land one driver create each; "
                        "a batch create on the drivers is open")
#: function (``path(name)``, no line number, or a built-in's label) ->
#: why it may run once per item of a bulk call.  The target is an empty
#: dict: a bulk call is one batch in every layer.
PER_ITEM_ALLOWED = {
    "src/repro/mcat/schema.py(numeric)":
        "value_num's one rule, which a query reads its value by too: one "
        "call per metadata triple",
    "src/repro/mcat/catalog.py(apply_structural)":
        "a collection's rules applied to one item's attributes, raising "
        "that item's error",
    **dict.fromkeys([
        "src/repro/storage/memfs.py(create)",
        "src/repro/storage/base.py(normalize_physical)",
        "src/repro/storage/memfs.py(_check_capacity)",
        "src/repro/storage/base.py(_charge_write)",
        "src/repro/storage/base.py(write_cost)",
        "src/repro/storage/base.py(_charge)",
        "src/repro/util/clock.py(advance)",
        "<built-in method builtins.len>"], _ONE_CREATE_PER_FILE),
}


def item_label(code) -> str:
    """:func:`label_of` without the line number, so an allowed function
    keeps its entry while the lines above it move."""
    return re.sub(r":\d+\(", "(", label_of(code))


def per_item(workload: str, seed: int, scale: float):
    """``(items, {function: calls per item})`` of every function the
    profiled pass calls once or more per bulk item, found from the pass
    at ``scale`` and at ``2 * scale`` (module docstring)."""
    from gridbench import runner
    counts, items = [], []
    for size in (scale, 2 * scale):
        phase = warmed_phase(workload, seed, size)
        metrics = phase.workload.grid.fed.obs.metrics
        before = metrics.total("bulk.items")
        profiler = cProfile.Profile()
        phase.untimed_pass(runner.PROFILED_PASS, phase.sampled_rounds,
                           profiler)
        items.append(metrics.total("bulk.items") - before)
        counts.append(Counter())
        for entry in profiler.getstats():
            counts[-1][item_label(entry.code)] += entry.callcount
    extra = items[1] - items[0]
    if extra <= 0:
        raise SystemExit(f"layer_profile: {workload} delivers no more bulk "
                         "items at twice the size")
    slopes = {name: (counts[1][name] - counts[0][name]) / extra
              for name in counts[1]}
    return items[0], {name: slope for name, slope in sorted(
        slopes.items(), key=lambda kv: -kv[1]) if slope >= 1}


#: a call must deliver this many rows, on average over its kind, before
#: "charged once per row" says anything: two ops for a one-row answer is
#: not a pattern, and a method charged once per call is charged once per
#: row whenever each call delivers one
PER_ROW_FLOOR = 10


def per_row(row):
    """The catalog methods a kind of call (a row of :func:`by_call`) was
    charged at least once per delivered row, with their counts."""
    if row["rows_out"] < PER_ROW_FLOOR * row["calls"]:
        return {}
    return {method: count for method, count in row["charged"].items()
            if count >= row["rows_out"]}


def by_call(workload: str, seed: int, scale: float):
    """The profiled pass again, one profiler per client call: per kind of
    call, what it delivered and what it cost the catalog.

    Which catalog method a charged op belongs to is read off the profile
    itself — a charged op is one ``with`` block entering the catalog's
    charge, and cProfile records whose block it was — so the pass runs
    unpatched and its call counts add up to the same total as
    ``profile``'s.  ``unattributed`` is the ``mcat.ops`` of a kind of
    call that no method was found for; anything but 0 means this reading
    of the profile no longer matches how the catalog charges.
    """
    from gridbench import runner
    from gridbench.measure import Meter
    from repro.mcat.catalog import _Charge
    entered = _Charge.__enter__.__code__
    phase = warmed_phase(workload, seed, scale)
    fed = phase.workload.grid.fed
    meter = Meter()
    meter.attach(fed)
    kinds = {}
    last = None                  # the row of the call being credited
    plain_call, plain_done = meter.call, meter.done

    def total(name):
        return fed.obs.metrics.total(name)

    def call(kind, fn, *args, **kwargs):
        nonlocal last
        last = row = kinds.setdefault(kind, {
            "calls": 0, "rows_out": 0, "py_calls": 0, "virt_s": 0.0,
            "exchanges": 0, "mcat_ops": 0, "rows_scanned": 0,
            "charged": Counter()})
        meter.profiler = cProfile.Profile()
        ops, scanned = total("mcat.ops"), total("mcat.rows_scanned")
        exchanges = fed.rpc.stats.calls
        result = plain_call(kind, fn, *args, **kwargs)
        row["calls"] += 1
        row["virt_s"] += meter.virt[-1]
        row["exchanges"] += fed.rpc.stats.calls - exchanges
        row["mcat_ops"] += int(total("mcat.ops") - ops)
        row["rows_scanned"] += int(total("mcat.rows_scanned") - scanned)
        for entry in meter.profiler.getstats():
            row["py_calls"] += entry.callcount
            for sub in entry.calls or ():
                if sub.code is entered:
                    row["charged"][entry.code.co_name] += sub.callcount
        return result

    def done(items=1, nbytes=0):
        last["rows_out"] += items
        plain_done(items, nbytes)

    meter.call, meter.done = call, done
    for round_no in range(phase.sampled_rounds):
        phase.workload.round(meter, runner.PROFILED_PASS, round_no)
    if meter.failed:
        raise SystemExit(f"layer_profile: {meter.failed} failed ops: "
                         f"{meter.errors}")
    for row in kinds.values():
        row["per_row"] = per_row(row)
        row["unattributed"] = row["mcat_ops"] - sum(row["charged"].values())
        row["charged"] = dict(row["charged"].most_common())
    return kinds


def by_call_failed(kinds) -> bool:
    """What ``--by-call`` exits 1 on: a catalog method charged once per
    delivered row, or ``mcat.ops`` that no method accounts for."""
    return any(row["per_row"] or row["unattributed"]
               for row in kinds.values())


def print_by_call(workload: str, seed: int, kinds) -> None:
    sums = {key: sum(row[key] for row in kinds.values())
            for key in ("calls", "rows_out", "py_calls", "virt_s", "exchanges",
                        "mcat_ops", "rows_scanned", "unattributed")}
    print(f"{workload} seed {seed}: {sums['calls']} client calls, "
          f"{sums['py_calls'] / sums['calls']:,.1f} Python-level calls and "
          f"{sums['virt_s'] / sums['calls']:.4f} virtual s per call\n")
    print(f"{'client call':<16}{'rows out':>9}{'Python calls':>14}"
          f"{'virtual s':>11}{'exch/call':>10}{'mcat.ops':>10}"
          f"{'rows scanned':>14}  charged once per row or more")
    for kind, row in list(kinds.items()) + [("total", dict(sums,
                                                          per_row={}))]:
        label = kind if kind == "total" else f"{kind} x{row['calls']}"
        flagged = ", ".join(f"{count} {method}" for method, count
                            in row["per_row"].items()) or "-"
        if row["unattributed"]:
            flagged += f"  ({row['unattributed']} mcat.ops unattributed)"
        print(f"{label:<16}{row['rows_out']:>9,}{row['py_calls']:>14,}"
              f"{row['virt_s']:>11.4f}{row['exchanges'] / row['calls']:>10.2f}"
              f"{row['mcat_ops']:>10,}{row['rows_scanned']:>14,}  {flagged}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 size, as gridbench --smoke")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print (default 25)")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--by-call", action="store_true",
                        help="per kind of client call: rows, calls, virtual "
                        "s, catalog ops; exit 1 on a per-row catalog op")
    parser.add_argument("--callers", nargs="+", metavar="NAME",
                        help="calls per op by caller -> callee for the "
                        "functions with these names (e.g. inc observe)")
    parser.add_argument("--per-item", action="store_true",
                        help="functions called once or more per item of "
                        "a bulk call; exit 1 on one not allowed")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":    # as gridbench pins it
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, ROOT)
    import gridbench
    gridbench.use_repo_sources()
    scale = 0.05 if args.smoke else 1.0
    if args.per_item:
        items, found = per_item(args.workload, args.seed, scale)
        if args.json:
            print(json.dumps({"workload": args.workload, "seed": args.seed,
                              "items": items, "per_item": found}, indent=1))
        else:
            print(f"{args.workload} seed {args.seed}: {items} bulk items; "
                  "functions called once or more per item")
            for name, slope in found.items():
                why = PER_ITEM_ALLOWED.get(name, "NOT ALLOWED")
                print(f"{slope:12,.2f}  {name}  -- {why}")
            if not found:
                print("        none")
            for name in sorted(set(PER_ITEM_ALLOWED) - set(found)):
                print(f"  stale allowance (under one call per item): {name}")
        # an allowance must name a cost that is still there, or it rots
        return 1 if set(found) ^ set(PER_ITEM_ALLOWED) else 0
    if args.by_call:
        kinds = by_call(args.workload, args.seed, scale)
        if args.json:
            print(json.dumps({"workload": args.workload, "seed": args.seed,
                              "by_call": kinds}, indent=1))
        else:
            print_by_call(args.workload, args.seed, kinds)
        return 1 if by_call_failed(kinds) else 0
    stats, ops = profile(args.workload, args.seed, scale)
    if args.callers:
        edges = callers(stats, ops, args.callers)
        if args.json:
            print(json.dumps({"workload": args.workload, "seed": args.seed,
                              "ops": ops, "callers": [
                                  {"caller": a, "callee": b, "calls": n}
                                  for (a, b), n in edges.most_common()]},
                             indent=1))
            return 0
        print(f"{args.workload} seed {args.seed}: {ops} client calls; "
              f"calls per call into {', '.join(args.callers)}")
        print(f"\n{'calls/op':>12}  caller -> callee")
        for (caller, callee), calls in edges.most_common():
            print(f"{calls:12,.2f}  {caller} -> {callee}")
        print(f"{sum(edges.values()):12,.2f}  total")
        return 0
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
