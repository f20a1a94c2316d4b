"""Per-call budget: how many Python-level calls one small op may cost.

The fixed interpreter cost of a small op is the grid's throughput, and it
is spent in bookkeeping (wire sizing, metric keys, catalog charging, path
validation, argument binding) long before any byte moves.  gridbench
gates that cost as ``py_calls_per_op``; this guard catches a per-call
regression in tier-1, in well under a second, without running it.

Each budget is about 15 % above the count measured on CPython 3.11 when
it was pinned (776, 501, 379 and 464; the commit before made 1783, 1133,
1288 and 1099).  The counts do not depend on the hash seed.  A change
that needs more should show in EXPERIMENTS.md what the calls buy.
"""

import cProfile

import pytest

from repro.workload import standard_grid

PAYLOAD = b"\x5a" * 4096

#: op -> most Python-level calls (functions and builtins) one call may make
BUDGET = {"ingest": 890, "get": 575, "stat": 435, "add_metadata": 535}


@pytest.fixture(scope="module")
def measured():
    grid = standard_grid()
    client, home = grid.curator, grid.home

    def ops(path):
        return {
            "ingest": lambda: client.ingest(path, PAYLOAD),
            "get": lambda: client.get(path),
            "stat": lambda: client.stat(path),
            "add_metadata": lambda: client.add_metadata(path, "band", "J"),
        }

    for op in ops(f"{home}/warm.dat").values():     # lazy set-up, memos
        op()
    counts = {}
    for name, op in ops(f"{home}/counted.dat").items():
        profiler = cProfile.Profile()
        profiler.enable()
        op()
        profiler.disable()
        # the profiler's own disable() is the one call not the op's
        counts[name] = sum(e.callcount for e in profiler.getstats()) - 1
    return counts


@pytest.mark.parametrize("op", sorted(BUDGET))
def test_one_small_op_stays_within_its_call_budget(measured, op):
    assert measured[op] <= BUDGET[op], (
        f"one client.{op} made {measured[op]} Python-level calls; "
        f"the budget is {BUDGET[op]}")
