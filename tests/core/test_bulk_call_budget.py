"""Call budget of a bulk ingest: what one more item costs.

A ``bulk_ingest`` is one batch in every layer — the client, the wire,
the op plan, the paths, the catalog and its tables, the storage
drivers — so the Python-level calls it makes grow with its items only
by the C-level passes over them, not by a call per item.  Measured on
``standard_grid()`` from a warm grid, the calls of a 500-item call less
those of a 50-item call, over the 450 items between them, are what one
item costs: at most 40 (the bar it was set to).  It measured 96.0 per
item when every layer but the catalog's inserts still ran per object,
and 17.0 once the paths, the catalog, the tables, the wire and the
planes took a batch at a time: what is left is one driver create per
file, one numeric mirror per metadata triple and the structural rules
per item (``tools/layer_profile.py --per-item`` names each function,
and holds the list to the ones it allows).
"""

import cProfile
import gc

from repro.workload import standard_grid

PER_ITEM = 40


def calls_made_by(op) -> int:
    profiler = cProfile.Profile()
    gc.disable()        # a collection's callbacks are calls too
    try:
        profiler.enable()
        op()
        profiler.disable()
    finally:
        gc.enable()
    return sum(e.callcount for e in profiler.getstats())


def items(home, tag, n):
    return [{"path": f"{home}/{tag}-{i:04d}.fits", "data": b"\x5a" * 64,
             "data_type": "fits image",
             "metadata": {"RA": f"{i}.5", "DEC": f"-{i}.25", "JMAG": "9.75",
                          "NIGHT": "1999-04-01", "FIELD": str(i % 7)}}
            for i in range(n)]


def test_one_more_item_of_a_bulk_ingest_costs_at_most_its_budget():
    grid = standard_grid()
    client, home = grid.curator, grid.home
    client.bulk_ingest(items(home, "warm", 50))     # memos, sessions
    calls = {}
    for n in (50, 500):
        batch = items(home, f"n{n}", n)
        calls[n] = calls_made_by(lambda: client.bulk_ingest(batch))
    per_item = (calls[500] - calls[50]) / 450
    assert per_item <= PER_ITEM, (
        f"one more item of a bulk_ingest made {per_item:.1f} Python-level "
        f"calls; the budget is {PER_ITEM}")
