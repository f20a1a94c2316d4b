"""``tools/layer_profile.py --by-call`` cannot pass by looking away.

CI runs it on ``catalog_query`` to catch a catalog method charged once
per result row.  It finds the methods by reading, off the profile, whose
``with`` block entered the catalog's charge — so if the catalog ever
charges some other way, the tool must fail instead of tallying nothing
and exiting 0 (which is what it did when it looked for callers of a
``Mcat._charged`` that blocks had stopped calling).
"""

import cProfile
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from repro.mcat import Condition
from repro.workload import standard_grid

ROOT = pathlib.Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "layer_profile.py"


def test_every_charged_op_of_a_query_is_attributed_to_a_method():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "catalog_query",
         "--smoke", "--by-call", "--json"],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    kinds = json.loads(proc.stdout)["by_call"]
    assert sum(row["mcat_ops"] for row in kinds.values()) > 0
    for kind, row in kinds.items():
        assert row["mcat_ops"] > 0, kind
        assert sum(row["charged"].values()) == row["mcat_ops"], kind
        assert row["unattributed"] == 0, kind


def load_tool():
    spec = importlib.util.spec_from_file_location("layer_profile", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_ops_nobody_was_charged_for_fail_the_check():
    tool = load_tool()
    clean = {"calls": 3, "rows_out": 136, "mcat_ops": 18,
             "charged": {"get_objects_by_ids": 9, "_candidates": 9},
             "per_row": {}, "unattributed": 0}
    assert not tool.by_call_failed({"query": clean})
    # mcat.ops moved, no method found: the tally looked at nothing
    blind = dict(clean, charged={}, unattributed=18)
    assert tool.by_call_failed({"query": clean, "ls_page": blind})
    per_row = dict(clean, per_row={"get_object_by_id": 136})
    assert tool.by_call_failed({"query": per_row})


def test_callers_shows_a_stream_as_n_exchanges_and_n_plus_one_legs():
    """What CI's ``--callers _exchange _leg`` step prints, on a drain of
    more than one chunk (a smoke-size stream is a single chunk): one
    exchange per chunk, made by ``call_stream``; one wire leg per chunk
    and one for the request that opened the stream."""
    tool = load_tool()
    grid = standard_grid()
    client, home = grid.curator, grid.home
    client.bulk_ingest([{"path": f"{home}/s-{i:03d}.fits", "data": b"x",
                         "metadata": {"RA": f"{i}.5"}} for i in range(90)])
    profiler = cProfile.Profile()
    profiler.enable()
    rows = list(client.iter_query(home, [Condition("RA", ">=", "0")],
                                  page_size=20))
    profiler.disable()
    assert len(rows) == 90
    def name(label):            # "src/repro/net/rpc.py:234(_exchange)"
        return label.rsplit("(", 1)[1].rstrip(")")

    edges = {(name(caller), name(callee)): calls
             for (caller, callee), calls in tool.callers(
                 profiler.getstats(), 1, ["_exchange", "_leg"]).items()}
    assert edges == {("call_stream", "_exchange"): 5, ("transfer", "_leg"): 6}
