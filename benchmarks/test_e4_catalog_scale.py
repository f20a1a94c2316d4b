"""E4 — attribute-based discovery at catalog scale.

Paper claim (Section 2):
  "any solution for the data grid should be scalable to handle millions
   of datasets" with discovery "based on their attributes rather than
   their names or physical locations".

Reproduced series: a conjunctive two-condition attribute query over
catalogs of 10^2..10^3.5 objects (each carrying 5 metadata triples),
under three access plans: the production *index-driven* plan (candidates
from the metadata attribute indexes), the *scope scan* (test every
object under the query scope: the plan a twin of the catalog without
the three probe indexes takes), and the no-index ablation.  Latency is
virtual-clock time charged per catalog row actually touched.

Expected shape: index-driven < scan at every size; scan grows ~linearly
with catalog size; unindexed grows ~quadratically (every object's
metadata fetch rescans the whole metadata table); answers are identical
across plans.  The curves separate decisively well before "millions".
"""

import pytest

from repro.bench import ResultTable
from repro.bench.harness import timed
from repro.mcat import Condition, Mcat, search
from repro.mcat.schema import drop_attribute_indexes, restore_attribute_indexes
from repro.util.clock import SimClock
from repro.workload import survey_files

from helpers import record_table, scan_twin

SIZES = (100, 400, 1600)
QUERY = [Condition("SURVEY", "=", "2MASS"), Condition("JMAG", "<", "6.0")]


def build_catalog(n: int) -> Mcat:
    mcat = Mcat(clock=SimClock())
    mcat.create_collection("/demozone/survey", "bench@sdsc", now=0.0)
    for f in survey_files(n):
        oid = mcat.create_object(f"/demozone/survey/{f.name}", "data",
                                 "bench@sdsc", now=0.0,
                                 data_type=f.data_type, size=len(f.content))
        for attr, value in f.attributes.items():
            mcat.add_metadata("object", oid, attr, value, by="bench@sdsc",
                              now=0.0)
    return mcat


def timed_query(mcat: Mcat, plan: str = "index"):
    """One search as a Measurement with the catalog's metrics delta; it
    asserts the plan the catalog took."""
    def go():
        result = search(mcat, "/demozone/survey", QUERY)
        assert len(result) > 0
    measured = timed(mcat.clock, go, metrics=mcat.obs.metrics)
    assert measured.metrics.get(f"mcat.queries{{plan={plan}}}") == 1
    return measured


def test_e4_scaling_with_and_without_indexes(benchmark):
    """Three plans: index-driven (production MCAT), scope scan with row
    indexes, and the no-index ablation."""
    table = ResultTable(
        "E4 catalog scaling: conjunctive attribute query",
        ["objects", "index-driven (s)", "idx rows", "scan (s)", "scan rows",
         "no indexes (s)", "worst/best"])
    driven, indexed, unindexed = [], [], []
    for n in SIZES:
        mcat = build_catalog(n)
        d = timed_query(mcat, "index")
        s = timed_query(scan_twin(mcat), "scan")
        driven.append(d.virtual_s)
        indexed.append(s.virtual_s)
        drop_attribute_indexes(mcat.db)
        unindexed.append(timed(mcat.clock, lambda: search(
            mcat, "/demozone/survey", QUERY)).virtual_s)
        restore_attribute_indexes(mcat.db)
        table.add_row([n, driven[-1],
                       int(d.metric("mcat.query_rows_scanned")),
                       indexed[-1],
                       int(s.metric("mcat.query_rows_scanned")),
                       unindexed[-1],
                       f"{unindexed[-1] / driven[-1]:.1f}x"])
        # the rows-scanned counters explain the latency gap: the index
        # plan touches strictly fewer catalog rows than the scope scan,
        # and both plans report identical match counts
        assert (d.metric("mcat.query_rows_scanned")
                < s.metric("mcat.query_rows_scanned"))
        assert (d.metric("mcat.query_rows_matched")
                == s.metric("mcat.query_rows_matched") > 0)
    record_table(benchmark, table)

    # growth over a 16x size increase:
    idx_growth = indexed[-1] / indexed[0]
    unidx_growth = unindexed[-1] / unindexed[0]
    assert idx_growth < 40              # ~linear-ish in catalog size
    assert unidx_growth > idx_growth * 3   # clearly super-linear
    assert unindexed[-1] > 5 * indexed[-1]
    # the production plan beats the scope scan at every size
    assert all(d < s for d, s in zip(driven, indexed))

    mcat = build_catalog(200)
    benchmark.pedantic(lambda: timed_query(mcat), rounds=3, iterations=1)


def test_e4_result_count_invariant(benchmark):
    """Indexes change cost, never answers."""
    mcat = build_catalog(400)
    with_idx = search(mcat, "/demozone/survey", QUERY)
    scanned = search(scan_twin(mcat), "/demozone/survey", QUERY)
    drop_attribute_indexes(mcat.db)
    without_idx = search(mcat, "/demozone/survey", QUERY)
    assert sorted(with_idx.rows) == sorted(without_idx.rows)
    assert sorted(with_idx.rows) == sorted(scanned.rows)

    restore_attribute_indexes(mcat.db)
    benchmark.pedantic(lambda: search(mcat, "/demozone/survey", QUERY),
                       rounds=3, iterations=1)


def test_e4_scope_narrowing(benchmark):
    """Querying a narrow sub-collection is cheaper than the whole tree —
    the paper's motivation for hierarchical scoping of queries."""
    mcat = Mcat(clock=SimClock())
    mcat.create_collection("/demozone/all", "b@s", now=0.0)
    for part in ("north", "south"):
        mcat.create_collection(f"/demozone/all/{part}", "b@s", now=0.0)
    for i, f in enumerate(survey_files(600)):
        part = "north" if i % 2 else "south"
        oid = mcat.create_object(f"/demozone/all/{part}/{f.name}", "data",
                                 "b@s", now=0.0)
        for attr, value in f.attributes.items():
            mcat.add_metadata("object", oid, attr, value, by="b@s", now=0.0)

    t0 = mcat.clock.now
    broad = search(mcat, "/demozone/all", QUERY)
    broad_cost = mcat.clock.now - t0
    t0 = mcat.clock.now
    narrow = search(mcat, "/demozone/all/north", QUERY)
    narrow_cost = mcat.clock.now - t0

    table = ResultTable("E4b query scoping",
                        ["scope", "objects searched", "hits", "virtual s"])
    table.add_row(["/demozone/all", 600, len(broad), broad_cost])
    table.add_row(["/demozone/all/north", 300, len(narrow), narrow_cost])
    record_table(benchmark, table)

    assert narrow_cost < broad_cost
    assert len(narrow) <= len(broad)

    benchmark.pedantic(
        lambda: search(mcat, "/demozone/all/north", QUERY),
        rounds=3, iterations=1)
