"""E20 (extension) — catalog bytes per row, against the paper's 5M files.

Paper claim (Section 1): the SRB catalogs the 2MASS survey, five
million image files, and "any solution for the data grid should be
scalable to handle millions of datasets".  A catalog held in memory is
as large as the bytes one of its rows costs, times the rows.  AMGA
(Santos & Koblitz) reports its metadata catalog the same way: against
its size.

Reproduced series: 2MASS-shaped objects (five attributes each,
``repro.workload.survey_files``) bulk-ingested 500 per call into a fresh
grid, as gridbench's ``catalog_load`` does, at 3k, 12k and 48k objects.
Each object is seven catalog rows: the object, its replica and five
metadata triples.  Measured with the stdlib's ``tracemalloc``:

  (a) *db bytes per row* — bytes that code under ``src/repro/db/``
      allocated during the load and still holds, over the rows the load
      added; and its split by table, from a walk of each table's heap
      and indexes (rows, hash buckets, sorted-index entries, row ids),
      each object counted once, in bytes per row of that table;
  (b) the linear fit of db bytes against objects, extrapolated to the
      paper's 5M objects.

Expected shape: bytes grow linearly with rows (bytes per row within
±15 % across a 16x size range), the walk accounts for the traced bytes
(within 10 %), and no hash bucket is a one-element set or list.
"""

import gc
import os
import sys
import tracemalloc

import repro.db
from repro.bench import ResultTable
from repro.workload import standard_grid, survey_files

from helpers import record_json, record_table

SIZES = (3_000, 12_000, 48_000)
BATCH = 500                  # objects per bulk_ingest, as catalog_load
PAPER_OBJECTS = 5_000_000    # 2MASS
ROWS_PER_OBJECT = 7          # object + replica + five metadata triples
SPLIT = ("objects", "replicas", "metadata")
DB_FILES = os.path.join(os.path.dirname(repro.db.__file__), "*")


def heap_bytes(table) -> int:
    """Bytes of the objects a table keeps its rows and indexes in: the
    heap and each row list, each hash map (an index over a pair's inner
    maps too) and list bucket, each sorted index's key list and entry
    tuples, the row ids they hold and the floats a FLOAT column
    converted — each object once."""
    seen = set()

    def size(obj) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sys.getsizeof(obj)

    total = size(table._rows)
    for row in table._rows:
        if row is not None:
            total += size(row) + sum(size(v) for v in row
                                     if type(v) is float)
    for idx in table._hash_indexes.values():
        total += size(idx._map)
        # over a pair of columns: each first value's inner map
        total += sum(size(m) for m in idx._map.values() if type(m) is dict)
        for bucket in buckets(idx):
            total += size(bucket)
            if type(bucket) is not int:
                total += sum(size(rid) for rid in bucket)
    for sidx in table._sorted_indexes.values():
        total += size(sidx._keys)
        total += sum(size(entry) + size(entry[-1]) for entry in sidx._keys)
    return total


def buckets(idx):
    """Every bucket of a hash index, those of a pair's inner maps too."""
    for bucket in idx._map.values():
        if type(bucket) is dict:
            yield from bucket.values()
        else:
            yield bucket


def load(n: int) -> dict:
    """Bulk-ingest ``n`` survey objects into a fresh grid under
    ``tracemalloc``; what the catalog's tables gained."""
    grid = standard_grid()
    db = grid.fed.mcat.shards[0].primary.db
    rows0 = {t: len(db.table(t)) for t in db.tables()}
    walked0 = {t: heap_bytes(db.table(t)) for t in SPLIT}
    files = list(survey_files(n, payload_bytes=64))
    only_db = [tracemalloc.Filter(True, DB_FILES)]
    tracemalloc.start()
    try:
        # collect first, so that neither snapshot holds garbage an earlier
        # test or size left for the collector
        gc.collect()
        before = tracemalloc.take_snapshot().filter_traces(only_db)
        for first in range(0, n, BATCH):
            coll = f"{grid.home}/field-{first // BATCH:03d}"
            grid.curator.mkcoll(coll)
            grid.curator.bulk_ingest([
                {"path": f"{coll}/{f.name}", "data": f.content,
                 "data_type": f.data_type, "metadata": f.attributes}
                for f in files[first:first + BATCH]])
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_db)
    finally:
        tracemalloc.stop()
    rows = {t: len(db.table(t)) - rows0[t] for t in db.tables()}
    one_element_buckets = sum(
        1 for t in db.tables()
        for idx in db.table(t)._hash_indexes.values()
        for bucket in buckets(idx)
        if type(bucket) in (set, list) and len(bucket) == 1)
    return {"rows": rows,
            "traced": sum(d.size_diff
                          for d in after.compare_to(before, "filename")),
            "walked": {t: heap_bytes(db.table(t)) - walked0[t]
                       for t in SPLIT},
            "one_element_buckets": one_element_buckets}


def linear_fit(xs, ys):
    """Least-squares ``(intercept, slope)`` of ``ys`` against ``xs``."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)
    return my - slope * mx, slope


def test_e20_catalog_bytes_per_row(benchmark):
    table = ResultTable(
        "E20 catalog bytes per row (tracemalloc, src/repro/db/)",
        ["objects", "catalog rows", "db MiB", "db B/row",
         *(f"{t} B/row" for t in SPLIT), "walked/traced"])
    traced, per_row, headline = [], [], {}
    for n in SIZES:
        got = load(n)
        rows = sum(got["rows"].values())
        assert rows >= n * ROWS_PER_OBJECT
        assert got["rows"]["objects"] == got["rows"]["replicas"] == n
        assert got["one_element_buckets"] == 0
        walked = sum(got["walked"].values())
        traced.append(got["traced"])
        per_row.append(got["traced"] / rows)
        table.add_row([n, rows, got["traced"] / 2**20, per_row[-1],
                       *(got["walked"][t] / got["rows"][t] for t in SPLIT),
                       walked / got["traced"]])
        # the split accounts for what was traced
        assert 0.9 <= walked / got["traced"] <= 1.1
        headline[f"db_bytes_per_row_{n // 1000}k"] = round(per_row[-1], 1)
        for t in SPLIT:
            headline[f"{t}_bytes_per_row_{n // 1000}k"] = \
                round(got["walked"][t] / got["rows"][t], 1)
    record_table(benchmark, table)
    # linear in rows: bytes per row holds across a 16x size range
    assert max(per_row) <= 1.15 * min(per_row)

    intercept, slope = linear_fit(SIZES, traced)
    at_paper = intercept + slope * PAPER_OBJECTS
    rows_at_paper = PAPER_OBJECTS * ROWS_PER_OBJECT
    extrapolated = ResultTable(
        "E20b catalog bytes extrapolated to the paper's 2MASS (5M files)",
        ["objects", "catalog rows", "db B/object", "db B/row", "db GiB"])
    extrapolated.add_row([PAPER_OBJECTS, rows_at_paper, slope,
                          at_paper / rows_at_paper, at_paper / 2**30])
    record_table(benchmark, extrapolated)
    headline["extrapolated_5m_db_gib"] = round(at_paper / 2**30, 2)
    headline["db_bytes_per_object_fit"] = round(slope, 1)
    record_json("e20", headline)

    benchmark.pedantic(lambda: heap_bytes(
        standard_grid().fed.mcat.shards[0].primary.db.table("objects")),
        rounds=3, iterations=1)
