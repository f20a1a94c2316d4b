"""Memory budgets: how many bytes the catalog's tables hold per row, and
how many the storage drivers hold per stored payload.

The paper sizes its catalog by 2MASS, five million files, so what one
catalog row costs in memory is what the catalog can hold.  This guard
measures it in tier-1 with the stdlib's ``tracemalloc``: the bytes that
code under ``src/repro/db/`` allocated, and still holds, over one
2,000-object ``bulk_ingest`` with five attributes per object (14,001
catalog rows: object, replica and five metadata triples each, one audit
row), divided by those rows.  E20 (``benchmarks/test_e20_catalog_bytes.py``)
reports the same number at three catalog sizes, split by table.

The budget is about 15 % above the count measured on CPython 3.11 when
it was pinned: 360 bytes per row, once a hash-index bucket of several
rows became an ascending list of row ids (521 with a set per such
bucket; 799 before a bucket of one row became the bare row id).  A
change that needs more should show in EXPERIMENTS.md what the bytes
buy.

The storage guard holds the drivers to what the paper's logical
resource needs in a simulation that keeps every byte in one process:
one ingest to ``logrsrc1`` (a disk and an HSM archive), a ``replicate``
to ``unix-caltech`` and a ``get`` of a 1 MiB payload, and the bytes
that code under ``src/repro/storage/`` allocated and still holds
divided by the payload.  Measured on CPython 3.11 when it was pinned:
0.0 (a stored file is the caller's ``bytes`` object, and the archive's
cache and tape copies are that one object too), where the copying
drivers held 5.0 (the disk, cache, tape and replica copies, plus the
copy that ``get`` returned).
"""

import os
import tracemalloc

import pytest

import repro.db
import repro.storage
from repro.workload import standard_grid

#: most bytes allocated under src/repro/db/ per catalog row inserted
BYTES_PER_ROW = 415

#: most bytes allocated under src/repro/storage/ per payload byte stored
STORED_PER_PAYLOAD_BYTE = 0.05

DB_FILES = os.path.join(os.path.dirname(repro.db.__file__), "*")
STORAGE_FILES = os.path.join(os.path.dirname(repro.storage.__file__), "*")


@pytest.fixture(scope="module")
def ingested():
    grid = standard_grid()
    items = [{"path": f"{grid.home}/m-{i:04d}.fits", "data": b"\x5a" * 64,
              "metadata": {"RA": f"{i}.5", "DEC": f"-{i}.25",
                           "JMAG": "9.75", "NIGHT": "1999-04-01",
                           "FIELD": str(i % 7)}}
             for i in range(2000)]
    db = grid.fed.mcat.shards[0].primary.db
    rows_before = sum(len(db.table(t)) for t in db.tables())
    only_db = [tracemalloc.Filter(True, DB_FILES)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_db)
        grid.curator.bulk_ingest(items)
        after = tracemalloc.take_snapshot().filter_traces(only_db)
    finally:
        tracemalloc.stop()
    rows = sum(len(db.table(t)) for t in db.tables()) - rows_before
    assert rows == 14_001
    held = sum(d.size_diff for d in after.compare_to(before, "filename"))
    return db, held / rows


def test_a_catalog_row_stays_within_its_byte_budget(ingested):
    _db, per_row = ingested
    assert per_row <= BYTES_PER_ROW, (
        f"the catalog's tables hold {per_row:.0f} bytes per row; "
        f"the budget is {BYTES_PER_ROW}")


def test_no_hash_bucket_is_a_one_element_set(ingested):
    """Nor a one-element list: a value filed once is its bare row id."""
    db, _per_row = ingested
    ones = [(name, column) for name in db.tables()
            for column, idx in db.table(name)._hash_indexes.items()
            for bucket in idx._map.values()
            if type(bucket) in (set, list) and len(bucket) == 1]
    assert ones == []


def test_storage_keeps_the_payload_not_copies_of_it():
    grid = standard_grid()
    payload = bytes(range(256)) * 4096              # 1 MiB
    path = f"{grid.home}/big.dat"
    only_storage = [tracemalloc.Filter(True, STORAGE_FILES)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_storage)
        grid.curator.ingest(path, payload, resource="logrsrc1")
        grid.curator.replicate(path, "unix-caltech")
        got = grid.curator.get(path)
        after = tracemalloc.take_snapshot().filter_traces(only_storage)
    finally:
        tracemalloc.stop()
    assert got == payload
    assert len(grid.curator.stat(path)["replicas"]) == 3
    held = sum(d.size_diff for d in after.compare_to(before, "filename"))
    assert held <= STORED_PER_PAYLOAD_BYTE * len(payload), (
        f"storage holds {held / len(payload):.2f}x the payload; "
        f"the budget is {STORED_PER_PAYLOAD_BYTE}x")
