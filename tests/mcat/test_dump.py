"""Tests for catalog export/import (catalog technology migration).

A dump is the catalog's snapshot, serialised: a restored catalog holds
the original's rows at the original's row ids, tombstones included, on
as many partitions as the original had, and answers every read as a
catalog restored by the old re-inserting dump (``tests/mcat/
dump_oracle.py``) does."""

import json

import pytest

from repro.errors import DatabaseError, MetadataError, SrbError
from repro.mcat import Condition, Mcat, ShardedMcat, search
from repro.mcat.dump import (
    DUMP_FORMAT_VERSION,
    _ID_PREFIXES,
    export_catalog,
    import_catalog,
)
from repro.mcat.shard import READ, ROUTES
from tests.mcat import dump_oracle

OWNER = "sekar@sdsc"


@pytest.fixture
def mcat():
    m = Mcat()
    m.create_collection("/demozone/c", OWNER, now=1.0)
    oid = m.create_object("/demozone/c/x.fits", "data", OWNER, now=2.0,
                          data_type="fits image", size=100,
                          checksum="abc123")
    m.add_replica(oid, "res1", "/p1", 100, now=2.0)
    m.add_replica(oid, "res2", "/p2", 100, now=2.5)
    m.add_metadata("object", oid, "RA", "10.5", by=OWNER, now=3.0,
                   units="deg")
    m.add_annotation("object", oid, "comment", OWNER, "nice tile", now=3.5)
    m.grant("object", oid, "moore@sdsc", "read")
    m.define_structural("/demozone/c", "survey", mandatory=True)
    m.record_audit(4.0, OWNER, "get", "/demozone/c/x.fits")
    m.delete_object(m.create_object("/demozone/c/gone", "data", OWNER,
                                    now=5.0))
    m.create_collection("/demozone/old", OWNER, now=5.0)
    m.rename_subtree("/demozone/old", "/demozone/new")
    return m


def partition(catalog: ShardedMcat, k: int = 0) -> Mcat:
    return catalog.shards[k].primary


class TestRoundtrip:
    def test_all_tables_preserved(self, mcat):
        restored = partition(import_catalog(export_catalog(mcat)))
        snapshot = mcat.db.snapshot()
        assert None in snapshot["objects"]      # a tombstone, kept
        assert restored.db.snapshot() == snapshot
        assert ShardedMcat._digest(restored) == ShardedMcat._digest(mcat)

    def test_objects_resolvable_after_restore(self, mcat):
        restored = import_catalog(export_catalog(mcat))
        obj = restored.get_object("/demozone/c/x.fits")
        assert obj["checksum"] == "abc123"
        assert len(restored.replicas(obj["oid"])) == 2

    def test_queries_identical_after_restore(self, mcat):
        restored = import_catalog(export_catalog(mcat))
        q = [Condition("RA", ">", "10")]
        assert search(mcat, "/demozone", q).rows == \
            search(restored, "/demozone", q).rows

    def test_structural_rules_survive(self, mcat):
        restored = import_catalog(export_catalog(mcat))
        from repro.errors import MandatoryMetadataMissing
        with pytest.raises(MandatoryMetadataMissing):
            restored.validate_ingest_metadata("/demozone/c", {})

    def test_id_counters_continue(self, mcat):
        restored = import_catalog(export_catalog(mcat))
        old_oid = mcat.get_object("/demozone/c/x.fits")["oid"]
        new_oid = restored.create_object("/demozone/c/y.fits", "data",
                                         OWNER, now=5.0)
        assert new_oid > old_oid        # no id reuse after migration

    def test_restored_catalog_independent(self, mcat):
        restored = import_catalog(export_catalog(mcat))
        restored.create_object("/demozone/c/only-new.fits", "data", OWNER,
                               now=5.0)
        assert mcat.find_object("/demozone/c/only-new.fits") is None

    def test_indexes_rebuilt(self, mcat):
        md = partition(import_catalog(export_catalog(mcat))).db.table(
            "metadata")
        assert "attr" in md.indexed_columns()
        # index actually answers (not just declared)
        assert len(md.lookup_eq("attr", "RA")) == 1


class TestFormat:
    def test_dump_is_json_with_version(self, mcat):
        doc = json.loads(export_catalog(mcat))
        assert doc["format"] == DUMP_FORMAT_VERSION
        assert doc["zone"] == "demozone"
        assert doc["columns"]["objects"] == \
            mcat.db.table("objects").column_names()
        assert [sorted(p) for p in doc["partitions"]] == [mcat.db.tables()]

    def test_bad_json_rejected(self):
        with pytest.raises(MetadataError):
            import_catalog("{not json")

    def test_wrong_version_rejected(self, mcat):
        doc = json.loads(export_catalog(mcat))
        doc["format"] = 99
        with pytest.raises(MetadataError):
            import_catalog(json.dumps(doc))

    def test_dump_stable_across_exports(self, mcat):
        assert export_catalog(mcat) == export_catalog(mcat)

    def test_empty_catalog_roundtrip(self):
        m = Mcat(zone="fresh")
        restored = import_catalog(export_catalog(m))
        assert "cid" in restored.lookup("/fresh")

    def test_a_restored_catalog_reads_the_collections_it_began_with(self):
        # the re-inserting import dropped the "/" and "/<zone>" rows a new
        # catalog starts with and inserted the dump's; a path cache still
        # named the dropped rows, so reading either collection failed
        restored = import_catalog(export_catalog(Mcat(zone="fresh")))
        assert restored.get_collection("/fresh")["path"] == "/fresh"
        assert restored.get_collection("/")["path"] == "/"
        assert restored.total_objects() == 0


# ---------------------------------------------------------------------------
# K partitions restore into K partitions
# ---------------------------------------------------------------------------

def populated(shards: int):
    """A catalog with rows on every partition, a tombstone, a rename in
    place and, on K = 2, one across partitions (there "a", "c", "old"
    and "new" key partition 1, and "e" and "f" partition 0).  Returns
    it and the oids of its three objects, by collection."""
    m = ShardedMcat(shards=shards)
    for coll in ("a", "e", "c", "old"):
        m.create_collection(f"/demozone/{coll}", OWNER, now=1.0)
    oids = {}
    for coll in ("a", "e", "c"):
        oid = oids[coll] = m.create_object(
            f"/demozone/{coll}/x.fits", "data", OWNER, now=2.0, size=100)
        m.add_replica(oid, "res1", f"/p/{coll}", 100, now=2.0)
        m.add_metadata("object", oid, "RA", "10.5", by=OWNER, now=3.0)
        m.add_annotation("object", oid, "comment", OWNER, "nice", now=3.5)
        m.grant("object", oid, "moore@sdsc", "read")
    m.define_structural("/demozone/c", "survey", default_value="2mass")
    m.record_audit(4.0, OWNER, "get", "/demozone/a/x.fits")
    m.delete_object(m.create_object("/demozone/a/gone", "data", OWNER,
                                    now=5.0))
    m.rename_subtree("/demozone/old", "/demozone/new")
    m.rename_subtree("/demozone/c", "/demozone/f")
    oids["f"] = oids.pop("c")
    return m, oids


def export(catalog: ShardedMcat, dump=export_catalog) -> str:
    return dump(*(shard.primary for shard in catalog.shards))


def reads(oids):
    """One call of each catalog read: ``(op, args)``."""
    targets = [("object", oid) for oid in oids.values()]
    return [
        ("get_collection", ("/demozone/new",)),
        ("child_collections", ("/demozone",)),
        ("lookup", ("/demozone/f/x.fits",)),
        ("get_object", ("/demozone/a/x.fits",)),
        ("find_object", ("/demozone/a/gone",)),
        ("get_objects_by_ids", (sorted(oids.values()),)),
        ("objects_in_collection", ("/demozone", True)),
        ("objects_in_collection_page", ("/demozone", None, 2)),
        ("replicas", (oids["e"],)),
        ("get_replica", (oids["f"], 1)),
        ("container_members", (oids["a"],)),
        ("get_metadata", ("object", oids["f"])),
        ("get_metadata_bulk", (targets,)),
        ("annotations_for", ("object", oids["a"])),
        ("grants_for", ("object", oids["e"])),
        ("grants_for_bulk", (targets,)),
        ("audit_query", ()),
        ("structural_for", ("/demozone/f",)),
        ("search_page", ("/demozone", [Condition("RA", ">", "10")])),
        ("queryable_attributes", ("/demozone",)),
    ]


def answer(catalog, op, args):
    try:
        return getattr(catalog, op)(*args)
    except SrbError as exc:
        return type(exc)


def test_every_read_route_is_read():
    read_routes = {op for op, (_rule, side, *_how) in ROUTES.items()
                   if side is READ}
    assert read_routes <= {op for op, _args in reads({"a": 1, "e": 2,
                                                      "f": 3})}


@pytest.mark.parametrize("shards", [1, 2])
class TestPartitions:
    def test_each_partition_restores_row_for_row(self, shards):
        m, _oids = populated(shards)
        restored = import_catalog(export(m))
        assert len(restored.shards) == shards
        assert not any(shard.replicas for shard in restored.shards)
        for k in range(shards):
            assert partition(restored, k).db.snapshot() == \
                partition(m, k).db.snapshot()
            assert ShardedMcat._digest(partition(restored, k)) == \
                ShardedMcat._digest(partition(m, k))
        assert restored._dir == m._dir      # ids routed where they live

    def test_id_counters_continue_from_the_originals(self, shards):
        m, _oids = populated(shards)
        restored = import_catalog(export(m))
        assert {p: restored.ids.peek(p) for p in _ID_PREFIXES} == \
            {p: m.ids.peek(p) for p in _ID_PREFIXES}
        assert restored.create_object("/demozone/e/y", "data", OWNER,
                                      now=6.0) == \
            m.create_object("/demozone/e/y", "data", OWNER, now=6.0)

    def test_a_restored_catalog_reads_as_the_oracle_restores_it(self, shards):
        m, oids = populated(shards)
        restored = import_catalog(export(m))
        oracle = dump_oracle.import_catalog(export(m, dump_oracle.
                                                   export_catalog))
        for op, args in reads(oids):
            assert answer(restored, op, args) == answer(oracle, op, args), op
            assert answer(restored, op, args) == answer(m, op, args), op


# ---------------------------------------------------------------------------
# what the tables could not hold is refused
# ---------------------------------------------------------------------------

def _live(rows):
    return next(row for row in rows if row is not None)


def _column(doc, table, name):
    return doc["columns"][table].index(name)


def _other_columns(doc):
    doc["columns"]["objects"].append("colour")


def _short_row(doc):
    _live(doc["partitions"][0]["objects"]).pop()


def _wrong_type(doc):
    _live(doc["partitions"][0]["objects"])[_column(doc, "objects",
                                                   "size")] = "big"


def _null_in_not_null(doc):
    _live(doc["partitions"][0]["objects"])[_column(doc, "objects",
                                                   "path")] = None


def _repeated_primary_key(doc):
    rows = doc["partitions"][0]["objects"]
    rows.append(list(_live(rows)))


def _repeated_unique_key(doc):
    rows = doc["partitions"][0]["collections"]
    twin = list(rows[-1])
    twin[_column(doc, "collections", "cid")] = 999
    rows.append(twin)


def _missing_table(doc):
    del doc["partitions"][0]["pins"]


def _version_one(doc):
    doc["format"] = 1


@pytest.mark.parametrize("tamper, refusal", [
    (_other_columns, MetadataError),
    (_short_row, DatabaseError),
    (_wrong_type, DatabaseError),
    (_null_in_not_null, DatabaseError),
    (_repeated_primary_key, DatabaseError),
    (_repeated_unique_key, DatabaseError),
    (_missing_table, DatabaseError),
    (_version_one, MetadataError),
], ids=lambda value: getattr(value, "__name__", "").strip("_"))
def test_a_dump_the_tables_could_not_hold_is_refused(mcat, tamper, refusal):
    doc = json.loads(export_catalog(mcat))
    tamper(doc)
    with pytest.raises(refusal):
        import_catalog(json.dumps(doc))
