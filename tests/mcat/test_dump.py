"""Tests for catalog export/import (catalog technology migration)."""

import json

import pytest

from repro.errors import MetadataError
from repro.mcat import Condition, Mcat, search
from repro.mcat.dump import (
    DUMP_FORMAT_VERSION,
    export_catalog,
    import_catalog,
    migrate_catalog,
)

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
    return m


class TestRoundtrip:
    def test_all_tables_preserved(self, mcat):
        restored = migrate_catalog(mcat)
        for table in ("collections", "objects", "replicas", "metadata",
                      "annotations", "acls", "structural_meta", "audit"):
            assert restored.db.table(table).all_rows() == \
                mcat.db.table(table).all_rows(), f"table {table} differs"

    def test_objects_resolvable_after_restore(self, mcat):
        restored = migrate_catalog(mcat)
        obj = restored.get_object("/demozone/c/x.fits")
        assert obj["checksum"] == "abc123"
        assert len(restored.replicas(obj["oid"])) == 2

    def test_queries_identical_after_restore(self, mcat):
        restored = migrate_catalog(mcat)
        q = [Condition("RA", ">", "10")]
        assert search(mcat, "/demozone", q).rows == \
            search(restored, "/demozone", q).rows

    def test_structural_rules_survive(self, mcat):
        restored = migrate_catalog(mcat)
        from repro.errors import MandatoryMetadataMissing
        with pytest.raises(MandatoryMetadataMissing):
            restored.validate_ingest_metadata("/demozone/c", {})

    def test_id_counters_continue(self, mcat):
        restored = migrate_catalog(mcat)
        old_oid = mcat.get_object("/demozone/c/x.fits")["oid"]
        new_oid = restored.create_object("/demozone/c/y.fits", "data",
                                         OWNER, now=5.0)
        assert new_oid > old_oid        # no id reuse after migration

    def test_restored_catalog_independent(self, mcat):
        restored = migrate_catalog(mcat)
        restored.create_object("/demozone/c/only-new.fits", "data", OWNER,
                               now=5.0)
        assert mcat.find_object("/demozone/c/only-new.fits") is None

    def test_indexes_rebuilt(self, mcat):
        restored = migrate_catalog(mcat)
        md = restored.db.table("metadata")
        assert "attr" in md.indexed_columns()
        # index actually answers (not just declared)
        assert len(md.lookup_eq("attr", "RA")) == 1


class TestFormat:
    def test_dump_is_json_with_version(self, mcat):
        doc = json.loads(export_catalog(mcat))
        assert doc["format"] == DUMP_FORMAT_VERSION
        assert doc["zone"] == "demozone"
        assert "objects" in doc["tables"]

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
        restored = migrate_catalog(m)
        assert "cid" in restored.lookup("/fresh")

    def test_a_restored_catalog_reads_the_collections_it_began_with(self):
        # the import drops the "/" and "/<zone>" rows a new catalog starts
        # with and inserts the dump's; its path -> row cache still named
        # the dropped rows, so reading either collection failed
        restored = migrate_catalog(Mcat(zone="fresh"))
        assert restored.get_collection("/fresh")["path"] == "/fresh"
        assert restored.get_collection("/")["path"] == "/"
        assert restored.total_objects() == 0
