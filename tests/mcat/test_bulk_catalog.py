"""Bulk catalog write APIs.

The bulk data plane's catalog half: ``create_objects`` /
``add_replicas`` / ``add_metadata_bulk`` register N rows under a single
``_charged()`` block (one ``QUERY_OVERHEAD_S``, one ``mcat.ops``
increment).
"""

import pytest

from repro.errors import (
    AlreadyExists,
    MetadataError,
    NoSuchCollection,
    SrbError,
)
from repro.mcat import Mcat
from tests.probes import counter

OWNER = "sekar@sdsc"
COLL = "/demozone/home"


@pytest.fixture
def mcat():
    m = Mcat(zone="demozone")
    m.create_collection(COLL, OWNER, now=0.0)
    return m


def ops(m):
    return counter(m.obs.metrics, "mcat.ops")


class TestCreateObjects:
    def test_rows_match_individual_creates(self, mcat):
        specs = [{"path": f"{COLL}/f{i}", "kind": "data", "size": i}
                 for i in range(5)]
        oids = mcat.create_objects(specs, OWNER, now=1.0)
        assert len(oids) == 5
        for i, oid in enumerate(oids):
            row = mcat.get_object(f"{COLL}/f{i}")
            assert row["oid"] == oid and row["size"] == i
            assert row["owner"] == OWNER

    def test_one_charged_block(self, mcat):
        before = ops(mcat)
        mcat.create_objects([{"path": f"{COLL}/f{i}", "kind": "data"}
                             for i in range(20)], OWNER, now=1.0)
        assert ops(mcat) - before == 1

    def test_one_block_cheaper_clock_than_n(self):
        from repro.util.clock import SimClock
        m1 = Mcat(zone="z", clock=SimClock())
        m1.create_collection("/z/c", OWNER, now=0.0)
        t0 = m1.clock.now
        m1.create_objects([{"path": f"/z/c/f{i}", "kind": "data"}
                           for i in range(50)], OWNER, now=0.0)
        bulk_cost = m1.clock.now - t0

        m2 = Mcat(zone="z", clock=SimClock())
        m2.create_collection("/z/c", OWNER, now=0.0)
        t0 = m2.clock.now
        for i in range(50):
            m2.create_object(f"/z/c/f{i}", "data", OWNER, now=0.0)
        loop_cost = m2.clock.now - t0
        assert bulk_cost < loop_cost

    def test_per_item_error_isolation(self, mcat):
        mcat.create_object(f"{COLL}/taken", "data", OWNER, now=0.0)
        out = mcat.create_objects([
            {"path": f"{COLL}/a", "kind": "data"},
            {"path": f"{COLL}/taken", "kind": "data"},     # duplicate
            {"path": "/demozone/nope/b", "kind": "data"},  # no collection
            {"path": f"{COLL}/c", "kind": "data"},
        ], OWNER, now=0.0)
        assert isinstance(out[0], int)
        assert isinstance(out[1], AlreadyExists)
        assert isinstance(out[2], NoSuchCollection)
        assert isinstance(out[3], int)
        assert "oid" in mcat.lookup(f"{COLL}/a")
        assert "oid" in mcat.lookup(f"{COLL}/c")

    def test_intra_batch_duplicate_caught(self, mcat):
        out = mcat.create_objects([
            {"path": f"{COLL}/dup", "kind": "data"},
            {"path": f"{COLL}/dup", "kind": "data"},
        ], OWNER, now=0.0)
        assert isinstance(out[0], int)
        assert isinstance(out[1], AlreadyExists)


class TestAddReplicas:
    def test_numbering_matches_sequential(self, mcat):
        oid = mcat.create_object(f"{COLL}/f", "data", OWNER, now=0.0)
        nums = mcat.add_replicas([
            {"oid": oid, "resource": "r1", "physical_path": "/p1", "size": 1},
            {"oid": oid, "resource": "r2", "physical_path": "/p2", "size": 1},
        ], now=0.0)
        assert nums == [1, 2]
        assert [r["resource"] for r in mcat.replicas(oid)] == ["r1", "r2"]

    def test_one_charged_block(self, mcat):
        oid = mcat.create_object(f"{COLL}/f", "data", OWNER, now=0.0)
        before = ops(mcat)
        mcat.add_replicas([{"oid": oid, "resource": f"r{i}",
                            "physical_path": f"/p{i}", "size": 1}
                           for i in range(10)], now=0.0)
        assert ops(mcat) - before == 1


class TestAddMetadataBulk:
    def test_triples_land(self, mcat):
        oid = mcat.create_object(f"{COLL}/f", "data", OWNER, now=0.0)
        mids = mcat.add_metadata_bulk(
            [{"target_kind": "object", "target_id": oid,
              "attr": f"a{i}", "value": str(i)} for i in range(4)],
            by=OWNER, now=0.0)
        assert len(mids) == 4
        md = mcat.get_metadata("object", oid)
        assert {m["attr"] for m in md} == {"a0", "a1", "a2", "a3"}

    def test_one_charged_block(self, mcat):
        oid = mcat.create_object(f"{COLL}/f", "data", OWNER, now=0.0)
        before = ops(mcat)
        mcat.add_metadata_bulk(
            [{"target_kind": "object", "target_id": oid,
              "attr": f"a{i}", "value": "v"} for i in range(10)],
            by=OWNER, now=0.0)
        assert ops(mcat) - before == 1

    def test_validates_all_before_inserting_any(self, mcat):
        oid = mcat.create_object(f"{COLL}/f", "data", OWNER, now=0.0)
        with pytest.raises(MetadataError):
            mcat.add_metadata_bulk([
                {"target_kind": "object", "target_id": oid,
                 "attr": "good", "value": "v"},
                {"target_kind": "object", "target_id": oid,
                 "attr": "", "value": "v"},           # invalid attr
            ], by=OWNER, now=0.0)
        assert mcat.get_metadata("object", oid) == []

    def test_get_metadata_bulk_one_block(self, mcat):
        oids = [mcat.create_object(f"{COLL}/f{i}", "data", OWNER, now=0.0)
                for i in range(3)]
        for oid in oids:
            mcat.add_metadata("object", oid, "k", str(oid), by=OWNER, now=0.0)
        before = ops(mcat)
        rows = mcat.get_metadata_bulk([("object", oid) for oid in oids])
        assert ops(mcat) - before == 1
        assert [r[0]["value"] for r in rows] == [str(o) for o in oids]

