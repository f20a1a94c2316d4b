"""Unit tests for MCAT collections, objects and replicas."""

import pytest

from repro.errors import (
    AlreadyExists,
    MetadataError,
    NoSuchCollection,
    NoSuchObject,
    NoSuchReplica,
    NotEmpty,
)
from repro.mcat import Mcat

OWNER = "sekar@sdsc"


@pytest.fixture
def mcat():
    m = Mcat(zone="demozone")
    m.create_collection("/demozone/home", OWNER, now=0.0)
    return m


class TestCollections:
    def test_root_and_zone_preexist(self, mcat):
        assert "cid" in mcat.lookup("/")
        assert "cid" in mcat.lookup("/demozone")

    def test_create_and_get(self, mcat):
        mcat.create_collection("/demozone/home/sekar", OWNER, now=1.0)
        row = mcat.get_collection("/demozone/home/sekar")
        assert row["owner"] == OWNER and row["parent"] == "/demozone/home"

    def test_parent_must_exist(self, mcat):
        with pytest.raises(NoSuchCollection):
            mcat.create_collection("/demozone/missing/sub", OWNER, now=0.0)

    def test_duplicate_rejected(self, mcat):
        with pytest.raises(AlreadyExists):
            mcat.create_collection("/demozone/home", OWNER, now=0.0)

    def test_collection_cannot_shadow_object(self, mcat):
        mcat.create_object("/demozone/home/x", "data", OWNER, now=0.0)
        with pytest.raises(AlreadyExists):
            mcat.create_collection("/demozone/home/x", OWNER, now=0.0)

    def test_child_collections_sorted(self, mcat):
        mcat.create_collection("/demozone/home/b", OWNER, now=0.0)
        mcat.create_collection("/demozone/home/a", OWNER, now=0.0)
        kids = mcat.child_collections("/demozone/home")
        assert [k["path"] for k in kids] == ["/demozone/home/a",
                                             "/demozone/home/b"]

    def test_subtree_collections(self, mcat):
        mcat.create_collection("/demozone/home/a", OWNER, now=0.0)
        mcat.create_collection("/demozone/home/a/b", OWNER, now=0.0)
        subtree = mcat._subtree_collections("/demozone/home")
        assert [path for path, _rid in subtree] == [
            "/demozone/home", "/demozone/home/a", "/demozone/home/a/b"]

    def test_remove_empty(self, mcat):
        mcat.create_collection("/demozone/home/tmp", OWNER, now=0.0)
        mcat.remove_collection("/demozone/home/tmp")
        assert mcat.lookup("/demozone/home/tmp") is None
        with pytest.raises(NoSuchCollection):
            mcat.get_collection("/demozone/home/tmp")
        mcat.create_collection("/demozone/home/tmp", OWNER, now=5.0)
        assert mcat.get_collection("/demozone/home/tmp")["created_at"] == 5.0

    def test_remove_nonempty_rejected(self, mcat):
        mcat.create_collection("/demozone/home/a", OWNER, now=0.0)
        mcat.create_object("/demozone/home/a/x", "data", OWNER, now=0.0)
        with pytest.raises(NotEmpty):
            mcat.remove_collection("/demozone/home/a")

    def test_remove_with_subcollections_rejected(self, mcat):
        mcat.create_collection("/demozone/home/a", OWNER, now=0.0)
        mcat.create_collection("/demozone/home/a/b", OWNER, now=0.0)
        with pytest.raises(NotEmpty):
            mcat.remove_collection("/demozone/home/a")


class TestObjects:
    def test_create_get(self, mcat):
        oid = mcat.create_object("/demozone/home/x.fits", "data", OWNER,
                                 now=2.0, data_type="fits image", size=100)
        obj = mcat.get_object("/demozone/home/x.fits")
        assert obj["oid"] == oid
        assert obj["name"] == "x.fits"
        assert obj["coll"] == "/demozone/home"
        assert obj["version"] == 1

    def test_unknown_kind_rejected(self, mcat):
        with pytest.raises(MetadataError):
            mcat.create_object("/demozone/home/x", "hologram", OWNER, now=0.0)

    def test_collection_must_exist(self, mcat):
        with pytest.raises(NoSuchCollection):
            mcat.create_object("/demozone/nowhere/x", "data", OWNER, now=0.0)

    def test_path_collision_with_object(self, mcat):
        mcat.create_object("/demozone/home/x", "data", OWNER, now=0.0)
        with pytest.raises(AlreadyExists):
            mcat.create_object("/demozone/home/x", "url", OWNER, now=0.0)

    def test_path_collision_with_collection(self, mcat):
        with pytest.raises(AlreadyExists):
            mcat.create_object("/demozone/home", "data", OWNER, now=0.0)

    def test_find_returns_none(self, mcat):
        assert mcat.find_object("/demozone/home/ghost") is None

    def test_get_missing_raises(self, mcat):
        with pytest.raises(NoSuchObject):
            mcat.get_object("/demozone/home/ghost")

    def test_get_by_id(self, mcat):
        oid = mcat.create_object("/demozone/home/x", "data", OWNER, now=0.0)
        assert mcat.get_objects_by_ids([oid])[0]["path"] == \
            "/demozone/home/x"

    def test_move_object(self, mcat):
        oid = mcat.create_object("/demozone/home/x", "data", OWNER, now=0.0)
        mcat.create_collection("/demozone/home/sub", OWNER, now=0.0)
        mcat.move_object(oid, "/demozone/home/sub/y")
        obj = mcat.get_objects_by_ids([oid])[0]
        assert obj["path"] == "/demozone/home/sub/y"
        assert obj["coll"] == "/demozone/home/sub"
        assert obj["name"] == "y"

    def test_move_to_taken_path_rejected(self, mcat):
        oid = mcat.create_object("/demozone/home/x", "data", OWNER, now=0.0)
        mcat.create_object("/demozone/home/y", "data", OWNER, now=0.0)
        with pytest.raises(AlreadyExists):
            mcat.move_object(oid, "/demozone/home/y")

    def test_objects_in_collection_nonrecursive(self, mcat):
        mcat.create_object("/demozone/home/a", "data", OWNER, now=0.0)
        mcat.create_collection("/demozone/home/sub", OWNER, now=0.0)
        mcat.create_object("/demozone/home/sub/b", "data", OWNER, now=0.0)
        assert len(mcat.objects_in_collection("/demozone/home")) == 1

    def test_objects_in_collection_recursive(self, mcat):
        mcat.create_object("/demozone/home/a", "data", OWNER, now=0.0)
        mcat.create_collection("/demozone/home/sub", OWNER, now=0.0)
        mcat.create_object("/demozone/home/sub/b", "data", OWNER, now=0.0)
        assert len(mcat.objects_in_collection("/demozone/home",
                                              recursive=True)) == 2

    def test_delete_cascades(self, mcat):
        oid = mcat.create_object("/demozone/home/x", "data", OWNER, now=0.0)
        mcat.add_replica(oid, "res", "/p", 10, now=0.0)
        mcat.add_metadata("object", oid, "k", "v", by=OWNER, now=0.0)
        mcat.add_annotation("object", oid, "comment", OWNER, "hi", now=0.0)
        mcat.grant("object", oid, "x@y", "read")
        mcat.delete_object(oid)
        assert mcat.find_object("/demozone/home/x") is None
        assert mcat.replicas(oid) == []
        assert mcat.get_metadata("object", oid) == []
        assert mcat.annotations_for("object", oid) == []
        assert mcat.grants_for("object", oid) == []

    def test_count_objects(self, mcat):
        before = mcat.total_objects()
        mcat.create_object("/demozone/home/x", "data", OWNER, now=0.0)
        assert mcat.total_objects() == before + 1


class TestReplicas:
    @pytest.fixture
    def oid(self, mcat):
        return mcat.create_object("/demozone/home/x", "data", OWNER, now=0.0)

    def test_replica_numbers_sequential(self, mcat, oid):
        assert mcat.add_replica(oid, "r1", "/p1", 5, now=0.0) == 1
        assert mcat.add_replica(oid, "r2", "/p2", 5, now=0.0) == 2

    def test_numbers_not_reused_after_delete(self, mcat, oid):
        mcat.add_replica(oid, "r1", "/p1", 5, now=0.0)
        n2 = mcat.add_replica(oid, "r2", "/p2", 5, now=0.0)
        mcat.remove_replica(oid, n2)
        # next gets max+1 of remaining (1) + 1 = 2 again is acceptable
        n3 = mcat.add_replica(oid, "r3", "/p3", 5, now=0.0)
        assert n3 == 2

    def test_get_replica(self, mcat, oid):
        mcat.add_replica(oid, "r1", "/p1", 5, now=0.0)
        rep = mcat.get_replica(oid, 1)
        assert rep["resource"] == "r1"

    def test_missing_replica(self, mcat, oid):
        with pytest.raises(NoSuchReplica):
            mcat.get_replica(oid, 9)
        with pytest.raises(NoSuchReplica):
            mcat.remove_replica(oid, 9)

    def test_mark_siblings_dirty(self, mcat, oid):
        mcat.add_replica(oid, "r1", "/p1", 5, now=0.0)
        mcat.add_replica(oid, "r2", "/p2", 5, now=0.0)
        mcat.mark_siblings_dirty(oid, 2)
        reps = {r["replica_num"]: r["is_dirty"] for r in mcat.replicas(oid)}
        assert reps == {1: True, 2: False}

    def test_update_replica(self, mcat, oid):
        mcat.add_replica(oid, "r1", "/p1", 5, now=0.0)
        mcat.update_replica(oid, 1, size=99)
        assert mcat.get_replica(oid, 1)["size"] == 99

    def test_container_members_ordered_by_offset(self, mcat, oid):
        coid = mcat.create_object("/demozone/home/c", "container", OWNER,
                                  now=0.0)
        m2 = mcat.create_object("/demozone/home/m2", "data", OWNER, now=0.0)
        mcat.add_replica(m2, "r1", "/cont", 10, now=0.0,
                         container_oid=coid, offset=100)
        mcat.add_replica(oid, "r1", "/cont", 10, now=0.0,
                         container_oid=coid, offset=0)
        members = mcat.container_members(coid)
        assert [m["offset"] for m in members] == [0, 100]


class TestRenameSubtree:
    def test_collection_and_object_paths_rewritten(self, mcat):
        mcat.create_collection("/demozone/home/a", OWNER, now=0.0)
        mcat.create_collection("/demozone/home/a/b", OWNER, now=0.0)
        mcat.create_object("/demozone/home/a/b/x", "data", OWNER, now=0.0)
        count = mcat.rename_subtree("/demozone/home/a", "/demozone/home/z")
        assert count == 3
        assert "cid" in mcat.lookup("/demozone/home/z/b")
        obj = mcat.get_object("/demozone/home/z/b/x")
        assert obj["coll"] == "/demozone/home/z/b"
        assert mcat.lookup("/demozone/home/a") is None

    def test_parent_pointers_updated(self, mcat):
        mcat.create_collection("/demozone/home/a", OWNER, now=0.0)
        mcat.create_collection("/demozone/home/dst", OWNER, now=0.0)
        mcat.rename_subtree("/demozone/home/a", "/demozone/home/dst/a")
        row = mcat.get_collection("/demozone/home/dst/a")
        assert row["parent"] == "/demozone/home/dst"

    def test_sibling_with_common_prefix_untouched(self, mcat):
        mcat.create_collection("/demozone/home/a", OWNER, now=0.0)
        mcat.create_collection("/demozone/home/ab", OWNER, now=0.0)
        mcat.rename_subtree("/demozone/home/a", "/demozone/home/z")
        assert "cid" in mcat.lookup("/demozone/home/ab")
