"""Server tests: ingest, get, put, delete, replicate, copy/move/link."""

import pytest

from repro.core import SrbClient
from repro.errors import (
    AccessDenied,
    AlreadyExists,
    InvalidPath,
    MandatoryMetadataMissing,
    NoSuchObject,
    NoSuchReplica,
    ReplicaUnavailable,
    UnsupportedOperation,
)


class TestIngest:
    def test_roundtrip(self, curator, home):
        curator.ingest(f"{home}/a.txt", b"hello", resource="unix-sdsc")
        assert curator.get(f"{home}/a.txt") == b"hello"

    def test_default_resource_used(self, grid):
        grid.curator.ingest(f"{grid.home}/b.txt", b"x")
        rep = grid.curator.stat(f"{grid.home}/b.txt")["replicas"][0]
        assert rep["resource"] == "unix-sdsc"

    def test_logical_resource_fans_out(self, curator, home):
        curator.ingest(f"{home}/c.txt", b"x", resource="logrsrc1")
        reps = curator.stat(f"{home}/c.txt")["replicas"]
        assert {r["resource"] for r in reps} == {"unix-sdsc", "hpss-caltech"}
        # both copies are clean replicas of the same object
        assert all(not r["is_dirty"] for r in reps)

    def test_duplicate_path_rejected(self, curator, home):
        curator.ingest(f"{home}/d.txt", b"x")
        with pytest.raises(AlreadyExists):
            curator.ingest(f"{home}/d.txt", b"y")

    def test_failed_ingest_rolls_back(self, grid):
        grid.fed.network.set_down("caltech")
        with pytest.raises(Exception):
            grid.curator.ingest(f"{grid.home}/e.txt", b"x",
                                resource="logrsrc1")
        # no half-object left behind
        with pytest.raises(NoSuchObject):
            grid.curator.stat(f"{grid.home}/e.txt")

    def test_structural_metadata_enforced(self, admin, curator, home):
        admin.define_structural("/demozone/home", "project", mandatory=True)
        with pytest.raises(MandatoryMetadataMissing):
            curator.ingest(f"{home}/f.txt", b"x")
        curator.ingest(f"{home}/f.txt", b"x", metadata={"project": "srb"})
        md = curator.get_metadata(f"{home}/f.txt")
        assert md[0]["attr"] == "project"

    def test_structural_default_attached(self, admin, curator, home):
        admin.define_structural("/demozone/home", "zone2",
                                default_value="demo")
        curator.ingest(f"{home}/g.txt", b"x")
        md = {m["attr"]: m["value"] for m in curator.get_metadata(f"{home}/g.txt")}
        assert md["zone2"] == "demo"

    def test_write_needs_permission(self, grid):
        grid.fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
        guest.login()
        with pytest.raises(AccessDenied):
            guest.ingest(f"{grid.home}/h.txt", b"x")


class TestGet:
    def test_specific_replica(self, curator, home):
        curator.ingest(f"{home}/r.txt", b"x", resource="logrsrc1")
        assert curator.get(f"{home}/r.txt", replica_num=2) == b"x"

    def test_missing_replica_num(self, curator, home):
        curator.ingest(f"{home}/r2.txt", b"x")
        with pytest.raises(NoSuchReplica):
            curator.get(f"{home}/r2.txt", replica_num=9)

    def test_missing_object(self, curator, home):
        with pytest.raises(NoSuchObject):
            curator.get(f"{home}/ghost")

    def test_failover_to_surviving_replica(self, grid):
        grid.curator.ingest(f"{grid.home}/fo.txt", b"x", resource="logrsrc1")
        grid.fed.network.set_down("caltech")
        assert grid.curator.get(f"{grid.home}/fo.txt") == b"x"

    def test_all_replicas_down(self, grid):
        grid.curator.ingest(f"{grid.home}/fo2.txt", b"x",
                            resource="unix-caltech")
        grid.fed.network.set_down("caltech")
        with pytest.raises(ReplicaUnavailable):
            grid.curator.get(f"{grid.home}/fo2.txt")

    def test_read_needs_permission(self, grid):
        grid.fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
        guest.login()
        grid.curator.ingest(f"{grid.home}/private.txt", b"secret")
        with pytest.raises(AccessDenied):
            guest.get(f"{grid.home}/private.txt")
        grid.curator.grant(f"{grid.home}/private.txt", "guest@sdsc", "read")
        assert guest.get(f"{grid.home}/private.txt") == b"secret"


class TestPut:
    def test_overwrite_keeps_metadata(self, curator, home):
        curator.ingest(f"{home}/p.txt", b"v1")
        curator.add_metadata(f"{home}/p.txt", "k", "v")
        curator.put(f"{home}/p.txt", b"v2")
        assert curator.get(f"{home}/p.txt") == b"v2"
        assert curator.get_metadata(f"{home}/p.txt")[0]["attr"] == "k"

    def test_put_marks_siblings_dirty(self, curator, home):
        curator.ingest(f"{home}/p2.txt", b"v1", resource="logrsrc1")
        curator.put(f"{home}/p2.txt", b"v2")
        reps = curator.stat(f"{home}/p2.txt")["replicas"]
        dirt = {r["resource"]: r["is_dirty"] for r in reps}
        assert sum(dirt.values()) == 1     # exactly one stale sibling

    def test_synchronize_cleans(self, curator, home):
        curator.ingest(f"{home}/p3.txt", b"v1", resource="logrsrc1")
        curator.put(f"{home}/p3.txt", b"v2")
        assert curator.synchronize(f"{home}/p3.txt") == 1
        reps = curator.stat(f"{home}/p3.txt")["replicas"]
        assert all(not r["is_dirty"] for r in reps)
        assert curator.get(f"{home}/p3.txt", replica_num=2) == b"v2"

    def test_dirty_replica_not_served(self, curator, home):
        curator.ingest(f"{home}/p4.txt", b"v1", resource="logrsrc1")
        curator.put(f"{home}/p4.txt", b"v2")
        # explicit request for the dirty copy still allowed (user asked);
        # but default selection avoids it even if it is listed first
        data = curator.get(f"{home}/p4.txt")
        assert data == b"v2"

    def test_size_updated(self, curator, home):
        curator.ingest(f"{home}/p5.txt", b"12")
        curator.put(f"{home}/p5.txt", b"12345")
        assert curator.stat(f"{home}/p5.txt")["size"] == 5


class TestDelete:
    def test_full_delete_removes_physical(self, grid):
        grid.curator.ingest(f"{grid.home}/x.txt", b"x")
        rep = grid.curator.stat(f"{grid.home}/x.txt")["replicas"][0]
        drv = grid.fed.resources.physical(rep["resource"]).driver
        assert drv.exists(rep["physical_path"])
        grid.curator.delete(f"{grid.home}/x.txt")
        assert not drv.exists(rep["physical_path"])

    def test_one_replica_at_a_time(self, curator, home):
        curator.ingest(f"{home}/y.txt", b"x", resource="logrsrc1")
        curator.delete(f"{home}/y.txt", replica_num=1)
        reps = curator.stat(f"{home}/y.txt")["replicas"]
        assert [r["replica_num"] for r in reps] == [2]
        assert curator.get(f"{home}/y.txt") == b"x"

    def test_metadata_survives_partial_delete(self, curator, home):
        curator.ingest(f"{home}/z.txt", b"x", resource="logrsrc1")
        curator.add_metadata(f"{home}/z.txt", "k", "v")
        curator.delete(f"{home}/z.txt", replica_num=1)
        assert len(curator.get_metadata(f"{home}/z.txt")) == 1

    def test_last_replica_cascades(self, curator, home):
        curator.ingest(f"{home}/w.txt", b"x")
        curator.add_metadata(f"{home}/w.txt", "k", "v")
        curator.delete(f"{home}/w.txt", replica_num=1)
        with pytest.raises(NoSuchObject):
            curator.stat(f"{home}/w.txt")

    def test_delete_needs_own(self, grid):
        grid.fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
        guest.login()
        grid.curator.ingest(f"{grid.home}/mine.txt", b"x")
        grid.curator.grant(f"{grid.home}/mine.txt", "guest@sdsc", "write")
        with pytest.raises(AccessDenied):
            guest.delete(f"{grid.home}/mine.txt")

    def test_pinned_replica_not_deletable(self, curator, home):
        curator.ingest(f"{home}/pinned.txt", b"x")
        curator.pin(f"{home}/pinned.txt", "unix-sdsc")
        from repro.errors import PinnedFile
        with pytest.raises(PinnedFile):
            curator.delete(f"{home}/pinned.txt")
        curator.unpin(f"{home}/pinned.txt", "unix-sdsc")
        curator.delete(f"{home}/pinned.txt")


class TestReplicate:
    def test_new_replica_inherits_metadata(self, curator, home):
        curator.ingest(f"{home}/rep.txt", b"x")
        curator.add_metadata(f"{home}/rep.txt", "k", "v")
        num = curator.replicate(f"{home}/rep.txt", "unix-caltech")
        assert num == 2
        # metadata hangs off the object: one set, visible regardless
        assert len(curator.get_metadata(f"{home}/rep.txt")) == 1
        assert curator.get(f"{home}/rep.txt", replica_num=2) == b"x"

    def test_replica_numbers_displayed(self, curator, home):
        curator.ingest(f"{home}/rep2.txt", b"x")
        curator.replicate(f"{home}/rep2.txt", "unix-caltech")
        reps = curator.stat(f"{home}/rep2.txt")["replicas"]
        assert [r["replica_num"] for r in reps] == [1, 2]

    def test_ingest_replica_different_bytes(self, curator, home):
        curator.ingest(f"{home}/img.tiff", b"TIFFDATA")
        num = curator.ingest_replica(f"{home}/img.tiff", b"GIFDATA",
                                     resource="unix-caltech")
        assert curator.get(f"{home}/img.tiff", replica_num=num) == b"GIFDATA"
        assert curator.get(f"{home}/img.tiff", replica_num=1) == b"TIFFDATA"


class TestCopyMoveLink:
    def test_copy_does_not_copy_metadata(self, curator, home):
        curator.ingest(f"{home}/src.txt", b"data")
        curator.add_metadata(f"{home}/src.txt", "k", "v")
        curator.copy(f"{home}/src.txt", f"{home}/dst.txt")
        assert curator.get(f"{home}/dst.txt") == b"data"
        assert curator.get_metadata(f"{home}/dst.txt") == []

    def test_copies_are_unconnected(self, curator, home):
        curator.ingest(f"{home}/s2.txt", b"v1")
        curator.copy(f"{home}/s2.txt", f"{home}/d2.txt")
        curator.put(f"{home}/s2.txt", b"v2")
        assert curator.get(f"{home}/d2.txt") == b"v1"

    def test_copy_collection_recursive(self, curator, home):
        curator.mkcoll(f"{home}/cdir")
        curator.mkcoll(f"{home}/cdir/sub")
        curator.ingest(f"{home}/cdir/a.txt", b"a")
        curator.ingest(f"{home}/cdir/sub/b.txt", b"b")
        curator.copy(f"{home}/cdir", f"{home}/cdir2")
        assert curator.get(f"{home}/cdir2/a.txt") == b"a"
        assert curator.get(f"{home}/cdir2/sub/b.txt") == b"b"

    def test_copy_url_unsupported(self, grid):
        grid.fed.web.publish("http://x.org/a", b"c")
        grid.curator.register_url(f"{grid.home}/u", "http://x.org/a")
        with pytest.raises(UnsupportedOperation):
            grid.curator.copy(f"{grid.home}/u", f"{grid.home}/u2")

    def test_logical_move_keeps_metadata_and_bytes(self, curator, home):
        curator.ingest(f"{home}/m.txt", b"x")
        curator.add_metadata(f"{home}/m.txt", "k", "v")
        curator.mkcoll(f"{home}/moved")
        curator.move(f"{home}/m.txt", f"{home}/moved/m.txt")
        assert curator.get(f"{home}/moved/m.txt") == b"x"
        assert len(curator.get_metadata(f"{home}/moved/m.txt")) == 1
        with pytest.raises(NoSuchObject):
            curator.stat(f"{home}/m.txt")

    def test_move_collection(self, curator, home):
        curator.mkcoll(f"{home}/mv")
        curator.ingest(f"{home}/mv/a.txt", b"a")
        curator.mkcoll(f"{home}/target")
        curator.move(f"{home}/mv", f"{home}/target/mv")
        assert curator.get(f"{home}/target/mv/a.txt") == b"a"

    def test_move_collection_into_itself_rejected(self, curator, home):
        curator.mkcoll(f"{home}/loop")
        with pytest.raises(InvalidPath):
            curator.move(f"{home}/loop", f"{home}/loop/inner")

    def test_physical_move_keeps_logical_name(self, curator, home):
        curator.ingest(f"{home}/pm.txt", b"x", resource="unix-sdsc")
        curator.physical_move(f"{home}/pm.txt", "unix-caltech")
        rep = curator.stat(f"{home}/pm.txt")["replicas"][0]
        assert rep["resource"] == "unix-caltech"
        assert curator.get(f"{home}/pm.txt") == b"x"

    @pytest.mark.parametrize("archive_copy", ["cached", "tape", "pinned"])
    def test_physical_move_relocates_the_policys_replica(
            self, grid, archive_copy):
        """The copy a physical move reads is the copy it moves and
        deletes, so it is the policy's pick (replica 1 here), never one
        chosen by where the bytes are: whether the archive copy sits in
        its disk cache, on tape or pinned must not decide which replica
        leaves its resource (a pinned one cannot be deleted at all)."""
        path = f"{grid.home}/two.dat"
        grid.curator.ingest(path, b"both", resource="logrsrc1")
        if archive_copy != "cached":
            grid.fed.cache_sweep()
        if archive_copy == "pinned":
            grid.curator.pin(path, "hpss-caltech")
        old = grid.curator.stat(path)["replicas"]
        grid.curator.physical_move(path, "unix-caltech")
        reps = {r["replica_num"]: r for r in grid.curator.stat(path)["replicas"]}
        assert {n: r["resource"] for n, r in reps.items()} == \
            {1: "unix-caltech", 2: "hpss-caltech"}
        assert reps[2]["physical_path"] == old[1]["physical_path"]
        sdsc = grid.fed.resources.physical("unix-sdsc").driver
        assert not sdsc.exists(old[0]["physical_path"])
        assert grid.curator.get(path) == b"both"


class TestDatabaseResourceIngest:
    def test_ingest_into_database_stores_lob(self, grid):
        """The SRB (unlike MySRB) supports ingestion into databases
        "through command line and API" — bytes land as a LOB."""
        grid.curator.ingest(f"{grid.home}/indb.dat", b"lob bytes",
                            resource="dlib1")
        assert grid.curator.get(f"{grid.home}/indb.dat") == b"lob bytes"
        drv = grid.fed.resources.physical("dlib1").driver
        rep = grid.curator.stat(f"{grid.home}/indb.dat")["replicas"][0]
        assert drv.exists(rep["physical_path"])
        assert len(drv.database.table("lobs")) == 1

    def test_lob_replicable_to_filesystem(self, grid):
        grid.curator.ingest(f"{grid.home}/indb2.dat", b"x", resource="dlib1")
        grid.curator.replicate(f"{grid.home}/indb2.dat", "unix-sdsc")
        assert grid.curator.get(f"{grid.home}/indb2.dat",
                                replica_num=2) == b"x"
