"""Error-path and edge-case tests for the SRB server surface."""

import pytest

from repro.core import SrbClient
from repro.errors import (
    AccessDenied,
    AlreadyExists,
    MetadataError,
    NoSuchCollection,
    NoSuchObject,
    NoSuchReplica,
    NoSuchResource,
    UnsupportedOperation,
)


class TestIngestEdges:
    def test_unknown_resource(self, curator, home):
        with pytest.raises(NoSuchResource):
            curator.ingest(f"{home}/x.txt", b"x", resource="ghost-res")

    def test_missing_collection(self, curator, home):
        with pytest.raises(NoSuchCollection):
            curator.ingest(f"{home}/nowhere/x.txt", b"x")

    def test_no_default_resource(self, tiny_fed, tiny_admin):
        tiny_fed.default_resource = None
        tiny_admin.mkcoll("/demozone/c")
        with pytest.raises(NoSuchResource):
            tiny_admin.ingest("/demozone/c/x", b"x")

    def test_empty_file_allowed(self, curator, home):
        curator.ingest(f"{home}/empty.txt", b"")
        assert curator.get(f"{home}/empty.txt") == b""
        assert curator.stat(f"{home}/empty.txt")["size"] == 0


class TestCopyEdges:
    def test_copy_with_explicit_resource(self, curator, home):
        curator.ingest(f"{home}/src.txt", b"x", resource="unix-sdsc")
        curator.copy(f"{home}/src.txt", f"{home}/dst.txt",
                     resource="unix-caltech")
        rep = curator.stat(f"{home}/dst.txt")["replicas"][0]
        assert rep["resource"] == "unix-caltech"

    def test_copy_collection_skips_pointer_kinds(self, grid):
        grid.curator.mkcoll(f"{grid.home}/mix")
        grid.curator.ingest(f"{grid.home}/mix/real.txt", b"x")
        grid.fed.web.publish("http://x.org/u", b"c")
        grid.curator.register_url(f"{grid.home}/mix/u", "http://x.org/u")
        grid.curator.copy(f"{grid.home}/mix", f"{grid.home}/mix2")
        names = [o["name"] for o in grid.curator.ls(f"{grid.home}/mix2")["objects"]]
        assert names == ["real.txt"]        # URL skipped, like MySRB

    def test_copy_link_copies_target_bytes(self, curator, home):
        curator.ingest(f"{home}/orig.txt", b"original")
        curator.link(f"{home}/orig.txt", f"{home}/ln.txt")
        curator.copy(f"{home}/ln.txt", f"{home}/copied.txt")
        assert curator.get(f"{home}/copied.txt") == b"original"
        assert curator.stat(f"{home}/copied.txt")["kind"] == "data"

    def test_copy_to_existing_path(self, curator, home):
        curator.ingest(f"{home}/a.txt", b"a")
        curator.ingest(f"{home}/b.txt", b"b")
        with pytest.raises(AlreadyExists):
            curator.copy(f"{home}/a.txt", f"{home}/b.txt")


class TestGetEdges:
    def test_args_ignored_for_plain_files(self, curator, home):
        curator.ingest(f"{home}/f.txt", b"x")
        assert curator.get(f"{home}/f.txt", args="ignored") == b"x"

    def test_sql_remainder_on_full_query_ignored(self, grid):
        from repro.db import Column
        drv = grid.fed.resources.physical("dlib1").driver
        t = drv.create_user_table("q", [Column("v", "INT")])
        t.insert({"v": 1})
        grid.curator.register_sql(f"{grid.home}/full", "dlib1",
                                  "SELECT v FROM q", template="XMLREL")
        out = grid.curator.get(f"{grid.home}/full",
                               sql_remainder="junk ignored")
        assert b"<field>1</field>" in out

    def test_get_collection_path_fails(self, curator, home):
        with pytest.raises(NoSuchObject):
            curator.get(home)


class TestVersionEdges:
    def test_get_missing_version(self, curator, home):
        curator.ingest(f"{home}/v.txt", b"x")
        with pytest.raises(NoSuchReplica):
            curator.get_version(f"{home}/v.txt", 7)

    def test_versions_empty_before_checkin(self, curator, home):
        curator.ingest(f"{home}/v2.txt", b"x")
        assert curator.versions(f"{home}/v2.txt") == []


class TestMetadataEdges:
    def test_metadata_on_missing_target(self, curator, home):
        with pytest.raises(NoSuchObject):
            curator.add_metadata(f"{home}/ghost.txt", "k", "v")

    def test_extract_with_wrong_data_type(self, curator, home):
        curator.ingest(f"{home}/x.bin", b"\x00", data_type="binary")
        from repro.errors import ExtractionError
        with pytest.raises(ExtractionError):
            curator.extract_metadata(f"{home}/x.bin", "fits header")

    def test_update_missing_mid(self, curator, home):
        curator.ingest(f"{home}/m.txt", b"x")
        with pytest.raises(MetadataError):
            curator.update_metadata(f"{home}/m.txt", 99999, "v")

    def test_structural_on_missing_collection(self, curator, home):
        with pytest.raises(NoSuchCollection):
            curator.define_structural(f"{home}/ghost", "attr")


class TestAuditOnDenial:
    def test_denied_actions_raise_before_side_effects(self, grid):
        grid.fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
        guest.login()
        before = grid.fed.mcat.total_objects()
        with pytest.raises(AccessDenied):
            guest.ingest(f"{grid.home}/nope.txt", b"x")
        assert grid.fed.mcat.total_objects() == before

    def test_acl_denial_counter(self, grid):
        grid.fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
        guest.login()
        grid.curator.ingest(f"{grid.home}/p.txt", b"x")
        denials = grid.fed.access.denials
        for _ in range(3):
            with pytest.raises(AccessDenied):
                guest.get(f"{grid.home}/p.txt")
        assert grid.fed.access.denials == denials + 3


class TestRmcollEdges:
    def test_rmcoll_needs_own(self, grid):
        grid.fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
        guest.login()
        grid.curator.mkcoll(f"{grid.home}/mine")
        grid.curator.grant(f"{grid.home}/mine", "guest@sdsc", "write")
        with pytest.raises(AccessDenied):
            guest.rmcoll(f"{grid.home}/mine")

    def test_rmcoll_missing(self, curator, home):
        with pytest.raises(NoSuchCollection):
            curator.rmcoll(f"{home}/ghost")


class TestRegisteredEdges:
    def test_register_file_for_missing_physical(self, grid):
        # registration succeeds (SRB trusts the pointer); retrieval fails
        grid.curator.register_file(f"{grid.home}/dangling", "unix-caltech",
                                   "/not/there.dat")
        info = grid.curator.stat(f"{grid.home}/dangling")
        assert info["size"] is None
        from repro.errors import NoSuchPhysicalFile
        with pytest.raises(NoSuchPhysicalFile):
            grid.curator.get(f"{grid.home}/dangling")

    def test_register_replica_on_data_object_refused(self, curator, home):
        curator.ingest(f"{home}/d.txt", b"x")
        with pytest.raises(UnsupportedOperation):
            curator.register_replica(f"{home}/d.txt", "SELECT 1")

    def test_shadow_listing_of_file_subpath(self, grid):
        drv = grid.fed.resources.physical("unix-caltech").driver
        drv.create("/cone/only.txt", b"x")
        grid.curator.register_directory(f"{grid.home}/sh", "unix-caltech",
                                        "/cone")
        listing = grid.curator.ls(f"{grid.home}/sh")
        assert [o["kind"] for o in listing["objects"]] == ["shadow-file"]
