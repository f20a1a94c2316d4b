"""Tests for checksum recording and replica verification."""

import pytest

from repro.core.server import content_checksum
from repro.errors import AccessDenied


class TestRecording:
    def test_ingest_records_checksum(self, curator, home):
        curator.ingest(f"{home}/c.txt", b"payload")
        info = curator.stat(f"{home}/c.txt")
        assert info["checksum"] == content_checksum(b"payload")

    def test_put_updates_checksum(self, curator, home):
        curator.ingest(f"{home}/c2.txt", b"v1")
        curator.put(f"{home}/c2.txt", b"v2")
        assert curator.stat(f"{home}/c2.txt")["checksum"] == \
            content_checksum(b"v2")

    def test_copy_gets_own_checksum(self, curator, home):
        curator.ingest(f"{home}/src.txt", b"same bytes")
        curator.copy(f"{home}/src.txt", f"{home}/dst.txt")
        assert curator.stat(f"{home}/dst.txt")["checksum"] == \
            content_checksum(b"same bytes")

    def test_registered_objects_have_no_checksum(self, grid):
        grid.fed.web.publish("http://x.org/u", b"c")
        grid.curator.register_url(f"{grid.home}/u", "http://x.org/u")
        assert grid.curator.stat(f"{grid.home}/u")["checksum"] is None


class TestVerification:
    def test_all_replicas_ok(self, curator, home):
        curator.ingest(f"{home}/v.txt", b"x", resource="logrsrc1")
        report = curator.verify(f"{home}/v.txt")
        assert report == {1: "ok", 2: "ok"}

    def test_corruption_detected(self, grid):
        grid.curator.ingest(f"{grid.home}/corr.txt", b"good",
                            resource="logrsrc1")
        # corrupt replica 1 behind SRB's back
        rep = grid.curator.stat(f"{grid.home}/corr.txt")["replicas"][0]
        drv = grid.fed.resources.physical(rep["resource"]).driver
        drv.write(rep["physical_path"], b"evil", offset=0)
        report = grid.curator.verify(f"{grid.home}/corr.txt")
        assert report[1] == "mismatch"
        assert report[2] == "ok"

    def test_corrupting_the_archive_copy_leaves_the_disk_copy(self, grid):
        """Both replicas of a ``logrsrc1`` ingest start as the caller's
        own bytes object; a write to one copies it first."""
        payload = b"good bytes"
        grid.curator.ingest(f"{grid.home}/corr2.txt", payload,
                            resource="logrsrc1")
        rep = grid.curator.stat(f"{grid.home}/corr2.txt")["replicas"][1]
        drv = grid.fed.resources.physical(rep["resource"]).driver
        assert drv.kind == "archive"
        drv.write(rep["physical_path"], b"evil", offset=0)
        report = grid.curator.verify(f"{grid.home}/corr2.txt")
        assert report == {1: "ok", 2: "mismatch"}
        assert payload == b"good bytes"
        assert grid.curator.get(f"{grid.home}/corr2.txt",
                                replica_num=1) == b"good bytes"

    def test_a_buffer_changed_after_ingest_leaves_the_object(self, grid):
        payload = bytearray(b"as ingested")
        grid.curator.ingest(f"{grid.home}/buf.txt", payload,
                            resource="logrsrc1")
        payload[:2] = b"XX"
        assert grid.curator.get(f"{grid.home}/buf.txt") == b"as ingested"
        assert grid.curator.verify(f"{grid.home}/buf.txt") == \
            {1: "ok", 2: "ok"}

    def test_unreachable_replica_reported(self, grid):
        grid.curator.ingest(f"{grid.home}/u.txt", b"x", resource="logrsrc1")
        grid.fed.network.set_down("caltech")
        report = grid.curator.verify(f"{grid.home}/u.txt")
        assert report[1] == "ok"
        assert report[2] == "unavailable"

    def test_semantic_replica_reports_mismatch(self, curator, home):
        # "SRB does not check for syntactic or semantic equality" — verify
        # honestly reports the tiff/gif pair as syntactically different
        curator.ingest(f"{home}/img.tiff", b"TIFF")
        curator.ingest_replica(f"{home}/img.tiff", b"GIF",
                               resource="unix-caltech")
        report = curator.verify(f"{home}/img.tiff")
        assert report[1] == "ok"
        assert report[2] == "mismatch"

    def test_container_members_skipped(self, grid):
        grid.fed.add_logical_resource("cres9", ["unix-sdsc"])
        grid.curator.create_container(f"{grid.home}/c9", "cres9")
        grid.curator.ingest(f"{grid.home}/m9", b"x",
                            container=f"{grid.home}/c9")
        report = grid.curator.verify(f"{grid.home}/m9")
        assert report == {1: "skipped-container"}

    def test_verify_needs_read(self, grid):
        from repro.core import SrbClient
        grid.fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
        guest.login()
        grid.curator.ingest(f"{grid.home}/priv9.txt", b"x")
        with pytest.raises(AccessDenied):
            guest.verify(f"{grid.home}/priv9.txt")

    def test_verify_audited(self, grid):
        grid.curator.ingest(f"{grid.home}/a9.txt", b"x")
        grid.curator.verify(f"{grid.home}/a9.txt")
        log = grid.admin.audit_log(action="verify")
        assert len(log) == 1
