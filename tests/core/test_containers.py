"""Unit tests for container aggregation."""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import (
    ContainerError,
    ResourceUnavailable,
    UnsupportedOperation,
)


@pytest.fixture
def env():
    fed = Federation(zone="demozone")
    fed.add_host("sdsc")
    fed.add_host("caltech")
    fed.add_server("srb1", "sdsc", mcat=True)
    fed.add_fs_resource("cache-sdsc", "sdsc", is_cache=True)
    fed.add_archive_resource("hpss-caltech", "caltech")
    fed.add_logical_resource("contres", ["cache-sdsc", "hpss-caltech"])
    fed.default_resource = "cache-sdsc"
    fed.bootstrap_admin()
    client = SrbClient(fed, "sdsc", "srb1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll("/demozone/data")
    return fed, client


class TestCreation:
    def test_container_has_replica_per_member(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        info = client.stat("/demozone/data/c1")
        assert info["kind"] == "container"
        assert {r["resource"] for r in info["replicas"]} == \
            {"cache-sdsc", "hpss-caltech"}

    def test_unknown_logical_resource(self, env):
        fed, client = env
        from repro.errors import NoSuchResource
        with pytest.raises(NoSuchResource):
            client.create_container("/demozone/data/c1", "ghostres")

    def test_get_container_rejects_plain_object(self, env):
        fed, client = env
        client.ingest("/demozone/data/plain", b"x")
        with pytest.raises(ContainerError):
            fed.containers.get_container("/demozone/data/plain")


class TestMembership:
    def test_ingest_into_container(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"alpha",
                      container="/demozone/data/c1")
        client.ingest("/demozone/data/m2", b"beta",
                      container="/demozone/data/c1")
        assert client.get("/demozone/data/m1") == b"alpha"
        assert client.get("/demozone/data/m2") == b"beta"

    def test_members_share_physical_file(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"alpha",
                      container="/demozone/data/c1")
        rep = client.stat("/demozone/data/m1")["replicas"][0]
        crep = client.stat("/demozone/data/c1")["replicas"][0]
        assert rep["physical_path"] == crep["physical_path"]
        assert rep["container_oid"] == client.stat("/demozone/data/c1")["oid"]

    def test_offsets_accumulate(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"12345",
                      container="/demozone/data/c1")
        client.ingest("/demozone/data/m2", b"678",
                      container="/demozone/data/c1")
        r1 = client.stat("/demozone/data/m1")["replicas"][0]
        r2 = client.stat("/demozone/data/m2")["replicas"][0]
        assert (r1["offset"], r1["size"]) == (0, 5)
        assert (r2["offset"], r2["size"]) == (5, 3)

    def test_container_size_tracks_total(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"12345",
                      container="/demozone/data/c1")
        client.ingest("/demozone/data/m2", b"678",
                      container="/demozone/data/c1")
        assert client.stat("/demozone/data/c1")["size"] == 8

    def test_container_overrides_resource(self, env):
        # "a container specification on ingestion overrides a resource"
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"x", resource="cache-sdsc",
                      container="/demozone/data/c1")
        rep = client.stat("/demozone/data/m1")["replicas"][0]
        assert rep["container_oid"] is not None

    def test_members_listed(self, env):
        fed, client = env
        coid = client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"a",
                      container="/demozone/data/c1")
        client.ingest("/demozone/data/m2", b"b",
                      container="/demozone/data/c1")
        assert len(fed.containers.members(coid)) == 2


class TestSyncAndFailover:
    def test_archive_copy_dirty_until_sync(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"alpha",
                      container="/demozone/data/c1")
        reps = {r["resource"]: r for r in
                client.stat("/demozone/data/c1")["replicas"]}
        assert not reps["cache-sdsc"]["is_dirty"]
        assert reps["hpss-caltech"]["is_dirty"]
        assert client.sync_container("/demozone/data/c1") == 1
        reps = {r["resource"]: r for r in
                client.stat("/demozone/data/c1")["replicas"]}
        assert not reps["hpss-caltech"]["is_dirty"]

    def test_member_readable_from_archive_after_cache_loss(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"alpha",
                      container="/demozone/data/c1")
        client.sync_container("/demozone/data/c1")
        fed.network.set_down("sdsc")   # cache host dies
        # read through the archive copy instead (server on sdsc is down too,
        # so drive the manager directly)
        member_rep = fed.mcat.replicas(
            fed.mcat.get_object("/demozone/data/m1")["oid"])[0]
        data, _res = fed.containers.read_member_deferred(member_rep)
        assert data == b"alpha"

    def test_unsynced_archive_copy_not_served(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"alpha",
                      container="/demozone/data/c1")
        fed.network.set_down("sdsc")   # only the dirty archive copy remains
        member_rep = fed.mcat.replicas(
            fed.mcat.get_object("/demozone/data/m1")["oid"])[0]
        with pytest.raises(ResourceUnavailable):
            fed.containers.read_member_deferred(member_rep)

    def test_sync_with_archive_down_raises(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"alpha",
                      container="/demozone/data/c1")
        fed.network.set_down("caltech")
        with pytest.raises(ResourceUnavailable):
            client.sync_container("/demozone/data/c1")


class TestRestrictions:
    def test_member_replication_unsupported(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"x",
                      container="/demozone/data/c1")
        with pytest.raises(UnsupportedOperation):
            client.replicate("/demozone/data/m1", "cache-sdsc")

    def test_member_physical_move_unsupported(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"x",
                      container="/demozone/data/c1")
        with pytest.raises(UnsupportedOperation):
            client.physical_move("/demozone/data/m1", "cache-sdsc")

    def test_member_put_updates_in_place(self, env):
        # "tarfiles but with more flexibility in accessing and updating"
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"x",
                      container="/demozone/data/c1")
        client.put("/demozone/data/m1", b"updated-bytes")
        assert client.get("/demozone/data/m1") == b"updated-bytes"

    def test_container_with_members_not_deletable(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.ingest("/demozone/data/m1", b"x",
                      container="/demozone/data/c1")
        with pytest.raises(ContainerError):
            client.delete("/demozone/data/c1")

    def test_empty_container_deletable(self, env):
        fed, client = env
        client.create_container("/demozone/data/c1", "contres")
        client.delete("/demozone/data/c1")
        from repro.errors import NoSuchObject
        with pytest.raises(NoSuchObject):
            client.stat("/demozone/data/c1")
