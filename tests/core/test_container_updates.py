"""Tests for in-place container member updates and compaction."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Federation, SrbClient


@pytest.fixture
def env():
    fed = Federation(zone="demozone")
    fed.add_host("h0")
    fed.add_host("h1")
    fed.add_server("s0", "h0", mcat=True)
    fed.add_fs_resource("cache", "h0", is_cache=True)
    fed.add_archive_resource("tape", "h1")
    fed.add_logical_resource("cres", ["cache", "tape"])
    fed.default_resource = "cache"
    fed.bootstrap_admin()
    client = SrbClient(fed, "h0", "s0", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll("/demozone/d")
    client.create_container("/demozone/d/box", "cres")
    return fed, client


def fill(client, blobs):
    for i, blob in enumerate(blobs):
        client.ingest(f"/demozone/d/m{i}", blob, container="/demozone/d/box")


class TestReplaceMember:
    def test_update_visible(self, env):
        fed, client = env
        fill(client, [b"aaa", b"bbb"])
        client.put("/demozone/d/m0", b"AAAA")
        assert client.get("/demozone/d/m0") == b"AAAA"
        assert client.get("/demozone/d/m1") == b"bbb"

    def test_size_change_supported(self, env):
        fed, client = env
        fill(client, [b"short"])
        client.put("/demozone/d/m0", b"much longer replacement content")
        assert client.get("/demozone/d/m0") == \
            b"much longer replacement content"
        assert client.stat("/demozone/d/m0")["size"] == 31

    def test_update_appends_garbage(self, env):
        fed, client = env
        fill(client, [b"12345"])
        assert client.container_garbage("/demozone/d/box") == 0
        client.put("/demozone/d/m0", b"67890")
        assert client.container_garbage("/demozone/d/box") == 5

    def test_repeated_updates_accumulate_garbage(self, env):
        fed, client = env
        fill(client, [b"x" * 10])
        for _ in range(4):
            client.put("/demozone/d/m0", b"y" * 10)
        assert client.container_garbage("/demozone/d/box") == 40

    def test_update_marks_archive_dirty(self, env):
        fed, client = env
        fill(client, [b"v1"])
        client.sync_container("/demozone/d/box")
        client.put("/demozone/d/m0", b"v2")
        reps = {r["resource"]: r["is_dirty"]
                for r in client.stat("/demozone/d/box")["replicas"]}
        assert reps["tape"] is True
        client.sync_container("/demozone/d/box")
        # after sync the archive copy serves the update too
        fed.network.set_down("h0")
        member = fed.mcat.replicas(
            fed.mcat.get_object("/demozone/d/m0")["oid"])[0]
        assert fed.containers.read_member_deferred(member)[0] == b"v2"


class TestCompact:
    def test_compact_reclaims_garbage(self, env):
        fed, client = env
        fill(client, [b"aaaa", b"bbbb"])
        client.put("/demozone/d/m0", b"AA")
        reclaimed = client.compact_container("/demozone/d/box")
        assert reclaimed == 4                 # the dead "aaaa" slice
        assert client.container_garbage("/demozone/d/box") == 0

    def test_members_intact_after_compact(self, env):
        fed, client = env
        fill(client, [b"one", b"two", b"three"])
        client.put("/demozone/d/m1", b"TWO-NEW")
        client.compact_container("/demozone/d/box")
        assert client.get("/demozone/d/m0") == b"one"
        assert client.get("/demozone/d/m1") == b"TWO-NEW"
        assert client.get("/demozone/d/m2") == b"three"

    def test_compact_tightens_layout(self, env):
        fed, client = env
        fill(client, [b"aa", b"bb"])
        client.put("/demozone/d/m0", b"cc")
        client.compact_container("/demozone/d/box")
        members = fed.containers.members(
            fed.mcat.get_object("/demozone/d/box")["oid"])
        offsets = [(m["offset"], m["size"]) for m in members]
        # gap-free: offsets tile [0, total)
        cursor = 0
        for offset, size in offsets:
            assert offset == cursor
            cursor += size
        assert client.stat("/demozone/d/box")["size"] == cursor

    def test_compact_noop_when_clean(self, env):
        fed, client = env
        fill(client, [b"abc"])
        assert client.compact_container("/demozone/d/box") == 0

    def test_compact_requires_write(self, env):
        fed, client = env
        fill(client, [b"x"])
        fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(fed, "h0", "s0", "guest@sdsc", "pw")
        guest.login()
        from repro.errors import AccessDenied
        with pytest.raises(AccessDenied):
            guest.compact_container("/demozone/d/box")


class TestPropertyUpdateCompact:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.binary(min_size=1, max_size=24), min_size=1,
                    max_size=6),
           st.lists(st.tuples(st.integers(0, 5),
                              st.binary(min_size=1, max_size=24)),
                    max_size=8),
           st.booleans())
    def test_updates_then_optional_compact_preserve_contents(
            self, blobs, updates, do_compact):
        fed = Federation(zone="z")
        fed.add_host("h")
        fed.add_server("s", "h", mcat=True)
        fed.add_fs_resource("r", "h")
        fed.add_logical_resource("lr", ["r"])
        fed.bootstrap_admin()
        client = SrbClient(fed, "h", "s", "srbadmin@sdsc", "hunter2")
        client.login()
        client.mkcoll("/z/d")
        client.create_container("/z/d/box", "lr")
        state = {}
        for i, blob in enumerate(blobs):
            client.ingest(f"/z/d/m{i}", blob, container="/z/d/box")
            state[i] = blob
        for idx, new_blob in updates:
            if idx in state:
                client.put(f"/z/d/m{idx}", new_blob)
                state[idx] = new_blob
        if do_compact:
            client.compact_container("/z/d/box")
            assert client.container_garbage("/z/d/box") == 0
        for i, blob in state.items():
            assert client.get(f"/z/d/m{i}") == blob
