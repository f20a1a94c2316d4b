"""Server tests: links, locks/pins through the API, checkout/checkin,
namespace listing, migration, federation behaviours."""

import pytest

from repro.core import SrbClient
from repro.errors import (
    AccessDenied,
    LockConflict,
    NoSuchObject,
    SessionExpired,
    InvalidTicket,
)


class TestLinks:
    def test_link_reads_target(self, curator, home):
        curator.ingest(f"{home}/orig.txt", b"data")
        curator.link(f"{home}/orig.txt", f"{home}/lnk.txt")
        assert curator.get(f"{home}/lnk.txt") == b"data"

    def test_link_to_link_collapses(self, curator, home):
        curator.ingest(f"{home}/o.txt", b"x")
        curator.link(f"{home}/o.txt", f"{home}/l1.txt")
        curator.link(f"{home}/l1.txt", f"{home}/l2.txt")
        # l2 points straight at the original, not at l1
        raw = curator.stat(f"{home}/l2.txt")
        assert raw["kind"] == "link"
        assert raw["target"] == f"{home}/o.txt"
        assert curator.get(f"{home}/l2.txt") == b"x"

    def test_multiple_links_allowed(self, curator, home):
        curator.ingest(f"{home}/m.txt", b"x")
        curator.link(f"{home}/m.txt", f"{home}/la.txt")
        curator.link(f"{home}/m.txt", f"{home}/lb.txt")
        assert curator.get(f"{home}/la.txt") == \
            curator.get(f"{home}/lb.txt") == b"x"

    def test_link_metadata_view_through(self, curator, home):
        curator.ingest(f"{home}/t.txt", b"x")
        curator.add_metadata(f"{home}/t.txt", "orig", "yes")
        curator.link(f"{home}/t.txt", f"{home}/tl.txt")
        curator.add_metadata(f"{home}/tl.txt", "linkonly", "yes")
        rows = curator.get_metadata(f"{home}/tl.txt")
        attrs = {r["attr"]: r.get("via_link", False) for r in rows}
        assert attrs == {"linkonly": False, "orig": True}

    def test_delete_link_unlinks_only(self, curator, home):
        curator.ingest(f"{home}/keep.txt", b"x")
        curator.link(f"{home}/keep.txt", f"{home}/kl.txt")
        curator.delete(f"{home}/kl.txt")
        assert curator.get(f"{home}/keep.txt") == b"x"
        with pytest.raises(NoSuchObject):
            curator.get(f"{home}/kl.txt")

    def test_link_inherits_target_acl_for_read(self, grid):
        grid.fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
        guest.login()
        grid.curator.ingest(f"{grid.home}/p.txt", b"x")
        grid.curator.link(f"{grid.home}/p.txt", f"{grid.home}/pl.txt")
        grid.curator.grant(f"{grid.home}/pl.txt", "guest@sdsc", "read")
        # link resolves to target; target not granted -> read via link
        # requires permission on the TARGET (access control of the original
        # object is inherited by the linked object)
        with pytest.raises(AccessDenied):
            guest.get(f"{grid.home}/pl.txt")
        grid.curator.grant(f"{grid.home}/p.txt", "guest@sdsc", "read")
        assert guest.get(f"{grid.home}/pl.txt") == b"x"

    def test_link_target_must_exist(self, curator, home):
        with pytest.raises(NoSuchObject):
            curator.link(f"{home}/ghost.txt", f"{home}/gl.txt")

    def test_link_collection(self, curator, home):
        curator.mkcoll(f"{home}/realcoll")
        curator.link(f"{home}/realcoll", f"{home}/colllink")
        obj = curator.stat(f"{home}/colllink")
        assert obj["kind"] == "link"
        assert obj["target"] == f"{home}/realcoll"


class TestLocksViaServer:
    @pytest.fixture
    def other(self, grid):
        grid.fed.add_user("moore@sdsc", "pw", role="contributor")
        c = SrbClient(grid.fed, "sdsc", "srb1", "moore@sdsc", "pw")
        c.login()
        return c

    def test_shared_lock_blocks_foreign_put(self, grid, other):
        grid.curator.ingest(f"{grid.home}/f.txt", b"v1")
        grid.curator.grant(f"{grid.home}/f.txt", "moore@sdsc", "write")
        grid.curator.lock(f"{grid.home}/f.txt", "shared")
        with pytest.raises(LockConflict):
            other.put(f"{grid.home}/f.txt", b"v2")
        assert other.get(f"{grid.home}/f.txt") == b"v1"   # reads allowed

    def test_exclusive_lock_blocks_reads(self, grid, other):
        grid.curator.ingest(f"{grid.home}/e.txt", b"v1")
        grid.curator.grant(f"{grid.home}/e.txt", "moore@sdsc", "write")
        grid.curator.lock(f"{grid.home}/e.txt", "exclusive")
        with pytest.raises(LockConflict):
            other.get(f"{grid.home}/e.txt")

    def test_unlock_restores_access(self, grid, other):
        grid.curator.ingest(f"{grid.home}/u.txt", b"v1")
        grid.curator.grant(f"{grid.home}/u.txt", "moore@sdsc", "write")
        grid.curator.lock(f"{grid.home}/u.txt", "exclusive")
        grid.curator.unlock(f"{grid.home}/u.txt")
        other.put(f"{grid.home}/u.txt", b"v2")

    def test_lock_expires_on_virtual_clock(self, grid, other):
        grid.curator.ingest(f"{grid.home}/x.txt", b"v1")
        grid.curator.grant(f"{grid.home}/x.txt", "moore@sdsc", "write")
        grid.curator.lock(f"{grid.home}/x.txt", "exclusive", lifetime_s=100.0)
        grid.fed.clock.advance(101.0)
        other.put(f"{grid.home}/x.txt", b"v2")   # expired

    def test_pin_protects_archive_cache(self, grid):
        grid.curator.ingest(f"{grid.home}/pin.txt", b"x",
                            resource="hpss-caltech")
        grid.curator.pin(f"{grid.home}/pin.txt", "hpss-caltech")
        drv = grid.fed.resources.physical("hpss-caltech").driver
        assert drv.purge_cache() == 0        # pinned file survives
        grid.curator.unpin(f"{grid.home}/pin.txt", "hpss-caltech")
        assert drv.purge_cache() == 1

    def test_unpin_releases_only_the_callers_pin(self, grid, other):
        """The archive's cache pin stands while any catalog pin does: a
        caller holding none, or one of two holders, releases nothing."""
        path = f"{grid.home}/held.txt"
        grid.curator.ingest(path, b"x", resource="hpss-caltech")
        grid.curator.pin(path, "hpss-caltech")
        (rep,) = grid.curator.stat(path)["replicas"]
        drv = grid.fed.resources.physical("hpss-caltech").driver
        grid.fed.add_user("nobody@sdsc", "pw")
        nobody = SrbClient(grid.fed, "laptop", "srb1", "nobody@sdsc", "pw")
        nobody.login()
        assert nobody.unpin(path, "hpss-caltech") == 0
        assert drv.is_pinned(rep["physical_path"])
        assert drv.purge_cache() == 0
        grid.curator.grant(path, "moore@sdsc", "write")
        other.pin(path, "hpss-caltech")
        assert other.unpin(path, "hpss-caltech") == 1
        assert drv.purge_cache() == 0            # the curator's pin holds
        assert grid.curator.unpin(path, "hpss-caltech") == 1
        assert not drv.is_pinned(rep["physical_path"])
        assert drv.purge_cache() == 1


class TestCheckoutCheckin:
    def test_versions_preserved(self, curator, home):
        curator.ingest(f"{home}/v.txt", b"version one")
        curator.checkout(f"{home}/v.txt")
        new_v = curator.checkin(f"{home}/v.txt", b"version two")
        assert new_v == 2
        assert curator.get(f"{home}/v.txt") == b"version two"
        assert curator.get_version(f"{home}/v.txt", 1) == b"version one"

    def test_version_listing(self, curator, home):
        curator.ingest(f"{home}/v2.txt", b"one")
        curator.checkout(f"{home}/v2.txt")
        curator.checkin(f"{home}/v2.txt", b"two")
        curator.checkout(f"{home}/v2.txt")
        curator.checkin(f"{home}/v2.txt", b"three")
        versions = curator.versions(f"{home}/v2.txt")
        assert [v["version_num"] for v in versions] == [1, 2]
        assert curator.stat(f"{home}/v2.txt")["version"] == 3

    def test_checkout_blocks_other_users(self, grid):
        grid.fed.add_user("moore@sdsc", "pw")
        other = SrbClient(grid.fed, "sdsc", "srb1", "moore@sdsc", "pw")
        other.login()
        grid.curator.ingest(f"{grid.home}/co.txt", b"x")
        grid.curator.grant(f"{grid.home}/co.txt", "moore@sdsc", "write")
        grid.curator.checkout(f"{grid.home}/co.txt")
        with pytest.raises(LockConflict):
            other.put(f"{grid.home}/co.txt", b"y")


class TestNamespaceListing:
    def test_ls_shows_kinds(self, grid):
        grid.curator.ingest(f"{grid.home}/d.txt", b"x",
                            data_type="ascii text")
        grid.fed.web.publish("http://x.org/u", b"c")
        grid.curator.register_url(f"{grid.home}/u", "http://x.org/u")
        grid.curator.mkcoll(f"{grid.home}/sub")
        listing = grid.curator.ls(grid.home)
        kinds = {o["name"]: o["kind"] for o in listing["objects"]}
        assert kinds == {"d.txt": "data", "u": "url"}
        assert listing["collections"] == [f"{grid.home}/sub"]

    def test_ls_hides_unreadable_objects(self, grid):
        grid.fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
        guest.login()
        grid.curator.ingest(f"{grid.home}/vis.txt", b"x")
        grid.curator.ingest(f"{grid.home}/hid.txt", b"x")
        grid.curator.grant(grid.home, "guest@sdsc", "read")
        # revoke nothing: both visible through collection read
        names = [o["name"] for o in guest.ls(grid.home)["objects"]]
        assert set(names) == {"vis.txt", "hid.txt"}

    def test_rmcoll_requires_empty(self, curator, home):
        curator.mkcoll(f"{home}/full")
        curator.ingest(f"{home}/full/x.txt", b"x")
        from repro.errors import NotEmpty
        with pytest.raises(NotEmpty):
            curator.rmcoll(f"{home}/full")
        curator.delete(f"{home}/full/x.txt")
        curator.rmcoll(f"{home}/full")


class TestMigration:
    def test_names_survive_migration(self, curator, home):
        curator.mkcoll(f"{home}/proj")
        for i in range(4):
            curator.ingest(f"{home}/proj/f{i}.dat", f"data{i}".encode())
        moved = curator.migrate_collection(f"{home}/proj", "unix-caltech")
        assert moved == 4
        for i in range(4):
            info = curator.stat(f"{home}/proj/f{i}.dat")
            assert info["replicas"][0]["resource"] == "unix-caltech"
            assert curator.get(f"{home}/proj/f{i}.dat") == f"data{i}".encode()

    def test_migration_skips_container_members(self, grid):
        grid.fed.add_logical_resource("cres", ["unix-sdsc"])
        grid.curator.mkcoll(f"{grid.home}/mixed")
        grid.curator.create_container(f"{grid.home}/mixed/c", "cres")
        grid.curator.ingest(f"{grid.home}/mixed/member", b"in-cont",
                            container=f"{grid.home}/mixed/c")
        grid.curator.ingest(f"{grid.home}/mixed/plain", b"plain")
        moved = grid.curator.migrate_collection(f"{grid.home}/mixed",
                                                "unix-caltech")
        assert moved == 1
        assert grid.curator.get(f"{grid.home}/mixed/member") == b"in-cont"


class TestFederationBehaviour:
    def test_any_server_reaches_any_data(self, grid):
        grid.curator.ingest(f"{grid.home}/fed.txt", b"x",
                            resource="unix-sdsc")
        grid.curator.connect("srb2")     # remote, non-MCAT server
        assert grid.curator.get(f"{grid.home}/fed.txt") == b"x"

    def test_remote_server_costs_more(self, grid):
        grid.curator.ingest(f"{grid.home}/cost.txt", b"x" * 100,
                            resource="unix-sdsc")
        clock = grid.fed.clock
        t0 = clock.now
        grid.curator.get(f"{grid.home}/cost.txt")
        local_cost = clock.now - t0
        grid.curator.connect("srb2")
        t0 = clock.now
        grid.curator.get(f"{grid.home}/cost.txt")
        remote_cost = clock.now - t0
        assert remote_cost > local_cost

    def test_ticket_works_across_servers(self, grid):
        ticket = grid.curator.ticket
        grid.curator.connect("srb2")
        assert grid.curator.ticket is ticket     # same SSO ticket reused
        grid.curator.ls(grid.home)               # validates on srb2

    def test_expired_ticket_rejected(self, grid):
        grid.fed.clock.advance(9 * 3600.0)       # past 8h ticket lifetime
        with pytest.raises(InvalidTicket):
            grid.curator.ls(grid.home)

    def test_public_without_ticket_sees_public_grants(self, grid):
        grid.curator.ingest(f"{grid.home}/pub.txt", b"open")
        grid.curator.grant(f"{grid.home}/pub.txt", "*", "read")
        anon = SrbClient(grid.fed, "laptop", "srb1")
        assert anon.get(f"{grid.home}/pub.txt") == b"open"

    def test_public_denied_without_grant(self, grid):
        grid.curator.ingest(f"{grid.home}/closed.txt", b"sealed")
        anon = SrbClient(grid.fed, "laptop", "srb1")
        with pytest.raises(AccessDenied):
            anon.get(f"{grid.home}/closed.txt")

    def test_stats_snapshot(self, grid):
        s = grid.fed.stats()
        assert s["virtual_time_s"] > 0
        assert s["messages"] > 0
        assert s["catalog_objects"] >= 0
