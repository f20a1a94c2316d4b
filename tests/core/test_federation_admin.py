"""Tests for federation wiring, cache management and proxy administration."""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import NoSuchServer, SrbError
from repro.mysrb import Browser, MySrbApp
from repro.workload import standard_grid


class TestWiring:
    def test_duplicate_server_name_rejected(self):
        fed = Federation()
        fed.add_host("h")
        fed.add_server("s", "h", mcat=True)
        with pytest.raises(SrbError):
            fed.add_server("s", "h")

    def test_single_mcat_server_enforced(self):
        fed = Federation()
        fed.add_host("h")
        fed.add_server("s1", "h", mcat=True)
        with pytest.raises(SrbError):
            fed.add_server("s2", "h", mcat=True)

    def test_mcat_server_required(self):
        fed = Federation()
        fed.add_host("h")
        fed.add_server("s1", "h")           # non-MCAT only
        with pytest.raises(NoSuchServer):
            _ = fed.mcat_server

    def test_unknown_server_lookup(self):
        fed = Federation()
        with pytest.raises(NoSuchServer):
            fed.server("nope")

    def test_server_on_unknown_host_rejected(self):
        fed = Federation()
        from repro.errors import HostUnreachable
        with pytest.raises(HostUnreachable):
            fed.add_server("s", "ghost-host", mcat=True)

    def test_bootstrap_admin_idempotent(self):
        fed = Federation()
        t1 = fed.bootstrap_admin()
        t2 = fed.bootstrap_admin()
        assert t1.principal == t2.principal

    def test_proxy_command_needs_existing_server(self):
        fed = Federation()
        with pytest.raises(NoSuchServer):
            fed.install_proxy_command("ghost", "cmd", lambda a: b"")

    def test_builtin_proxy_functions_present(self):
        fed = Federation()
        assert "srbps" in fed.proxy_functions
        assert "extract-info" in fed.proxy_functions


class TestCacheSweep:
    def test_sweep_purges_unpinned_archives_only(self):
        g = standard_grid()
        g.curator.ingest(f"{g.home}/a.dat", b"a", resource="hpss-caltech")
        g.curator.ingest(f"{g.home}/b.dat", b"b", resource="hpss-caltech")
        g.curator.ingest(f"{g.home}/c.dat", b"c", resource="unix-sdsc")
        g.curator.pin(f"{g.home}/a.dat", "hpss-caltech")
        purged = g.fed.cache_sweep()
        assert purged == {"hpss-caltech": 1}     # only the unpinned b.dat
        drv = g.fed.resources.physical("hpss-caltech").driver
        rep = g.curator.stat(f"{g.home}/a.dat")["replicas"][0]
        assert drv.is_online(rep["physical_path"])

    def test_swept_files_still_readable_from_tape(self):
        g = standard_grid()
        g.curator.ingest(f"{g.home}/t.dat", b"tape me",
                         resource="hpss-caltech")
        g.fed.cache_sweep()
        assert g.curator.get(f"{g.home}/t.dat") == b"tape me"

    def test_sweep_with_no_archives(self):
        fed = Federation()
        fed.add_host("h")
        fed.add_fs_resource("fs", "h")
        assert fed.cache_sweep() == {}


class TestResourcesPage:
    def test_resources_listed(self):
        g = standard_grid()
        app = MySrbApp(g.fed)
        browser = Browser(app)
        browser.login("sekar@sdsc", "secret")
        page = browser.get("/resources")
        assert page.code == 200
        for name in ("unix-sdsc", "hpss-caltech", "dlib1", "logrsrc1"):
            assert name in page.text
        assert "archive" in page.text
        assert "unix-sdsc, hpss-caltech" in page.text   # logical members

    def test_down_state_shown(self):
        g = standard_grid()
        g.fed.network.set_down("caltech")
        app = MySrbApp(g.fed)
        browser = Browser(app)
        browser.login("sekar@sdsc", "secret")
        assert "DOWN" in browser.get("/resources").text
