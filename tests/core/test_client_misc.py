"""Tests for SrbClient plumbing: connection management, logout, errors."""

import pytest

from repro.core import SrbClient
from repro.errors import AuthError, HostUnreachable, NoSuchServer


class TestConnectionManagement:
    def test_unknown_client_host_rejected(self, grid):
        with pytest.raises(HostUnreachable):
            SrbClient(grid.fed, "ghost-host", "srb1")

    def test_unknown_server_rejected(self, grid):
        with pytest.raises(NoSuchServer):
            SrbClient(grid.fed, "laptop", "ghost-srb")

    def test_connect_to_unknown_server_rejected(self, grid):
        with pytest.raises(NoSuchServer):
            grid.curator.connect("ghost-srb")
        # the old connection survives the failed switch
        assert grid.curator.ls(grid.home)

    def test_login_requires_credentials(self, grid):
        anon = SrbClient(grid.fed, "laptop", "srb1")
        with pytest.raises(AuthError):
            anon.login()

    def test_login_with_explicit_credentials(self, grid):
        anon = SrbClient(grid.fed, "laptop", "srb1")
        anon.login("sekar@sdsc", "secret")
        assert anon.username == "sekar@sdsc"
        assert anon.ticket is not None

    def test_explicit_empty_credential_is_not_replaced(self, grid):
        """A credential given, even empty, is the one that signs on; only
        one left out falls back to what the client was built with."""
        client = SrbClient(grid.fed, "laptop", "srb1", "sekar@sdsc",
                           "secret")
        with pytest.raises(AuthError):
            client.login("sekar@sdsc", "")
        with pytest.raises(AuthError):
            client.login("", "secret")
        assert client.ticket is None
        assert client.login(password=None) is client.ticket is not None

    def test_logout_drops_ticket(self, grid):
        grid.curator.logout()
        assert grid.curator.ticket is None
        # now treated as public
        from repro.errors import AccessDenied
        with pytest.raises(AccessDenied):
            grid.curator.ls(grid.home)
        grid.curator.login()               # restore for other assertions
        assert grid.curator.ls(grid.home)

    def test_relogin_reissues_ticket(self, grid):
        first = grid.curator.ticket
        grid.curator.login()
        assert grid.curator.ticket is not first


class TestRpcPayloads:
    def test_conditions_cross_the_wire(self, grid):
        """Condition dataclasses serialize through the RPC size model."""
        from repro.mcat import Condition, DisplayOnly
        grid.curator.ingest(f"{grid.home}/w.txt", b"x")
        grid.curator.add_metadata(f"{grid.home}/w.txt", "k", "v")
        r = grid.curator.query(grid.home,
                               [Condition("k", "=", "v"), DisplayOnly("k")])
        assert len(r.rows) == 1

    def test_large_payload_costs_more_wire_time(self, grid):
        clock = grid.fed.clock
        t0 = clock.now
        grid.curator.ingest(f"{grid.home}/small.bin", b"x" * 100)
        small = clock.now - t0
        t0 = clock.now
        grid.curator.ingest(f"{grid.home}/large.bin", b"x" * 2_000_000)
        large = clock.now - t0
        assert large > small * 3

    def test_none_ticket_travels(self, grid):
        anon = SrbClient(grid.fed, "laptop", "srb1")
        grid.curator.ingest(f"{grid.home}/open.bin", b"x")
        grid.curator.grant(f"{grid.home}/open.bin", "*", "read")
        assert anon.get(f"{grid.home}/open.bin") == b"x"
