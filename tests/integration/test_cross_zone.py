"""Integration tests for cross-zone federation.

The paper positions data grids as spanning "multiple administration
domains"; SRB's later releases federated whole *zones* (each with its own
MCAT and ticket authority).  This extension implements that: two zones
peer (`federate_with`), tickets cross-validate, and read operations on
paths in the peer's name space are forwarded to a server there, where the
peer's ACLs authorize the foreign principal.
"""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import (
    AccessDenied,
    NoSuchServer,
    SrbError,
    UnsupportedOperation,
)
from repro.mcat import Condition
from repro.net.simnet import Network


@pytest.fixture
def zones():
    """Two federated zones on one network: sdsc-zone and npaci-zone."""
    net = Network()
    a = Federation(zone="sdsc-zone", network=net)
    b = Federation(zone="npaci-zone", network=net)
    a.add_host("a-host")
    b.add_host("b-host")
    a.add_server("a-srb", "a-host", mcat=True)
    b.add_server("b-srb", "b-host", mcat=True)
    a.add_fs_resource("a-disk", "a-host")
    b.add_fs_resource("b-disk", "b-host")
    a.default_resource = "a-disk"
    b.default_resource = "b-disk"
    a.bootstrap_admin()
    b.bootstrap_admin("admin-b@npaci", "pw-b")
    a.federate_with(b)

    # content in zone B, curated by B's admin
    admin_b = SrbClient(b, "b-host", "b-srb", "admin-b@npaci", "pw-b")
    admin_b.login()
    admin_b.mkcoll("/npaci-zone/pub")
    admin_b.ingest("/npaci-zone/pub/report.txt", b"inter-zone bytes")
    admin_b.add_metadata("/npaci-zone/pub/report.txt", "series", "reports")

    # a user homed in zone A
    a.add_user("sekar@sdsc", "pw", role="curator")
    user_a = SrbClient(a, "a-host", "a-srb", "sekar@sdsc", "pw")
    user_a.login()
    return a, b, admin_b, user_a


class TestPeering:
    def test_requires_shared_network(self):
        a = Federation(zone="za")
        b = Federation(zone="zb")
        with pytest.raises(SrbError):
            a.federate_with(b)

    def test_rejects_same_zone_name(self):
        net = Network()
        a = Federation(zone="z", network=net)
        b = Federation(zone="z", network=net)
        with pytest.raises(SrbError):
            a.federate_with(b)

    def test_rejects_self(self):
        a = Federation(zone="z")
        with pytest.raises(SrbError):
            a.federate_with(a)

    def test_unfederated_zone_lookup_fails(self):
        a = Federation(zone="z")
        with pytest.raises(NoSuchServer):
            a.peer_zone("elsewhere")


class TestCrossZoneReads:
    def test_read_forwarded_after_grant(self, zones):
        a, b, admin_b, user_a = zones
        admin_b.grant("/npaci-zone/pub/report.txt", "sekar@sdsc", "read")
        data = user_a.get("/npaci-zone/pub/report.txt")
        assert data == b"inter-zone bytes"

    def test_peer_acls_enforced_for_foreign_principal(self, zones):
        a, b, admin_b, user_a = zones
        # no grant in zone B -> denied there, not at home
        with pytest.raises(AccessDenied):
            user_a.get("/npaci-zone/pub/report.txt")

    def test_browse_peer_collection(self, zones):
        a, b, admin_b, user_a = zones
        admin_b.grant("/npaci-zone/pub", "sekar@sdsc", "read")
        listing = user_a.ls("/npaci-zone/pub")
        assert [o["name"] for o in listing["objects"]] == ["report.txt"]

    def test_stat_and_metadata_forwarded(self, zones):
        a, b, admin_b, user_a = zones
        admin_b.grant("/npaci-zone/pub", "sekar@sdsc", "read")
        info = user_a.stat("/npaci-zone/pub/report.txt")
        assert info["size"] == len(b"inter-zone bytes")
        md = user_a.get_metadata("/npaci-zone/pub/report.txt")
        assert md[0]["attr"] == "series"

    def test_query_forwarded(self, zones):
        a, b, admin_b, user_a = zones
        admin_b.grant("/npaci-zone/pub", "sekar@sdsc", "read")
        r = user_a.query("/npaci-zone/pub",
                         [Condition("series", "=", "reports")])
        assert [row[0] for row in r.rows] == ["/npaci-zone/pub/report.txt"]

    def test_star_grant_covers_foreign_public(self, zones):
        a, b, admin_b, user_a = zones
        admin_b.grant("/npaci-zone/pub", "*", "read")
        assert user_a.get("/npaci-zone/pub/report.txt") == b"inter-zone bytes"

    def test_forwarding_costs_a_hop(self, zones):
        a, b, admin_b, user_a = zones
        admin_b.grant("/npaci-zone/pub", "*", "read")
        net = a.network
        m0 = net.messages_sent
        user_a.get("/npaci-zone/pub/report.txt")
        cross = net.messages_sent - m0
        # the same read issued directly at zone B's server uses fewer msgs
        direct = SrbClient(b, "b-host", "b-srb")
        m0 = net.messages_sent
        direct.get("/npaci-zone/pub/report.txt")
        local = net.messages_sent - m0
        assert cross == local + 2      # the A->B forwarding round trip


class TestCrossZoneBoundaries:
    def test_writes_refused(self, zones):
        a, b, admin_b, user_a = zones
        admin_b.grant("/npaci-zone/pub", "sekar@sdsc", "own")
        with pytest.raises(UnsupportedOperation):
            user_a.ingest("/npaci-zone/pub/new.txt", b"x")
        with pytest.raises(UnsupportedOperation):
            user_a.put("/npaci-zone/pub/report.txt", b"x")
        with pytest.raises(UnsupportedOperation):
            user_a.delete("/npaci-zone/pub/report.txt")
        with pytest.raises(UnsupportedOperation):
            user_a.mkcoll("/npaci-zone/pub/sub")

    def test_connecting_to_peer_server_allows_writes(self, zones):
        # the documented path for cross-zone writes: connect there
        a, b, admin_b, user_a = zones
        admin_b.grant("/npaci-zone/pub", "sekar@sdsc", "write")
        direct = SrbClient(b, "a-host", "b-srb")
        direct.ticket = user_a.ticket           # same SSO ticket, trusted
        direct.username = user_a.username
        direct.ingest("/npaci-zone/pub/from-a.txt", b"written directly")
        assert direct.get("/npaci-zone/pub/from-a.txt") == b"written directly"

    def test_unfederated_zone_path_stays_local(self, zones):
        a, b, admin_b, user_a = zones
        from repro.errors import NoSuchObject
        with pytest.raises(NoSuchObject):
            user_a.get("/unknown-zone/x")       # resolved (and missed) at A

    def test_audit_lands_in_serving_zone(self, zones):
        a, b, admin_b, user_a = zones
        admin_b.grant("/npaci-zone/pub", "*", "read")
        user_a.get("/npaci-zone/pub/report.txt")
        entries = [e for e in b.mcat.audit_query(action="get")
                   if e["principal"] == "sekar@sdsc"]
        assert len(entries) == 1                # zone B audited the access
        assert not [e for e in a.mcat.audit_query(action="get")
                    if e["principal"] == "sekar@sdsc"]
