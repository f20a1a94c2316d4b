"""Unit tests for the resource registry + web space."""

import pytest

from repro.errors import NoSuchPhysicalFile, NoSuchResource, StorageError
from repro.net.simnet import Network
from repro.storage.memfs import MemFsDriver
from repro.storage.resource import PhysicalResource, ResourceRegistry
from repro.storage.web import WebSpace


@pytest.fixture
def net():
    n = Network()
    n.add_host("sdsc")
    n.add_host("caltech")
    return n


@pytest.fixture
def reg(net):
    r = ResourceRegistry(net)
    r.add_physical(PhysicalResource("unix-sdsc", "sdsc", MemFsDriver()))
    r.add_physical(PhysicalResource("unix-caltech", "caltech", MemFsDriver()))
    return r


class TestPhysical:
    def test_lookup(self, reg):
        assert reg.physical("unix-sdsc").host == "sdsc"

    def test_unknown(self, reg):
        with pytest.raises(NoSuchResource):
            reg.physical("nope")

    def test_duplicate_name_rejected(self, reg):
        with pytest.raises(StorageError):
            reg.add_physical(PhysicalResource("unix-sdsc", "sdsc",
                                              MemFsDriver()))

    def test_unknown_host_rejected(self, reg):
        from repro.errors import HostUnreachable
        with pytest.raises(HostUnreachable):
            reg.add_physical(PhysicalResource("x", "ghost", MemFsDriver()))

    def test_bad_rtype_rejected(self):
        with pytest.raises(StorageError):
            PhysicalResource("x", "sdsc", MemFsDriver(), rtype="floppy")

    def test_availability_follows_host(self, reg, net):
        assert reg.available("unix-sdsc")
        net.set_down("sdsc")
        assert not reg.available("unix-sdsc")

    def test_describe(self, reg):
        d = reg.describe("unix-sdsc")
        assert d["kind"] == "physical" and d["up"] is True


class TestLogical:
    def test_resolve_logical_in_order(self, reg):
        reg.add_logical("lr", ["unix-caltech", "unix-sdsc"])
        assert [r.name for r in reg.resolve("lr")] == \
            ["unix-caltech", "unix-sdsc"]

    def test_resolve_physical_to_itself(self, reg):
        assert [r.name for r in reg.resolve("unix-sdsc")] == ["unix-sdsc"]

    def test_logical_needs_existing_members(self, reg):
        with pytest.raises(NoSuchResource):
            reg.add_logical("lr", ["ghost"])

    def test_duplicate_members_rejected(self, reg):
        with pytest.raises(StorageError):
            reg.add_logical("lr", ["unix-sdsc", "unix-sdsc"])

    def test_name_collision_with_physical(self, reg):
        with pytest.raises(StorageError):
            reg.add_logical("unix-sdsc", ["unix-caltech"])

    def test_describe_logical(self, reg):
        reg.add_logical("lr", ["unix-sdsc"])
        assert reg.describe("lr")["members"] == ["unix-sdsc"]


class TestWebSpace:
    def test_publish_fetch(self, net):
        web = WebSpace(net)
        web.publish("http://example.org/x", b"content")
        assert web.fetch("http://example.org/x", "sdsc") == b"content"

    def test_unpublished_url(self, net):
        web = WebSpace(net)
        with pytest.raises(NoSuchPhysicalFile):
            web.fetch("http://example.org/x", "sdsc")

    def test_callable_content_varies(self, net):
        web = WebSpace(net)
        counter = {"n": 0}

        def cgi() -> bytes:
            counter["n"] += 1
            return f"call {counter['n']}".encode()

        web.publish("http://example.org/cgi?q=1", cgi)
        assert web.fetch("http://example.org/cgi?q=1", "sdsc") == b"call 1"
        assert web.fetch("http://example.org/cgi?q=1", "sdsc") == b"call 2"

    def test_ftp_scheme_allowed(self, net):
        web = WebSpace(net)
        web.publish("ftp://mirror.org/file", b"x")

    def test_bad_scheme_rejected(self, net):
        web = WebSpace(net)
        with pytest.raises(StorageError):
            web.publish("gopher://old.org/x", b"x")

    def test_fetch_charges_network(self, net):
        web = WebSpace(net)
        web.publish("http://example.org/big", b"x" * 100_000)
        t0 = net.clock.now
        web.fetch("http://example.org/big", "sdsc")
        assert net.clock.now > t0
