"""Three ways ``ingest`` and ``bulk_ingest`` used to disagree.

They now run one body (``DataService._ingest``), and each disagreement
was a bug in one of them:

* a ``bulk_ingest`` item whose path was taken shipped its bytes to the
  resource before it failed;
* ``bulk_ingest`` ranked a logical resource's members under the
  ``observed`` policy as if no byte would move;
* a single ``ingest`` into an unusable target spent an oid and wrote,
  then deleted, an object row.
"""

import sys

import pytest

from repro.core import Federation, SrbClient
from repro.errors import (
    AccessDenied,
    NoSuchObject,
    NoSuchResource,
    ResourceUnavailable,
)
from repro.mcat.catalog import _Charge
from repro.net.simnet import LinkSpec
from repro.workload import standard_grid
from tests.probes import counter

BIG = bytes(range(256)) * 16384             # 4 MiB


def payload_legs(root, nbytes):
    """The ``net.transfer`` spans of a trace that carried ``nbytes`` or
    more between two servers' or resources' hosts."""
    return [(s.attrs["src"], s.attrs["dst"])
            for s in root.find("net.transfer")
            if s.attrs["bytes"] >= nbytes and s.attrs["src"] != s.attrs["dst"]]


class TestTakenPathShipsNothing:
    def test_bulk_item_fails_before_its_bytes_move(self):
        """A 4 MiB item whose path is taken, bulk-ingested onto a
        resource on another host, fails as fast as the same single
        ingest, with no payload leg to that host."""
        grid = standard_grid()
        fed, admin = grid.fed, grid.admin
        path = "/demozone/home/taken.dat"
        admin.ingest(path, b"first", resource="unix-caltech")
        elapsed = {}
        for op in ("ingest", "bulk_ingest"):
            t0 = fed.clock.now
            with fed.obs.tracer.trace(op) as root:
                if op == "ingest":
                    with pytest.raises(Exception) as err:
                        admin.ingest(path, BIG, resource="unix-caltech")
                    assert type(err.value).__name__ == "AlreadyExists"
                else:
                    (result,) = admin.bulk_ingest(
                        [{"path": path, "data": BIG}],
                        resource="unix-caltech")
                    assert result["error_type"] == "AlreadyExists"
            elapsed[op] = fed.clock.now - t0
            assert payload_legs(root, len(BIG)) == []
        assert elapsed["bulk_ingest"] < 2 * elapsed["ingest"] < 0.05


class TestObservedRanksTheBytesThatMove:
    def test_bulk_ingest_puts_the_fast_member_first(self):
        """A low-latency 1 MB/s member and a high-latency 100 MB/s one,
        both paths measured: for 4 MiB the fast one is replica 1, by
        ``ingest`` and by ``bulk_ingest`` alike."""
        fed = Federation(zone="z", placement="observed")
        for host in ("h1", "slow", "fast"):
            fed.add_host(host)
        fed.add_server("s1", "h1", mcat=True)
        fed.network.set_link("h1", "slow", LinkSpec(0.001, 1e6))
        fed.network.set_link("h1", "fast", LinkSpec(0.050, 100e6))
        fed.add_fs_resource("r-slow", "slow")
        fed.add_fs_resource("r-fast", "fast")
        fed.add_logical_resource("both", ["r-slow", "r-fast"])
        fed.default_resource = "r-slow"
        fed.bootstrap_admin()
        client = SrbClient(fed, "h1", "s1", "srbadmin@sdsc", "hunter2")
        client.login()
        client.mkcoll("/z/w")
        for res in ("r-slow", "r-fast"):            # warm both paths
            client.ingest(f"/z/w/warm-{res}", BIG, resource=res)

        client.ingest("/z/w/one.dat", BIG, resource="both")
        client.bulk_ingest([{"path": "/z/w/bulk.dat", "data": BIG}],
                           resource="both")
        for path in ("/z/w/one.dat", "/z/w/bulk.dat"):
            first = fed.mcat.get_replica(fed.mcat.get_object(path)["oid"], 1)
            assert first["resource"] == "r-fast", path


def grid(**knobs):
    """A grid whose unusable targets are a missing container, one the
    guest may not write, an unknown resource and a logical resource
    with a member on a host that is down."""
    fed = Federation(zone="z", **knobs)
    for host in ("h1", "h2"):
        fed.add_host(host)
    fed.add_server("s1", "h1", mcat=True)
    fed.add_fs_resource("disk", "h1")
    fed.add_fs_resource("dead", "h2")
    fed.add_logical_resource("halfdead", ["disk", "dead"])
    fed.default_resource = "disk"
    fed.bootstrap_admin()
    fed.add_user("guest@sdsc", "pw")
    admin = SrbClient(fed, "h1", "s1", "srbadmin@sdsc", "hunter2")
    guest = SrbClient(fed, "h1", "s1", "guest@sdsc", "pw")
    admin.login()
    guest.login()
    admin.mkcoll("/z/c")
    admin.mkcoll("/z/g")
    admin.grant("/z/g", "guest@sdsc", "write")
    admin.create_container("/z/c/box", "disk")
    fed.network.set_down("h2")
    return fed, guest


UNUSABLE = {
    "missing container": ({"container": "/z/c/nope"}, NoSuchObject),
    "no write on the container": ({"container": "/z/c/box"}, AccessDenied),
    "unknown resource": ({"resource": "nores"}, NoSuchResource),
    "member down": ({"resource": "halfdead"}, ResourceUnavailable),
}
WRITES = {"create_object", "create_objects", "delete_object", "add_replica",
          "add_replicas", "add_metadata", "add_metadata_bulk"}


@pytest.mark.parametrize("target", sorted(UNUSABLE))
@pytest.mark.parametrize("knobs", [{}, {"mcat_shards": 2,
                                        "mcat_replicas": 1}],
                         ids=["one partition", "two partitions"])
def test_an_unusable_target_writes_no_object_row(target, knobs,
                                                 monkeypatch):
    """The target fails before the object row: the oid counter stays,
    the catalog is only read (and the denial audited), and no object
    row enters a partition's write log."""
    fed, guest = grid(**knobs)
    kwargs, error = UNUSABLE[target]
    charged = []            # the catalog op each charge was made for

    def enter(charge):
        charged.append(sys._getframe(1).f_code.co_name)
        charge.marks += (charge.scans.total,)
    monkeypatch.setattr(_Charge, "__enter__", enter)
    oids = fed.mcat.ids.peek("oid")
    ops = counter(fed.obs.metrics, "mcat.ops")
    logged = [len(shard.log) for shard in fed.mcat.shards]
    with pytest.raises(error):
        guest.ingest("/z/g/new.dat", b"data", **kwargs)
    assert fed.mcat.ids.peek("oid") == oids
    assert counter(fed.obs.metrics, "mcat.ops") - ops == len(charged) > 0
    assert not WRITES & set(charged), charged
    audited = charged.count("record_audit")
    assert audited == (error is AccessDenied)
    assert [entry[0] for shard, n in zip(fed.mcat.shards, logged)
            for entry in shard.log[n:]] == ["audit"] * (
                audited if fed.mcat.shards[0].replicas else 0)



def test_a_taken_path_into_an_unusable_target_fails_on_the_target():
    """Error precedence: an item bad in two ways fails on its target,
    as a batch always did (a taken path into a missing container used
    to raise ``AlreadyExists`` from a single ``ingest``)."""
    fed, guest = grid()
    guest.ingest("/z/g/taken.dat", b"data")
    for ingest in (
            lambda: guest.ingest("/z/g/taken.dat", b"data",
                                 container="/z/c/nope"),
            lambda: guest.bulk_ingest([{"path": "/z/g/taken.dat",
                                        "data": b"data"}],
                                      container="/z/c/nope")):
        with pytest.raises(NoSuchObject):
            ingest()
