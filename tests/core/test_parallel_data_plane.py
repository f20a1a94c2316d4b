"""The overlapped data plane: the only data plane there is.

Logical-resource ingest fan-out, replica refresh, bulk-get pulls and
striped reads all ride on :class:`repro.net.simnet.TransferGroup`; these
tests check correctness (bytes, catalog state) and the cost shape
against the link model itself: a group is charged the **max** of its
members' :meth:`LinkSpec.cost`, not the sum.  The member hosts sit
behind links of different speeds so that max, sum and any single member
are three different numbers.  The rollback tests cover cleanup of
half-written logical-resource members being charged on the wire.
"""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import HostUnreachable, ResourceUnavailable, StorageError
from repro.net.simnet import TRANSCON, WAN

PAYLOAD = bytes(range(256)) * 4096          # 1 MiB

# the uneven grid: h1 (the server) reaches h3 across the continent,
# h2 over the default WAN link
UNEVEN = {"h3": TRANSCON}


def build_fed(n_hosts=3, links=None, **knobs):
    fed = Federation(zone="z", **knobs)
    for i in range(1, n_hosts + 1):
        fed.add_host(f"h{i}")
        if links and f"h{i}" in links:
            fed.network.set_link("h1", f"h{i}", links[f"h{i}"])
    fed.add_server("s1", "h1", mcat=True)
    for i in range(1, n_hosts + 1):
        fed.add_fs_resource(f"r{i}", f"h{i}")
    fed.add_logical_resource("all", [f"r{i}"
                                     for i in range(1, n_hosts + 1)])
    fed.default_resource = "r1"
    fed.bootstrap_admin()
    client = SrbClient(fed, "h1", "s1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll("/z/w")
    return fed, client


def timed(fed, fn):
    t0 = fed.clock.now
    result = fn()
    return result, fed.clock.now - t0


def traced(fed, fn):
    """Run ``fn`` under a trace; returns ``(result, root span)``."""
    with fed.obs.tracer.trace("test") as root:
        result = fn()
    return result, root


def member_costs(nbytes, hosts=("h2", "h3")):
    """What the link model charges each member on the uneven grid."""
    return [UNEVEN.get(h, WAN).cost(nbytes) for h in hosts]


def the_group(root, label):
    (group,) = [g for g in root.find("net.parallel.group")
                if g.attrs["label"] == label]
    return group


class TestIngestFanout:
    def test_same_catalog_and_bytes_as_serial(self):
        """A fan-out ingest leaves what member-by-member writes would:
        one replica row and one byte-identical file per member."""
        fed, client = build_fed()
        client.ingest("/z/w/f.dat", PAYLOAD, resource="all")
        obj = fed.mcat.get_object("/z/w/f.dat")
        replicas = fed.mcat.replicas(int(obj["oid"]))
        assert [r["resource"] for r in replicas] == ["r1", "r2", "r3"]
        for rep in replicas:
            driver = fed.resources.physical(rep["resource"]).driver
            assert driver.read(rep["physical_path"]) == PAYLOAD
            assert not rep["is_dirty"]
        assert client.get("/z/w/f.dat") == PAYLOAD

    def test_fanout_charges_makespan_not_sum(self):
        fed, client = build_fed(links=UNEVEN)
        _, root = traced(fed, lambda: client.ingest(
            "/z/w/f.dat", PAYLOAD, resource="all"))
        costs = member_costs(len(PAYLOAD))
        group = the_group(root, "ingest-fanout")
        # two remote members overlap: the slow one is the whole charge
        assert group.duration == pytest.approx(max(costs))
        assert group.duration < 0.9 * sum(costs)
        assert [t.attrs["done"] - t.attrs["start"]
                for t in group.find("net.transfer")] == pytest.approx(costs)
        assert fed.obs.metrics.get("net.parallel.groups",
                                   label="ingest-fanout") == 1
        # and the op as a whole paid the group once, not per member:
        # beyond a local-only ingest it owes the two cold probes, the
        # makespan and two more files' worth of disk and catalog work
        _, local_t = timed(fed, lambda: client.ingest(
            "/z/w/local.dat", PAYLOAD, resource="r1"))
        extra = root.duration - local_t - sum(member_costs(64))
        assert max(costs) <= extra < max(costs) + 0.1 * min(costs)

    def test_single_member_costs_its_link(self):
        """One remote resource is a one-leg plan (runner rule (a)): a
        blocking transfer at exactly the link cost, and no parallel
        group — a group of one overlaps nothing."""
        fed, client = build_fed(links=UNEVEN)
        _, root = traced(fed, lambda: client.ingest(
            "/z/w/one.dat", PAYLOAD, resource="r3"))
        (push,) = [t for t in root.find("net.transfer")
                   if t.attrs["bytes"] == len(PAYLOAD)]
        assert push.duration == pytest.approx(TRANSCON.cost(len(PAYLOAD)))
        assert "grouped" not in push.attrs
        assert not root.find("net.parallel.group")
        assert fed.obs.metrics.total("net.parallel.groups") == 0

    def test_local_only_ingest_opens_no_group(self):
        fed, client = build_fed()
        client.ingest("/z/w/local.dat", PAYLOAD, resource="r1")
        assert fed.obs.metrics.total("net.parallel.groups") == 0

    def test_down_member_fails_whole_ingest_cleanly(self):
        fed, client = build_fed()
        fed.network.set_down("h3")
        with pytest.raises(ResourceUnavailable):
            client.ingest("/z/w/f.dat", PAYLOAD, resource="all")
        assert fed.mcat.find_object("/z/w/f.dat") is None


def footprint(fed):
    """Every place a half-done write could leave something behind."""
    return (fed.mcat.total_objects(), fed.mcat.total_replicas(),
            {name: fed.resources.physical(name).driver.file_count()
             for name in fed.resources.physical_names()})


WRITERS = {
    "copy": lambda c: c.copy("/z/w/src.dat", "/z/w/dup.dat",
                             resource="pair"),
    "replicate": lambda c: c.replicate("/z/w/src.dat", "pair"),
    "ingest_replica": lambda c: c.ingest_replica("/z/w/src.dat", b"alt" * 99,
                                                 "pair"),
    "bulk_ingest": lambda c: c.bulk_ingest(
        [{"path": "/z/w/b1.dat", "data": b"one"},
         {"path": "/z/w/b2.dat", "data": b"two"}], resource="pair"),
}


@pytest.mark.parametrize("direct_io", [False, True],
                         ids=["default", "direct_io"])
@pytest.mark.parametrize("op", sorted(WRITERS))
def test_write_onto_logical_resource_is_all_or_nothing(op, direct_io):
    """Regression: only ``ingest`` went through the write loop.  With
    one member of a logical resource partitioned away, ``copy`` left a
    new object with one replica, ``replicate``/``ingest_replica`` an
    extra replica row and file on the reachable member, ``bulk_ingest``
    an object row with no replica and an orphaned file — each while
    raising.  Now every writer lands on every member or leaves no
    object row, replica row or physical file."""
    fed, client = build_fed(direct_io=direct_io)
    fed.add_logical_resource("pair", ["r2", "r3"])
    client.ingest("/z/w/src.dat", PAYLOAD, resource="r1")
    fed.network.partition("h1", "h3")
    before = footprint(fed)
    with pytest.raises(HostUnreachable):
        WRITERS[op](client)
    assert footprint(fed) == before
    # healed, the same call lands on both members
    fed.network.heal("h1", "h3")
    WRITERS[op](client)
    objects, replicas, files = footprint(fed)
    assert {name: files[name] - before[2][name] for name in files} == \
        {"r1": 0, "r2": 2 if op == "bulk_ingest" else 1,
         "r3": 2 if op == "bulk_ingest" else 1}
    assert replicas - before[1] == (4 if op == "bulk_ingest" else 2)
    assert objects - before[0] == {"copy": 1, "bulk_ingest": 2}.get(op, 0)


class TestRollbackCharged:
    def test_rollback_charges_one_delete_message_per_remote_member(self):
        fed, _client = build_fed()
        srv = fed.server("s1")
        r1 = fed.resources.physical("r1")        # local to s1
        r2 = fed.resources.physical("r2")        # remote
        r3 = fed.resources.physical("r3")        # remote
        for res in (r1, r2, r3):
            res.driver.create("/half", b"partial")
        before = fed.network.messages_sent
        srv.data._rollback_created([(r1, "/half"), (r2, "/half"),
                                    (r3, "/half")])
        assert fed.network.messages_sent == before + 2   # r2, r3 only
        for res in (r1, r2, r3):
            assert not res.driver.exists("/half")

    def test_failed_serial_ingest_charges_remote_cleanup(self):
        """End to end: the bytes reach every member, then member 3's
        storage system refuses the file -> members 1 and 2, written
        before it, are rolled back, and member 2's remote delete
        appears in net.messages."""
        fed, client = build_fed()

        def refuse(path, data):
            raise StorageError("r3: disk full")
        fed.resources.physical("r3").driver.create = refuse
        m = fed.obs.metrics
        before = m.get("net.messages", src="h1", dst="h2")
        with pytest.raises(StorageError):
            client.ingest("/z/w/f.dat", PAYLOAD, resource="all")
        after = m.get("net.messages", src="h1", dst="h2")
        # session open + push + rollback delete = 3 messages to h2
        assert after - before == 3
        assert fed.mcat.find_object("/z/w/f.dat") is None
        for name in ("r1", "r2"):
            driver = fed.resources.physical(name).driver
            assert not any("f.dat" in p for p in driver.list_dir("/"))

    def test_unreachable_member_skipped_during_rollback(self):
        fed, _client = build_fed()
        srv = fed.server("s1")
        r2 = fed.resources.physical("r2")
        r2.driver.create("/half", b"partial")
        fed.network.set_down("h2")
        before = fed.network.failed_attempts
        srv.data._rollback_created([(r2, "/half")])
        assert fed.network.failed_attempts == before + 1
        assert r2.driver.exists("/half")     # orphan, documented


class TestParallelSynchronize:
    def _make_dirty(self, client, resource="all"):
        client.ingest("/z/w/f.dat", PAYLOAD, resource=resource)
        client.put("/z/w/f.dat", PAYLOAD[::-1])

    def test_refresh_correct_and_overlapped(self):
        fed, client = build_fed(links=UNEVEN)
        self._make_dirty(client)
        n, root = traced(fed, lambda: client.synchronize("/z/w/f.dat"))
        assert n == 2
        costs = member_costs(len(PAYLOAD))
        group = the_group(root, "synchronize")
        assert group.duration == pytest.approx(max(costs))
        assert group.duration < 0.9 * sum(costs)
        obj = fed.mcat.get_object("/z/w/f.dat")
        for rep in fed.mcat.replicas(int(obj["oid"])):
            assert not rep["is_dirty"]
            driver = fed.resources.physical(rep["resource"]).driver
            assert driver.read(rep["physical_path"]) == PAYLOAD[::-1]
        assert fed.obs.metrics.get("net.parallel.groups",
                                   label="synchronize") == 1

    def test_single_dirty_member_stays_serial(self):
        """One dirty member is a one-leg plan (runner rule (a)): a
        blocking transfer at that member's link cost, no group."""
        fed, client = build_fed(n_hosts=2)
        fed.add_logical_resource("pair", ["r1", "r2"])
        self._make_dirty(client, resource="pair")
        n, root = traced(fed, lambda: client.synchronize("/z/w/f.dat"))
        assert n == 1
        (push,) = [t for t in root.find("net.transfer")
                   if t.attrs["bytes"] == len(PAYLOAD)]
        assert push.duration == pytest.approx(WAN.cost(len(PAYLOAD)))
        assert not root.find("net.parallel.group")


    @pytest.mark.parametrize("direct_io", [False, True])
    def test_partitioned_member_is_skipped_not_raised(self, direct_io):
        """Through the client, raw legs or channels alike: the copy the
        source cannot reach stays dirty, its sibling refreshes."""
        fed, client = build_fed(direct_io=direct_io)
        self._make_dirty(client)
        fed.network.partition("h1", "h3")
        assert client.synchronize("/z/w/f.dat") == 1
        obj = fed.mcat.get_object("/z/w/f.dat")
        dirty = {r["resource"]: r["is_dirty"]
                 for r in fed.mcat.replicas(int(obj["oid"]))}
        assert dirty == {"r1": False, "r2": False, "r3": True}
        fed.network.heal("h1", "h3")
        assert client.synchronize("/z/w/f.dat") == 1


class TestBulkGetOverlap:
    def _setup(self, **knobs):
        fed, client = build_fed(**knobs)
        client.ingest("/z/w/a.dat", PAYLOAD, resource="r2")
        client.ingest("/z/w/b.dat", PAYLOAD, resource="r3")
        return fed, client

    def test_results_identical_to_serial(self):
        """The batch returns what one get per item returns."""
        fed, client = self._setup()
        targets = ["/z/w/a.dat", "/z/w/b.dat"]
        assert client.bulk_get(targets) == [
            {"path": path, "data": client.get(path)} for path in targets]
        assert all(r["data"] == PAYLOAD
                   for r in client.bulk_get(targets))

    def test_distinct_hosts_overlap(self):
        fed, client = self._setup(links=UNEVEN)
        _, root = traced(fed, lambda: client.bulk_get(
            ["/z/w/a.dat", "/z/w/b.dat"]))
        costs = member_costs(len(PAYLOAD))
        group = the_group(root, "bulk-get")
        assert group.duration == pytest.approx(max(costs))
        assert group.duration < 0.9 * sum(costs)
        assert fed.obs.metrics.get("net.parallel.groups",
                                   label="bulk-get") == 1

    def test_down_host_yields_per_item_error(self):
        fed, client = self._setup()
        fed.network.set_down("h3")
        results = client.bulk_get(["/z/w/a.dat", "/z/w/b.dat"])
        assert results[0]["data"] == PAYLOAD
        assert "error" in results[1]
        assert results[1]["error_type"] in ("HostUnreachable",
                                            "ReplicaUnavailable")


class TestStripedGet:
    def _setup(self, **knobs):
        fed, client = build_fed(**knobs)
        client.ingest("/z/w/big.dat", PAYLOAD, resource="r2")
        client.replicate("/z/w/big.dat", "r3")
        return fed, client

    def test_striped_read_returns_same_bytes(self):
        fed, client = self._setup()
        assert client.get("/z/w/big.dat", stripes=2) == PAYLOAD
        assert fed.obs.metrics.get("srb.striped_reads", stripes="2") == 1

    def test_striped_read_is_faster(self):
        fed_a, client_a = self._setup()
        fed_b, client_b = self._setup()
        _, plain_t = timed(fed_a, lambda: client_a.get("/z/w/big.dat"))
        _, striped_t = timed(fed_b, lambda: client_b.get("/z/w/big.dat",
                                                         stripes=2))
        assert striped_t < plain_t

    def test_more_stripes_than_replicas_clamps(self):
        fed, client = self._setup()
        assert client.get("/z/w/big.dat", stripes=8) == PAYLOAD
        assert fed.obs.metrics.get("srb.striped_reads", stripes="2") == 1

    def test_single_replica_falls_back_to_chain_walk(self):
        fed, client = build_fed()
        client.ingest("/z/w/one.dat", PAYLOAD, resource="r2")
        assert client.get("/z/w/one.dat", stripes=4) == PAYLOAD
        assert fed.obs.metrics.total("srb.striped_reads") == 0

    def test_partitioned_replica_falls_back(self):
        fed, client = self._setup()
        fed.network.partition("h1", "h3")
        assert client.get("/z/w/big.dat", stripes=2) == PAYLOAD
        assert fed.obs.metrics.total("srb.striped_reads") == 0

    def test_replica_num_pins_and_disables_striping(self):
        fed, client = self._setup()
        assert client.get("/z/w/big.dat", replica_num=1,
                          stripes=2) == PAYLOAD
        assert fed.obs.metrics.total("srb.striped_reads") == 0


class TestAutoStripesReadTheLocalCopy:
    """``stripes="auto"`` at a server that holds a clean local replica
    says a local copy beats any wire pull — and must then read *that*
    copy, not walk the chain to replica 1 across the WAN."""

    def _setup(self):
        # replica 1 on h2 (remote), replica 2 on h1 (the server's host)
        fed, client = build_fed()
        client.ingest("/z/w/big.dat", PAYLOAD, resource="r2")
        client.replicate("/z/w/big.dat", "r1")
        return fed, client

    def _payload_legs(self, root):
        return [(s.attrs["src"], s.attrs["dst"])
                for s in root.find("net.transfer")
                if s.attrs["bytes"] >= len(PAYLOAD) and s.attrs["dst"] == "h1"
                and s.attrs["src"] != "h1"]

    def test_no_resource_to_server_leg(self):
        """Neither read crosses the wire for the payload: the source
        chain puts the online local copy first for the default read as
        well as for ``stripes="auto"``.  Asking for replica 1 by number
        still pulls it from h2, so the leg check is not vacuous."""
        fed, client = self._setup()
        data, root = traced(fed, lambda: client.get("/z/w/big.dat",
                                                    stripes="auto"))
        assert data == PAYLOAD
        assert self._payload_legs(root) == []
        data, root = traced(fed, lambda: client.get("/z/w/big.dat"))
        assert data == PAYLOAD
        assert self._payload_legs(root) == []
        _, root = traced(fed, lambda: client.get("/z/w/big.dat",
                                                 replica_num=1))
        assert self._payload_legs(root) == [("h2", "h1")]

    def test_a_local_copy_that_errors_falls_back_to_the_chain(self):
        fed, client = self._setup()

        def offline(path, *args):
            raise ResourceUnavailable("r1: volume offline")
        fed.resources.physical("r1").driver.read = offline
        data, root = traced(fed, lambda: client.get("/z/w/big.dat",
                                                    stripes="auto"))
        assert data == PAYLOAD
        assert self._payload_legs(root) == [("h2", "h1")]

    def test_an_archive_copy_off_the_disk_cache_is_not_worth_a_stage(self):
        fed, client = build_fed()
        fed.add_archive_resource("tape1", "h1")
        client.ingest("/z/w/big.dat", PAYLOAD, resource="r2")
        client.replicate("/z/w/big.dat", "tape1")
        archive = fed.resources.physical("tape1").driver
        # still in the HSM's disk cache: the local copy is read
        _, root = traced(fed, lambda: client.get("/z/w/big.dat",
                                                 stripes="auto"))
        assert self._payload_legs(root) == [] and archive.stages == 0
        # migrated to tape: a pull beats the stage
        archive.purge_cache()
        data, root = traced(fed, lambda: client.get("/z/w/big.dat",
                                                    stripes="auto"))
        assert data == PAYLOAD
        assert self._payload_legs(root) == [("h2", "h1")]
        assert archive.stages == 0
