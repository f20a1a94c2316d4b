"""Unit tests for replica selection, failover chains and synchronization."""

import pytest

from repro.core import Federation
from repro.errors import ReplicaUnavailable, ReplicationError
from repro.net.simnet import LAN, WAN, Network
from repro.policy import PlacementEngine
from repro.storage.memfs import MemFsDriver
from repro.storage.resource import PhysicalResource, ResourceRegistry


def synchronize(plane, oid):
    """The replica refresh of the ``synchronize`` op, run on ``plane``:
    ``replication.synchronize`` names the copies, the plane's write loop
    moves the bytes."""
    return plane._refresh(oid, "synchronize", "skip")


@pytest.fixture
def env():
    net = Network()
    for h in ("near", "far", "client"):
        net.add_host(h)
    net.set_link("client", "near", LAN)
    net.set_link("client", "far", WAN)
    reg = ResourceRegistry(net)
    reg.add_physical(PhysicalResource("res-near", "near", MemFsDriver()))
    reg.add_physical(PhysicalResource("res-far", "far", MemFsDriver()))
    return net, reg


def fake_replicas():
    return [
        {"replica_num": 1, "resource": "res-near", "is_dirty": False,
         "container_oid": None, "physical_path": "/p1"},
        {"replica_num": 2, "resource": "res-far", "is_dirty": False,
         "container_oid": None, "physical_path": "/p2"},
    ]


class TestSelectorPolicies:
    def test_unknown_policy_rejected(self, env):
        net, reg = env
        with pytest.raises(ReplicationError):
            PlacementEngine(reg, net, policy="quantum")

    def test_primary_order(self, env):
        net, reg = env
        sel = PlacementEngine(reg, net, policy="primary")
        order = sel.order_replicas(fake_replicas())
        assert [r["replica_num"] for r in order] == [1, 2]

    def test_round_robin_rotates(self, env):
        net, reg = env
        sel = PlacementEngine(reg, net, policy="round-robin")
        first = [r["replica_num"] for r in sel.order_replicas(fake_replicas())]
        second = [r["replica_num"] for r in sel.order_replicas(fake_replicas())]
        assert first != second
        assert sorted(first) == sorted(second) == [1, 2]

    def test_random_deterministic_and_complete(self, env):
        net, reg = env
        sel = PlacementEngine(reg, net, policy="random")
        seen = set()
        for _ in range(20):
            order = [r["replica_num"] for r in sel.order_replicas(fake_replicas())]
            assert sorted(order) == [1, 2]
            seen.add(tuple(order))
        assert len(seen) == 2              # both rotations appear

    def test_random_is_a_real_shuffle(self, env):
        """Regression: the 'deterministic LCG shuffle' was a bare
        rotation, which reaches only n of the n! orderings — with three
        replicas, numbers adjacent in one chain stayed adjacent in all."""
        net, reg = env
        sel = PlacementEngine(reg, net, policy="random")
        reps = [{"replica_num": i, "resource": "res-near",
                 "is_dirty": False, "container_oid": None,
                 "physical_path": f"/p{i}"} for i in (1, 2, 3)]
        seen = set()
        for _ in range(200):
            seen.add(tuple(r["replica_num"] for r in sel.order_replicas(reps)))
        assert len(seen) == 6              # all 3! permutations appear

    def test_nearest_prefers_low_latency(self, env):
        net, reg = env
        sel = PlacementEngine(reg, net, policy="nearest")
        order = sel.order_replicas(list(reversed(fake_replicas())),
                          from_host="client")
        assert order[0]["resource"] == "res-near"

    def test_nearest_without_host_falls_back(self, env):
        net, reg = env
        sel = PlacementEngine(reg, net, policy="nearest")
        order = sel.order_replicas(fake_replicas())
        assert [r["replica_num"] for r in order] == [1, 2]

    def test_empty_list(self, env):
        net, reg = env
        sel = PlacementEngine(reg, net)
        assert sel.order_replicas([]) == []


class TestFailoverChain:
    def test_skips_dirty(self, env):
        net, reg = env
        sel = PlacementEngine(reg, net)
        reps = fake_replicas()
        reps[0]["is_dirty"] = True
        chain = sel.failover_chain(reps)
        assert [r["replica_num"] for r in chain] == [2]

    def test_skips_down_resources(self, env):
        net, reg = env
        sel = PlacementEngine(reg, net)
        net.set_down("near")
        chain = sel.failover_chain(fake_replicas())
        assert [r["replica_num"] for r in chain] == [2]

    def test_raises_when_nothing_left(self, env):
        net, reg = env
        sel = PlacementEngine(reg, net)
        net.set_down("near")
        net.set_down("far")
        with pytest.raises(ReplicaUnavailable):
            sel.failover_chain(fake_replicas())

    def test_allow_dirty_flag(self, env):
        net, reg = env
        sel = PlacementEngine(reg, net)
        reps = fake_replicas()
        for r in reps:
            r["is_dirty"] = True
        chain = sel.failover_chain(reps, allow_dirty=True)
        assert len(chain) == 2


class TestSynchronize:
    @pytest.fixture
    def sync_env(self, env):
        """The two resources of ``env`` under a federation on its
        network, whose server sits on the client's host."""
        net, _reg = env
        fed = Federation(zone="demozone", network=net)
        fed.add_server("s", "client", mcat=True)
        fed.add_fs_resource("res-near", "near")
        fed.add_fs_resource("res-far", "far")
        reg, mcat = fed.resources, fed.mcat
        mcat.create_collection("/demozone/c", "u@d", now=0.0)
        oid = mcat.create_object("/demozone/c/x", "data", "u@d", now=0.0)
        near = reg.physical("res-near")
        far = reg.physical("res-far")
        near.driver.create("/p1", b"fresh data")
        far.driver.create("/p2", b"stale")
        mcat.add_replica(oid, "res-near", "/p1", 10, now=0.0)
        mcat.add_replica(oid, "res-far", "/p2", 5, now=0.0)
        mcat.mark_siblings_dirty(oid, 1)    # replica 2 becomes dirty
        return net, reg, mcat, oid, fed.server("s").replica

    def test_refreshes_dirty_copies(self, sync_env):
        net, reg, mcat, oid, plane = sync_env
        assert synchronize(plane, oid) == 1
        assert reg.physical("res-far").driver.read("/p2") == b"fresh data"
        assert all(not r["is_dirty"] for r in mcat.replicas(oid))

    def test_noop_when_all_clean(self, sync_env):
        net, reg, mcat, oid, plane = sync_env
        synchronize(plane, oid)
        assert synchronize(plane, oid) == 0

    def test_charges_network_for_cross_host_copy(self, sync_env):
        net, reg, mcat, oid, plane = sync_env
        t0 = net.clock.now
        synchronize(plane, oid)
        assert net.clock.now > t0

    def test_no_clean_replica_raises(self, sync_env):
        net, reg, mcat, oid, plane = sync_env
        # dirty both replicas via direct table surgery
        t = mcat.shards[0].primary.db.table("replicas")
        for rid in t.lookup_eq("oid", oid):
            t.update_row(rid, {"is_dirty": True})
        with pytest.raises(ReplicationError):
            synchronize(plane, oid)

    def test_unreachable_dirty_target_skipped(self, sync_env):
        net, reg, mcat, oid, plane = sync_env
        net.set_down("far")
        assert synchronize(plane, oid) == 0

    @pytest.mark.parametrize("n_dirty", [1, 2])
    def test_partitioned_target_skipped_whatever_the_dirty_count(
            self, sync_env, n_dirty):
        """Regression: one fault had two outcomes.  With the source cut
        off from a dirty replica's host, a lone dirty target made the
        whole op raise ``HostUnreachable`` while one of two was skipped
        — and, refreshed serially, an unreachable first target also
        aborted the refresh of its reachable siblings.  One rule: the
        member that cannot be reached is skipped and stays dirty, the
        others refresh, the return value is the number refreshed."""
        net, reg, mcat, oid, plane = sync_env
        if n_dirty == 2:
            # a second dirty copy, numbered after the unreachable one
            reg.add_physical(PhysicalResource("res-client", "client",
                                              MemFsDriver()))
            reg.physical("res-client").driver.create("/p3", b"stale")
            mcat.add_replica(oid, "res-client", "/p3", 5, now=0.0)
            mcat.mark_siblings_dirty(oid, 1)
        net.partition("near", "far")
        failed = net.failed_attempts
        assert synchronize(plane, oid) == n_dirty - 1
        assert net.failed_attempts == failed + 1     # the timeout is paid
        by_num = {r["replica_num"]: r for r in mcat.replicas(oid)}
        assert by_num[2]["is_dirty"]
        assert reg.physical("res-far").driver.read("/p2") == b"stale"
        if n_dirty == 2:
            assert not by_num[3]["is_dirty"]
            assert reg.physical("res-client").driver.read("/p3") \
                == b"fresh data"
        # healed, the skipped copy refreshes on the next call
        net.heal("near", "far")
        assert synchronize(plane, oid) == 1
        assert reg.physical("res-far").driver.read("/p2") == b"fresh data"
