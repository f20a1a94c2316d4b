"""Unit tests for the placement engine and its policies."""

import pytest

from repro.errors import ReplicaUnavailable, ReplicationError
from repro.net.simnet import LAN, WAN, LinkSpec, Network
from repro.policy import (
    PLACEMENT_POLICIES,
    NearestPolicy,
    PlacementEngine,
)
from repro.storage.memfs import MemFsDriver
from repro.storage.resource import PhysicalResource, ResourceRegistry


def build_grid(n=3, links=None):
    """A client host plus ``n`` storage hosts ``h1..hn`` with resources
    ``res1..resn``; ``links[i]`` overrides the client<->hi link."""
    net = Network()
    net.add_host("client")
    reg = ResourceRegistry(net)
    for i in range(1, n + 1):
        net.add_host(f"h{i}")
        if links and links.get(i):
            net.set_link("client", f"h{i}", links[i])
        reg.add_physical(PhysicalResource(f"res{i}", f"h{i}",
                                          MemFsDriver()))
    return net, reg


def replicas(n=3, **overrides):
    return [dict({"replica_num": i, "resource": f"res{i}",
                  "is_dirty": False, "container_oid": None,
                  "physical_path": f"/p{i}", "size": 1000},
                 **overrides) for i in range(1, n + 1)]


class TestEngineBasics:
    def test_unknown_policy_rejected(self):
        net, reg = build_grid()
        with pytest.raises(ReplicationError):
            PlacementEngine(reg, net, policy="quantum")

    def test_all_policies_construct(self):
        for policy in PLACEMENT_POLICIES:
            net, reg = build_grid()
            engine = PlacementEngine(reg, net, policy=policy)
            assert engine.policy_name == policy

    def test_empty_replica_list_orders_empty(self):
        net, reg = build_grid()
        engine = PlacementEngine(reg, net)
        assert engine.order_replicas([]) == []

    def test_failover_chain_filters_dirty_and_down(self):
        net, reg = build_grid()
        engine = PlacementEngine(reg, net)
        reps = replicas()
        reps[0]["is_dirty"] = True
        net.set_down("h2")
        chain = engine.failover_chain(reps, from_host="client")
        assert [r["replica_num"] for r in chain] == [3]
        net.set_down("h3")
        with pytest.raises(ReplicaUnavailable):
            engine.failover_chain(reps, from_host="client")


class TestStaticPoliciesMatchLegacySelector:
    """The engine's static policies keep the pre-engine selector's
    semantics, state machines included: the sequences below were
    recorded from that selector on this grid before it was deleted (the
    parity recordings depend on the same orders through real gets)."""

    RECORDED = {
        "primary": [[1, 2, 3]] * 7,
        "round-robin": [[1, 2, 3], [2, 3, 1], [3, 1, 2], [1, 2, 3],
                        [2, 3, 1], [3, 1, 2], [1, 2, 3]],
        "random": [[3, 2, 1], [1, 3, 2], [1, 3, 2], [1, 3, 2], [1, 2, 3],
                   [2, 1, 3], [3, 1, 2]],
        "nearest": [[2, 1, 3]] * 7,
    }

    @pytest.mark.parametrize("policy",
                             ("primary", "round-robin", "random", "nearest"))
    def test_order_sequences_identical(self, policy):
        net, reg = build_grid(links={1: WAN, 2: LAN, 3: WAN})
        engine = PlacementEngine(reg, net, policy=policy)
        got = [[r["replica_num"] for r in
                engine.order_replicas(replicas(), from_host="client")]
               for _ in range(7)]
        assert got == self.RECORDED[policy]


class TestNearestTieBreak:
    def test_ties_break_by_replica_num(self):
        # res1/res2 on different hosts, same (default) link latency
        net, reg = build_grid(n=3, links={3: LAN})
        engine = PlacementEngine(reg, net, policy="nearest")
        ordered = engine.order_replicas(replicas(), from_host="client")
        # h3 is nearest; h1/h2 tie on the default link and must come
        # back lowest-replica-number first
        assert [r["replica_num"] for r in ordered] == [3, 1, 2]

    def test_tie_break_ignores_input_order(self):
        net, reg = build_grid(n=3)
        engine = PlacementEngine(reg, net, policy="nearest")
        fwd = engine.order_replicas(replicas(), from_host="client")
        rev = engine.order_replicas(list(reversed(replicas())),
                                    from_host="client")
        assert [r["replica_num"] for r in fwd] \
            == [r["replica_num"] for r in rev] == [1, 2, 3]

    def test_documented_in_the_policy_docstring(self):
        assert "(latency, replica_num)" in (
            NearestPolicy.__doc__ + NearestPolicy.order.__doc__
            if NearestPolicy.order.__doc__ else NearestPolicy.__doc__) \
            or "replica_num" in NearestPolicy.__doc__


class TestObservedPolicy:
    def test_cold_start_is_primary_like(self):
        net, reg = build_grid()
        engine = PlacementEngine(reg, net, policy="observed")
        ordered = engine.order_replicas(replicas(), from_host="client")
        assert [r["replica_num"] for r in ordered] == [1, 2, 3]

    def test_prefers_the_measured_fast_path(self):
        net, reg = build_grid()
        engine = PlacementEngine(reg, net, policy="observed")
        nbytes = 1_000_000
        # h3 measured much faster than the default prior; h1 much slower
        for _ in range(3):
            engine.stats.observe_transfer("h3", "client", nbytes,
                                          nbytes / 5e7, now=0.0)
            engine.stats.observe_transfer("h1", "client", nbytes,
                                          nbytes / 1e5, now=0.0)
        ordered = engine.order_replicas(replicas(), from_host="client",
                                        size_hint=nbytes)
        assert [r["replica_num"] for r in ordered] == [3, 2, 1]

    def test_failures_quarantine_and_decay_restores(self):
        net, reg = build_grid()
        engine = PlacementEngine(reg, net, policy="observed")
        nbytes = 1_000_000
        for _ in range(3):
            engine.stats.observe_transfer("h1", "client", nbytes,
                                          nbytes / 5e7, now=0.0)
        # two failures on the measured-fastest path push it last anyway
        engine.stats.observe_failure("h1", "client", now=net.clock.now)
        engine.stats.observe_failure("h1", "client", now=net.clock.now)
        ordered = engine.order_replicas(replicas(), from_host="client",
                                        size_hint=nbytes)
        assert ordered[-1]["replica_num"] == 1
        # several half-lives later the score has decayed under the
        # quarantine threshold and the fast path leads again
        net.clock.advance(engine.stats.failure_half_life_s * 8)
        ordered = engine.order_replicas(replicas(), from_host="client",
                                        size_hint=nbytes)
        assert ordered[0]["replica_num"] == 1

    def test_write_destinations_ranked_by_measured_push(self):
        net, reg = build_grid()
        engine = PlacementEngine(reg, net, policy="observed")
        nbytes = 500_000
        for _ in range(3):
            engine.stats.observe_transfer("client", "h2", nbytes,
                                          nbytes / 5e7, now=0.0)
        res_list = [reg.physical(f"res{i}") for i in (1, 2, 3)]
        ordered = engine.order_resources(res_list, from_host="client",
                                         size_hint=nbytes)
        assert ordered[0].name == "res2"

    def test_sync_source_prefers_cheapest_total_push(self):
        net, reg = build_grid()
        engine = PlacementEngine(reg, net, policy="observed")
        nbytes = 1000
        for _ in range(3):
            engine.stats.observe_transfer("h2", "h3", nbytes,
                                          nbytes / 5e7, now=0.0)
        clean = replicas(n=2)
        ordered = engine.sync_source_order(clean, ["h3"],
                                           size_hint=nbytes)
        assert ordered[0]["replica_num"] == 2

    def test_static_policy_sync_source_keeps_catalog_order(self):
        net, reg = build_grid()
        engine = PlacementEngine(reg, net, policy="primary")
        clean = replicas(n=3)
        assert engine.sync_source_order(clean, ["h9"]) == clean


class TestContainerOrdering:
    def _archive_grid(self):
        net, reg = build_grid(n=2)
        net.add_host("h3")
        reg.add_physical(PhysicalResource("arch", "h3", MemFsDriver(),
                                          rtype="archive"))
        reps = replicas(n=2)
        reps.append({"replica_num": 3, "resource": "arch",
                     "is_dirty": False, "container_oid": None,
                     "physical_path": "/p3", "size": 1000})
        return net, reg, reps

    def test_cache_tier_always_first(self):
        net, reg, reps = self._archive_grid()
        for policy in PLACEMENT_POLICIES:
            engine = PlacementEngine(reg, net, policy=policy)
            ordered = engine.order_container_replicas(
                list(reversed(reps)), from_host="client")
            assert ordered[-1]["resource"] == "arch"

    def test_observed_reorders_within_the_cache_tier(self):
        net, reg, reps = self._archive_grid()
        engine = PlacementEngine(reg, net, policy="observed")
        nbytes = 1_000_000
        for _ in range(3):
            engine.stats.observe_transfer("h2", "client", nbytes,
                                          nbytes / 5e7, now=0.0)
        ordered = engine.order_container_replicas(reps,
                                                  from_host="client")
        assert [r["replica_num"] for r in ordered] == [2, 1, 3]


COLD = (64,)      # one open probe owed: what a cold SSO session costs


class TestChooseStripes:
    def _engine(self, n=8):
        net, reg = build_grid(n=n)
        return PlacementEngine(reg, net), reg

    def test_single_candidate_never_stripes(self):
        engine, reg = self._engine()
        assert engine.choose_stripes([reg.physical("res1")], 10_000_000,
                                     owed=[COLD], from_host="client") == 1

    def test_small_object_reads_whole(self):
        engine, reg = self._engine()
        cands = [reg.physical(f"res{i}") for i in range(1, 5)]
        # probes dominate: one WAN latency beats extra session opens
        assert engine.choose_stripes(cands, 1000, owed=[COLD] * 4,
                                     from_host="client") == 1

    def test_large_object_recruits_multiple_paths(self):
        engine, reg = self._engine()
        cands = [reg.physical(f"res{i}") for i in range(1, 9)]
        k = engine.choose_stripes(cands, 8 * 1024 * 1024, owed=[COLD] * 8,
                                  from_host="client")
        assert k > 1

    def test_candidates_that_owe_nothing_add_no_probe_term(self):
        engine, reg = self._engine()
        cands = [reg.physical(f"res{i}") for i in range(1, 9)]
        size = 8 * 1024 * 1024
        cold = engine.choose_stripes(cands, size, owed=[COLD] * 8,
                                     from_host="client")
        warm = engine.choose_stripes(cands, size, owed=[()] * 8,
                                     from_host="client")
        assert 1 < cold < warm == 8
        # without SSO a cold session costs the handshake too
        no_sso = engine.choose_stripes(
            cands, size, owed=[(200, 200, 200, 200, 64)] * 8,
            from_host="client")
        assert no_sso < cold

    def test_slow_measured_path_not_recruited(self):
        engine, reg = self._engine(n=3)
        nbytes = 4_000_000
        # res3's path measured pathologically slow: recruiting it would
        # dominate the makespan, so auto stops at k=2
        for _ in range(3):
            engine.stats.observe_transfer("h3", "client", nbytes,
                                          nbytes / 1e4, now=0.0)
        cands = [reg.physical(f"res{i}") for i in (1, 2, 3)]
        assert engine.choose_stripes(cands, nbytes, owed=[COLD] * 3,
                                     from_host="client") == 2


class TestAutoStripesFollowSessionState:
    """Regression: the engine kept its own copy of the open-probe size
    and charged one probe per candidate whether or not the server
    already held that session.  With sessions kept alive that
    over-counts, and ``get(stripes="auto")`` picked too few stripes.
    The data plane now says what each candidate still owes."""

    N = 8
    PAYLOAD = b"s" * 8_000_000
    PATH = "/z/w/big.dat"

    def _grid(self):
        from repro.core import Federation, SrbClient
        fed = Federation(zone="z")
        for i in range(self.N + 1):
            fed.add_host(f"h{i}")
        fed.add_server("s0", "h0", mcat=True)
        for i in range(1, self.N + 1):
            fed.add_fs_resource(f"r{i}", f"h{i}")
        fed.bootstrap_admin()
        client = SrbClient(fed, "h0", "s0", "srbadmin@sdsc", "hunter2")
        client.login()
        client.mkcoll("/z/w")
        client.ingest(self.PATH, self.PAYLOAD, resource="r1")
        for i in range(2, self.N + 1):
            client.replicate(self.PATH, f"r{i}")     # leaves r{i} warm
        return fed, client

    def _read(self, fed, client, stripes, cold):
        if cold:
            fed.reset_sessions()
        t0 = fed.clock.now
        assert client.get(self.PATH, stripes=stripes) == self.PAYLOAD
        return fed.clock.now - t0

    def _auto(self, fed, client, cold):
        """``(seconds, k picked)`` of one stripes="auto" read."""
        before = dict(fed.obs.metrics.series("policy.auto_stripes"))
        seconds = self._read(fed, client, "auto", cold)
        (picked,) = [key for key, n in
                     fed.obs.metrics.series("policy.auto_stripes").items()
                     if n != before.get(key, 0)]
        return seconds, int(picked.split("k=")[1].rstrip("}"))

    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    def test_auto_lands_on_the_hand_swept_knee(self, cold):
        fed, client = self._grid()
        hand = {k: self._read(fed, client, k, cold)
                for k in range(2, self.N + 1)}
        seconds, picked = self._auto(fed, client, cold)
        assert seconds <= min(hand.values()) * 1.10
        if not cold:
            # no probe term: more paths only ever shrink the chunk
            assert picked == self.N == min(hand, key=hand.get)

    def test_reset_sessions_brings_the_probe_term_back(self):
        fed, client = self._grid()
        _, warm_pick = self._auto(fed, client, cold=False)
        cold_s, cold_pick = self._auto(fed, client, cold=True)
        assert warm_pick == self.N
        assert 1 < cold_pick < warm_pick
        # the cold read re-opened the sessions of the stripes it used:
        # the same read again owes nothing for them
        again_s, again_pick = self._auto(fed, client, cold=False)
        assert again_pick >= cold_pick
        assert cold_s - again_s == pytest.approx(
            cold_pick * fed.network.default_link.cost(64), rel=0.05)
