"""``PlacementEngine.source_chain`` against the chain it replaced.

Readers of bytes (``get``, ``bulk_get``, striped reads, ``replicate``)
once walked ``order_replicas`` + ``failover_chain``
(the read walk: ``order_replicas`` + a clean filter).  That code is kept
here verbatim as the oracle.  The source chain must be a permutation of
the oracle's chain whose healthy copies' tiers — online on the sink's
host, other online, tape-resident — come in order, each in the
oracle's relative order; a copy on a quarantined path is never lifted
over one the oracle put before it, nor put behind one the oracle put
after it without that copy's tier being better; and where every copy
has one tier it must *be* the oracle's chain.  Checked over 1–5
replica rows × all five policies, with failures on the paths between
the sink and the other hosts in either direction, for several
successive reads so the stateful policies' rotation and draw advance
in step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReplicaUnavailable
from repro.net.simnet import LAN, WAN, LinkSpec, Network
from repro.policy import PLACEMENT_POLICIES, PlacementEngine
from repro.storage.archive import ArchiveDriver
from repro.storage.memfs import MemFsDriver
from repro.storage.resource import PhysicalResource, ResourceRegistry

SINK = "sink"
HOSTS = (SINK, "h1", "h2")


# -- the oracle: the engine's read path before the source chain -----------------

def oracle_order_replicas(engine, replicas, from_host=None, size_hint=None):
    reps = sorted(replicas, key=lambda r: r["replica_num"])
    if not reps:
        return []
    engine._count("read-order")
    return engine.policy.order(reps, engine._ctx(from_host, size_hint))


def oracle_failover_chain(engine, replicas, from_host=None,
                          allow_dirty=False, size_hint=None):
    chain = []
    for rep in oracle_order_replicas(engine, replicas, from_host=from_host,
                                     size_hint=size_hint):
        if rep["is_dirty"] and not allow_dirty:
            continue
        if not engine.resources.available(rep["resource"]):
            continue
        chain.append(rep)
    if not chain:
        raise ReplicaUnavailable(
            "no clean replica on an available resource "
            f"(of {len(replicas)} replicas)")
    return chain


def oracle_read_walk(engine, replicas, sink):
    """``_read_replica``'s chain before the source chain."""
    return [r for r in oracle_order_replicas(engine, replicas, from_host=sink)
            if not r["is_dirty"]]


# -- the grid a draw describes --------------------------------------------------

ROW = st.fixed_dictionaries({
    "host": st.sampled_from(HOSTS),
    "storage": st.sampled_from(("memfs", "cached", "tape")),
    "dirty": st.booleans(),
    "member": st.booleans(),
})


def build(rows, down):
    """One resource per row, holding that row's file; hosts in ``down``
    are down.  Links differ so ``nearest`` has an order to impose."""
    net = Network()
    for host in HOSTS:
        net.add_host(host)
    net.set_link(SINK, "h1", LAN)
    net.set_link(SINK, "h2", WAN)
    net.set_link("h1", "h2", LinkSpec(latency_s=0.01, bandwidth_bps=5e7))
    reg = ResourceRegistry(net)
    replicas = []
    for i, row in enumerate(rows, 1):
        path = f"/p{i}"
        driver = MemFsDriver() if row["storage"] == "memfs" \
            else ArchiveDriver()
        driver.create(path, b"x" * 100)
        if row["storage"] == "tape":
            driver.purge_cache()
        reg.add_physical(PhysicalResource(f"r{i}", row["host"], driver))
        replicas.append({"replica_num": i, "resource": f"r{i}",
                         "is_dirty": row["dirty"],
                         "container_oid": 99 if row["member"] else None,
                         "physical_path": path, "size": 100})
    for host in down:
        net.set_down(host)
    return net, reg, replicas


def tier(row, rows):
    spec = rows[row["replica_num"] - 1]
    if spec["storage"] == "tape":
        return 2
    return 0 if spec["host"] == SINK else 1


def chain_or_error(fn):
    try:
        return fn()
    except ReplicaUnavailable as exc:
        return str(exc)


def check(got, want, rows, quarantined=()):
    if isinstance(want, str):
        assert got == want            # both raised, with one message
        return
    assert sorted(r["replica_num"] for r in got) == \
        sorted(r["replica_num"] for r in want)
    ill = [rows[r["replica_num"] - 1]["host"] in quarantined for r in want]
    healthy = [r for r in got
               if rows[r["replica_num"] - 1]["host"] not in quarantined]
    tiers = [tier(r, rows) for r in healthy]
    assert tiers == sorted(tiers)
    for t in (0, 1, 2):
        assert [r for r in healthy if tier(r, rows) == t] == \
            [r for r, q in zip(want, ill) if not q and tier(r, rows) == t]
    pos = {r["replica_num"]: i for i, r in enumerate(got)}
    for i, (rep, q) in enumerate(zip(want, ill)):
        if not q:
            continue
        # never lifted over an earlier pick of the oracle ...
        assert all(pos[r["replica_num"]] < pos[rep["replica_num"]]
                   for r in want[:i])
        # ... and never behind a later one whose tier is no better
        floor = max(tier(r, rows) for r in want[:i + 1])
        assert all(pos[r["replica_num"]] > pos[rep["replica_num"]]
                   for r in want[i + 1:] if tier(r, rows) >= floor)
    if len({tier(r, rows) for r in want}) == 1:
        assert got == want
    if not any(ill):
        # the tiers alone, as before any path failed
        assert [tier(r, rows) for r in got] == \
            sorted(tier(r, rows) for r in got)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(ROW, min_size=1, max_size=5),
       policy=st.sampled_from(PLACEMENT_POLICIES),
       down=st.sets(st.sampled_from(("h1", "h2"))),
       failed=st.sets(st.tuples(st.sampled_from(("h1", "h2")),
                                st.booleans())),
       reads=st.integers(min_value=1, max_value=3))
def test_the_chain_is_the_oracles_reordered_by_tier(rows, policy, down,
                                                    failed, reads):
    net, reg, replicas = build(rows, down)
    engine = PlacementEngine(reg, net, policy=policy)
    oracle = PlacementEngine(reg, net, policy=policy)
    for host, outbound in failed:       # a failed probe, or a failed pull
        src, dst = (SINK, host) if outbound else (host, SINK)
        for eng in (engine, oracle):
            eng.stats.observe_failure(src, dst, now=net.clock.now)
    quarantined = {host for host, _outbound in failed}
    for _ in range(reads):
        want = chain_or_error(
            lambda: oracle_failover_chain(oracle, replicas, from_host=SINK))
        got = chain_or_error(lambda: engine.source_chain(replicas, SINK))
        check(got, want, rows, quarantined)
        check(engine.source_chain(replicas, SINK, probe_down=True),
              oracle_read_walk(oracle, replicas, SINK), rows, quarantined)


class TestWhatTheRuleAsks:
    def test_a_single_candidate_asks_no_driver(self):
        net, reg, replicas = build(
            [{"host": "h1", "storage": "tape", "dirty": False,
              "member": False},
             {"host": SINK, "storage": "cached", "dirty": True,
              "member": False}], down=())
        asked = []
        for name in ("r1", "r2"):
            driver = reg.physical(name).driver
            driver.is_online = lambda path, d=driver: asked.append(path)
        engine = PlacementEngine(reg, net)
        assert [r["replica_num"]
                for r in engine.source_chain(replicas, SINK)] == [1]
        assert asked == []

    def test_online_on_the_sink_then_online_then_tape(self):
        rows = [{"host": "h1", "storage": "memfs"},
                {"host": SINK, "storage": "tape"},
                {"host": "h2", "storage": "cached"},
                {"host": SINK, "storage": "cached"}]
        net, reg, replicas = build(
            [dict(r, dirty=False, member=False) for r in rows], down=())
        engine = PlacementEngine(reg, net)
        assert [r["replica_num"]
                for r in engine.source_chain(replicas, SINK)] == [4, 1, 3, 2]

    def test_a_quarantined_path_is_not_lifted_over_tape(self):
        """``nearest`` ranks the tape copy on the sink first; the split
        would lift the online copy on h1 over it, and once h1's probe
        has failed it must not: the read stages instead of probing."""
        rows = [{"host": "h1", "storage": "memfs"},
                {"host": SINK, "storage": "tape"},
                {"host": "h2", "storage": "memfs"}]
        net, reg, replicas = build(
            [dict(r, dirty=False, member=False) for r in rows], down=("h1",))
        engine = PlacementEngine(reg, net, policy="nearest")
        walk = lambda: [r["replica_num"] for r in engine.source_chain(
            replicas, SINK, probe_down=True)]
        assert walk() == [1, 3, 2]
        engine.stats.observe_failure(SINK, "h1", now=net.clock.now)
        assert walk() == [3, 2, 1]
        net.clock.advance(engine.stats.failure_half_life_s * 2)
        assert walk() == [1, 3, 2]      # decayed: readmitted

    def test_a_quarantined_path_the_policy_ranks_first_stays_first(self):
        """The split stops a lift; demoting a failing copy the policy
        itself put first is the policy's call (E2's and A1b's charged
        failover walk ``primary``'s order as it is)."""
        rows = [{"host": "h1", "storage": "memfs"},
                {"host": "h2", "storage": "memfs"}]
        net, reg, replicas = build(
            [dict(r, dirty=False, member=False) for r in rows], down=("h1",))
        engine = PlacementEngine(reg, net)
        engine.stats.observe_failure(SINK, "h1", now=net.clock.now)
        assert [r["replica_num"] for r in engine.source_chain(
            replicas, SINK, probe_down=True)] == [1, 2]
