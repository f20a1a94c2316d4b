"""E3 — replication for load balancing.

Paper claim (Section 3, advantage 2):
  "Improved reliability and availability - data may be replicated in
   different storage systems on different hosts under control of
   different SRB servers to provide load balancing."

Reproduced series: C logically-concurrent readers fetch a 10 MB object
replicated on R hosts, for R = 1, 2, 4, 8.  Transfers are scheduled with
the network's per-host queueing model; the makespan is the slowest
completion.  Expected shape: aggregate throughput scales close to
linearly with R until the reader count stops saturating the replicas.

Ablation: replica-selection policy (primary / round-robin / random /
nearest) at R=4 — "primary" funnels everything to one host and loses.
"""

import pytest

from repro.bench import ResultTable, assert_monotone
from repro.net.simnet import WAN, Network
from repro.policy import PlacementEngine

OBJECT_BYTES = 10_000_000
READERS = 16


def build_network(n_replicas: int):
    net = Network()
    for i in range(n_replicas):
        net.add_host(f"store{i}")
    for i in range(READERS):
        net.add_host(f"reader{i}")
    return net


def makespan_for(net, assignment):
    """Schedule one read per reader against its assigned replica host."""
    net.reset_queues()
    start = net.clock.now
    completions = []
    for reader, store in assignment:
        completions.append(
            net.schedule_transfer(store, reader, OBJECT_BYTES))
    return max(completions) - start


def test_e3_replica_scaling(benchmark):
    table = ResultTable(
        "E3 load balancing: 16 concurrent readers of a 10 MB object",
        ["replicas", "makespan (s)", "aggregate MB/s", "speedup vs 1"])
    makespans = []
    for r in (1, 2, 4, 8):
        net = build_network(r)
        assignment = [(f"reader{i}", f"store{i % r}")
                      for i in range(READERS)]
        span = makespan_for(net, assignment)
        makespans.append(span)
        table.add_row([r, span,
                       READERS * OBJECT_BYTES / span / 1e6,
                       f"{makespans[0] / span:.2f}x"])
    from helpers import record_table
    record_table(benchmark, table)

    assert_monotone(makespans, increasing=False)
    # near-linear up to 8 replicas for 16 readers (>= 70% efficiency)
    assert makespans[0] / makespans[-1] >= 8 * 0.7

    net = build_network(2)
    assignment = [(f"reader{i}", f"store{i % 2}") for i in range(READERS)]
    benchmark.pedantic(lambda: makespan_for(net, assignment),
                       rounds=3, iterations=1)


def test_e3_policy_ablation(benchmark):
    """Selection policies at R=4: spreading beats funnelling."""
    from repro.storage.memfs import MemFsDriver
    from repro.storage.resource import PhysicalResource, ResourceRegistry

    table = ResultTable(
        "E3b ablation: replica-selection policy, 4 replicas, 16 readers",
        ["policy", "makespan (s)", "aggregate MB/s"])
    results = {}
    for policy in ("primary", "round-robin", "random", "nearest"):
        net = build_network(4)
        reg = ResourceRegistry(net)
        replicas = []
        for i in range(4):
            reg.add_physical(PhysicalResource(f"res{i}", f"store{i}",
                                              MemFsDriver()))
            replicas.append({"replica_num": i + 1, "resource": f"res{i}",
                             "is_dirty": False, "container_oid": None})
        engine = PlacementEngine(reg, net, policy=policy)
        assignment = []
        for i in range(READERS):
            chosen = engine.order_replicas(replicas,
                                           from_host=f"reader{i}")[0]
            store = reg.physical(chosen["resource"]).host
            assignment.append((f"reader{i}", store))
        span = makespan_for(net, assignment)
        results[policy] = span
        table.add_row([policy, span,
                       READERS * OBJECT_BYTES / span / 1e6])
    from helpers import record_table
    record_table(benchmark, table)

    # primary funnels all 16 readers onto one replica: ~4x worse than RR
    assert results["primary"] > 3 * results["round-robin"]
    assert results["random"] < results["primary"]

    benchmark.pedantic(
        lambda: makespan_for(build_network(4),
                             [(f"reader{i}", f"store{i % 4}")
                              for i in range(READERS)]),
        rounds=3, iterations=1)
