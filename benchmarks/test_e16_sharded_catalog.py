"""E16 (extension) — sharded MCAT: killing the single-catalog bottleneck.

Every catalog operation in E1-E15 serialises on one MCAT: the paper's
central weakness ("the MCAT could become a bottleneck") and the reason
its successors sharded their catalogs.  E16 partitions the catalog by
collection subtree across K shards (``ShardedMcat``) and adds R read
replicas per shard with write-log propagation:

  (a) on a mixed read/write workload against a 10^5+-row catalog, the
      *makespan* — the busiest catalog server's service time — drops
      nearly linearly in K, because subtree routing sends each op to
      exactly one shard (read scaling >= 2.5x at K=4 is the acceptance
      bar; the balanced key set here gets close to 4x);
  (b) read replicas take the entire read load off the primaries
      (offload fraction 1.0 in a read-only phase) while anti-entropy
      converges replication lag back to zero after writes;
  (c) there is one catalog class: ``Federation()`` and
      ``Federation(mcat_shards=1)`` build the same thing, which costs
      *exactly* what it always did on a serial workload — the same
      virtual time and the same Python-level calls — so every earlier
      experiment's numbers stand.

The busy-time accounting exists precisely for this experiment: the
shared virtual clock serialises all charges onto one timeline, so
wall-clock-style throughput gains from parallel catalog servers are
invisible on it; per-instance ``busy_s`` is the quantity that shards.
"""

import cProfile

import pytest

from repro.bench import ResultTable
from repro.core import Federation, SrbClient
from repro.mcat import Mcat, ShardedMcat

from helpers import record_json, record_table

ZONE = "demozone"
OWNER = "curator@sdsc"
PROJECTS = [f"proj{i:02d}" for i in range(32)]
OBJS_PER_PROJECT = 1100          # 35,200 objects -> ~105k catalog rows
N_OPS = 4000                     # mixed phase: 1 write per 10 reads


def lcg(seed=16):
    """Deterministic pseudo-random stream (no stdlib random: benchmarks
    must be exactly reproducible run to run)."""
    state = seed
    while True:
        state = (state * 1103515245 + 12345) % (1 << 31)
        yield state


def build_catalog(shards=None, replicas=0):
    """A 10^5+-row catalog: 32 balanced project subtrees, one replica
    row and two metadata rows per object, loaded through the bulk ops."""
    if shards is None:
        m = Mcat(zone=ZONE)
    else:
        m = ShardedMcat(zone=ZONE, shards=shards, replicas=replicas)
    for proj in PROJECTS:
        coll = f"/{ZONE}/{proj}"
        m.create_collection(coll, OWNER, now=0.0)
        specs = [{"path": f"{coll}/f{i}", "kind": "data", "size": 1024 + i}
                 for i in range(OBJS_PER_PROJECT)]
        oids = m.create_objects(specs, OWNER, now=0.0)
        m.add_replicas([{"oid": oid, "resource": "r0",
                         "physical_path": f"/vault{coll}/f{i}",
                         "size": 1024 + i}
                        for i, oid in enumerate(oids)], now=0.0)
        m.add_metadata_bulk(
            [{"target_kind": "object", "target_id": oid, "attr": attr,
              "value": val}
             for i, oid in enumerate(oids)
             for attr, val in (("proj", proj), ("idx", str(i)))],
            by=OWNER, now=0.0)
    return m


def catalog_rows(m):
    tables = ("collections", "objects", "replicas", "metadata")
    if isinstance(m, ShardedMcat):
        return sum(len(s.primary.db.table(t)) for s in m.shards
                   for t in tables)
    return sum(len(m.db.table(t)) for t in tables)


def busy_snapshot(m):
    """Per-catalog-instance service time: primaries then replicas."""
    if isinstance(m, ShardedMcat):
        return ([s.primary.busy_s for s in m.shards],
                [r.catalog.busy_s for s in m.shards for r in s.replicas])
    return [m.busy_s], []


def run_mixed(m, n_ops=N_OPS, write_every=10):
    """The measured phase: reads routed across all subtrees, with one
    metadata write per ``write_every`` ops.  Returns the makespan (the
    busiest instance's added service time) and per-instance deltas."""
    rand = lcg()
    prim0, rep0 = busy_snapshot(m)
    reads = writes = 0
    for i in range(n_ops):
        proj = PROJECTS[next(rand) % len(PROJECTS)]
        idx = next(rand) % OBJS_PER_PROJECT
        path = f"/{ZONE}/{proj}/f{idx}"
        if i % write_every == write_every - 1:
            oid = m.get_object(path)["oid"]
            m.add_metadata("object", oid, "touched", str(i), by=OWNER,
                           now=float(i))
            reads += 1       # the oid lookup above is a read
            writes += 1
        else:
            m.get_object(path)
            reads += 1
    prim1, rep1 = busy_snapshot(m)
    prim_deltas = [b - a for a, b in zip(prim0, prim1)]
    rep_deltas = [b - a for a, b in zip(rep0, rep1)]
    makespan = max(prim_deltas + rep_deltas)
    return makespan, prim_deltas, rep_deltas, reads, writes


def test_e16_read_scaling_with_shards(benchmark):
    """(a) makespan drops ~linearly in K on the mixed workload."""
    table = ResultTable(
        "E16a mixed read/write ops vs. catalog shards "
        f"({N_OPS} ops, 10% writes)",
        ["shards", "catalog rows", "makespan (s)", "ops/s",
         "speedup", "max/min shard busy"])
    results = {}
    for k in (1, 2, 4):
        m = build_catalog(shards=k)
        rows = catalog_rows(m)
        assert rows >= 100_000
        makespan, prim, _rep, reads, writes = run_mixed(m)
        assert reads + writes == N_OPS + N_OPS // 10
        results[k] = (makespan, prim)
        speedup = results[1][0] / makespan
        table.add_row([k, rows, round(makespan, 4),
                       round((reads + writes) / makespan, 1),
                       round(speedup, 2),
                       round(max(prim) / min(prim), 2) if min(prim) else "-"])
    record_table(benchmark, table)

    scaling_k2 = results[1][0] / results[2][0]
    scaling_k4 = results[1][0] / results[4][0]
    # the acceptance bar: >= 2.5x read throughput at K=4; the balanced
    # 32-subtree key set should land close to the ideal 4x
    assert scaling_k4 >= 2.5
    assert scaling_k2 >= 1.6
    assert scaling_k4 > scaling_k2
    # routing is single-shard per op: total work does not inflate with K
    assert sum(results[4][1]) == pytest.approx(results[1][0], rel=0.02)

    record_json("e16", {
        "catalog_rows": catalog_rows(build_catalog(shards=1)),
        "mixed_ops": N_OPS + N_OPS // 10,
        "makespan_k1_s": round(results[1][0], 6),
        "makespan_k4_s": round(results[4][0], 6),
        "read_scaling_k2": round(scaling_k2, 3),
        "read_scaling_k4": round(scaling_k4, 3)})

    benchmark.pedantic(
        lambda: run_mixed(build_catalog(shards=4), n_ops=200),
        rounds=1, iterations=1)


def test_e16_replicas_offload_reads(benchmark):
    """(b) replicas absorb the whole read load; anti-entropy converges
    the write log after the mixed phase."""
    m = build_catalog(shards=2, replicas=1)
    m.anti_entropy()                       # replicas caught up post-load

    # read-only phase: primaries must not gain a single second
    prim0, _ = busy_snapshot(m)
    rand = lcg(7)
    for _ in range(1000):
        proj = PROJECTS[next(rand) % len(PROJECTS)]
        m.get_object(f"/{ZONE}/{proj}/f{next(rand) % OBJS_PER_PROJECT}")
    prim1, _ = busy_snapshot(m)
    assert prim1 == prim0
    mtr = m.obs.metrics
    served = mtr.total("mcat.shard.replica_reads")
    assert served >= 1000
    assert mtr.total("mcat.shard.primary_reads") == 0

    # mixed phase: writes land on primaries, replicas keep serving
    makespan, prim_deltas, rep_deltas, reads, writes = run_mixed(
        m, n_ops=1000)
    assert all(d > 0 for d in prim_deltas)      # writes hit primaries
    assert all(d > 0 for d in rep_deltas)       # reads stayed on replicas
    lag_before = m.replication_lag()
    stats = m.anti_entropy()
    assert m.replication_lag() == 0
    assert stats["rebuilt"] == 0                # log replay suffices

    table = ResultTable(
        "E16b replica offload (shards=2, replicas=1)",
        ["phase", "replica reads", "primary reads",
         "primary busy added (s)", "lag after"])
    table.add_row(["read-only", int(served), 0, 0.0, 0])
    table.add_row(["mixed 10% writes",
                   int(mtr.total("mcat.shard.replica_reads")),
                   int(mtr.total("mcat.shard.primary_reads")),
                   round(sum(prim_deltas), 4), m.replication_lag()])
    record_table(benchmark, table)

    record_json("e16", {
        "readonly_offload_fraction": 1.0,
        "replication_lag_pre_repair": lag_before,
        "replication_lag_post_repair": m.replication_lag(),
        "anti_entropy_rebuilt": stats["rebuilt"]})

    benchmark.pedantic(lambda: m.get_object(f"/{ZONE}/proj00/f0"),
                       rounds=5, iterations=1)


def test_e16_knobs_off_parity(benchmark):
    """(c) guardrail: the default catalog and ``mcat_shards=1`` are the
    same type, and a serial grid workload costs the same virtual time
    *and* the same Python-level calls on both, exactly."""

    def grid(**knobs):
        fed = Federation(zone=ZONE, **knobs)
        for h in ("h0", "h1"):
            fed.add_host(h)
        fed.add_server("s0", "h1", mcat=True)
        fed.add_fs_resource("fs1", "h1")
        fed.default_resource = "fs1"
        fed.bootstrap_admin()
        client = SrbClient(fed, "h0", "s0", "srbadmin@sdsc", "hunter2")
        client.login()
        return fed, client

    def workload(fed, client):
        t0 = fed.clock.now
        profiler = cProfile.Profile()
        profiler.enable()
        client.mkcoll(f"/{ZONE}/bench")
        for i in range(15):
            client.ingest(f"/{ZONE}/bench/o{i}", b"x" * 512)
        for i in range(15):
            client.get(f"/{ZONE}/bench/o{i}")
            client.get_metadata(f"/{ZONE}/bench/o{i}")
        client.ls(f"/{ZONE}/bench")
        profiler.disable()
        return fed.clock.now - t0, sum(
            entry.callcount for entry in profiler.getstats())

    fed_plain, cl_plain = grid()
    plain, plain_calls = workload(fed_plain, cl_plain)

    fed_one, cl_one = grid(mcat_shards=1)
    assert type(fed_one.mcat) is type(fed_plain.mcat) is ShardedMcat
    one, one_calls = workload(fed_one, cl_one)

    overhead = one - plain
    assert overhead == 0.0              # exactly, not approximately
    assert one_calls == plain_calls
    record_json("e16", {"knobs_off_overhead_s": overhead,
                        "serial_virtual_time_s": round(plain, 6)})

    benchmark.pedantic(lambda: cl_one.get(f"/{ZONE}/bench/o0"),
                       rounds=3, iterations=1)
