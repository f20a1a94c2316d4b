"""E14 (extension) — overlapped data plane: fan-out, cache, stripes.

SRB's data movement grew two latency killers this experiment measures
together: scheduling a *set* of transfers concurrently (parallel I/O —
the cost of a fan-out is its slowest member, not the sum) and keeping
server<->resource sessions alive across operations (the per-op open
probe and, without SSO, the challenge-response are connection setup —
paying them once is the whole point of a session).

Both are how the data plane works, not options, so each series is
measured against what a user of the surviving surface could do instead:

  (a) logical-resource ingest fan-out to N members: time ~ max member,
      not sum — >=3x at N=4 on a symmetric WAN.  The serial reference
      is the same placement made by hand (ingest onto one member, then
      ``replicate`` onto the others one by one);
  (b) 100 repeated small gets: hit ratio >=0.99, per-op probe cost
      amortized away.  The cold reference flushes the server's
      sessions (``reset_sessions()``) before every get;
  (c) striped read of one large object from k replicas: scales with k
      until the per-path latency/probe knee — every read measured on
      cold sessions, so a stripe pays its probe as a first touch does;
  (d) guardrails: E2's failover still pays its charged timeout and
      E7's SSO handshake delta is still visible on kept-alive sessions.
"""

import pytest

from repro.bench import ResultTable, assert_monotone
from repro.core import Federation, SrbClient
from repro.errors import ReplicaUnavailable
from repro.net.simnet import WAN

from helpers import record_json, record_table

COLL = "/demozone/bench"
FANOUT_BYTES = 8_000_000


def build(n_hosts: int, **knobs):
    """MCAT server + client on h0; storage hosts h1..h{n}."""
    fed = Federation(zone="demozone", **knobs)
    for i in range(n_hosts + 1):
        fed.add_host(f"h{i}")
    fed.add_server("s0", "h0", mcat=True)
    for i in range(1, n_hosts + 1):
        fed.add_fs_resource(f"fs{i}", f"h{i}")
    fed.default_resource = "fs1"
    fed.bootstrap_admin()
    client = SrbClient(fed, "h0", "s0", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll(COLL)
    return fed, client


def timed_ingest(parallel: bool, n: int) -> float:
    """N copies of one object: as one logical-resource ingest, or made
    by hand, member after member."""
    fed, client = build(n)
    fed.add_logical_resource("all", [f"fs{i}" for i in range(1, n + 1)])
    t0 = fed.clock.now
    if parallel:
        client.ingest(f"{COLL}/fan.dat", b"x" * FANOUT_BYTES,
                      resource="all")
    else:
        client.ingest(f"{COLL}/fan.dat", b"x" * FANOUT_BYTES,
                      resource="fs1")
        for i in range(2, n + 1):
            client.replicate(f"{COLL}/fan.dat", f"fs{i}")
    obj = fed.mcat.get_object(f"{COLL}/fan.dat")
    assert len(fed.mcat.replicas(int(obj["oid"]))) == n
    return fed.clock.now - t0


def test_e14_fanout_makespan(benchmark):
    """(a) N-member fan-out: by hand ~ N x member, fan-out ~ max."""
    table = ResultTable(
        "E14a logical-resource ingest fan-out (8 MB x N members, WAN)",
        ["members", "by hand (s)", "fan-out (s)", "speedup"])
    speedups = []
    for n in (2, 4, 8):
        serial = timed_ingest(False, n)
        parallel = timed_ingest(True, n)
        speedups.append(serial / parallel)
        table.add_row([n, serial, parallel, f"{serial / parallel:.2f}x"])
    record_table(benchmark, table)

    # the win grows with the fan-out width and crosses 3x at N=4
    assert_monotone(speedups, increasing=True, tolerance=0.05)
    assert speedups[1] >= 3.0
    record_json("e14", {"fanout_speedup_n4": round(speedups[1], 3)})

    benchmark.pedantic(lambda: timed_ingest(True, 4),
                       rounds=1, iterations=1)


def test_e14_session_cache_amortizes_probes(benchmark):
    """(b) repeated small gets: the open probe is paid once, not 100x."""
    table = ResultTable(
        "E14b 100 repeated 1 KiB gets, server<->resource session cache",
        ["mode", "total (s)", "per-op (s)", "hit ratio"])
    results = {}
    for cached in (False, True):
        fed, client = build(1)
        client.ingest(f"{COLL}/small.dat", b"k" * 1024)
        m = fed.obs.metrics
        t0 = fed.clock.now
        for _ in range(100):
            if not cached:
                fed.reset_sessions()
            assert client.get(f"{COLL}/small.dat") == b"k" * 1024
        total = fed.clock.now - t0
        hits = sum(v for k, v in m.series("srb.session_cache").items()
                   if "result=hit" in k)
        misses = sum(v for k, v in m.series("srb.session_cache").items()
                     if "result=miss" in k)
        ratio = hits / (hits + misses) if hits + misses else 0.0
        results[cached] = (total, ratio)
        table.add_row(["cached" if cached else "cold", total, total / 100,
                       f"{ratio:.3f}" if cached else "-"])
    record_table(benchmark, table)

    cold_t, _ = results[False]
    warm_t, ratio = results[True]
    assert ratio >= 0.99
    # each op saves the 64-byte open probe to the storage host
    probe = WAN.cost(64)
    assert cold_t - warm_t == pytest.approx(99 * probe, rel=0.05)
    record_json("e14", {
        "session_cache_hit_ratio": round(ratio, 4),
        "probe_cost_saved_s": round(cold_t - warm_t, 4)})

    fed, client = build(1)
    client.ingest(f"{COLL}/b.dat", b"k" * 1024)
    benchmark.pedantic(lambda: client.get(f"{COLL}/b.dat"),
                       rounds=3, iterations=1)


def test_e14_striped_read_scaling(benchmark):
    """(c) striped read from k replicas: speedup grows, then the
    per-stripe probe + per-path latency floor bends the curve."""
    n_hosts = 16
    fed, client = build(n_hosts)
    client.ingest(f"{COLL}/big.dat", b"s" * FANOUT_BYTES, resource="fs1")
    for i in range(2, n_hosts + 1):
        client.replicate(f"{COLL}/big.dat", f"fs{i}")

    table = ResultTable(
        "E14c striped read of 8 MB from k replicas (WAN paths)",
        ["stripes", "read (s)", "speedup"])
    times = {}
    for k in (1, 2, 4, 8, 16):
        fed.reset_sessions()
        t0 = fed.clock.now
        data = client.get(f"{COLL}/big.dat",
                          stripes=k if k > 1 else None)
        times[k] = fed.clock.now - t0
        assert data == b"s" * FANOUT_BYTES
        table.add_row([k, times[k], f"{times[1] / times[k]:.2f}x"])
    record_table(benchmark, table)

    # scales while the wire dominates ...
    assert times[1] / times[2] >= 1.6
    assert times[1] / times[4] >= 2.4
    assert times[4] <= times[2]
    # ... and the knee is real: doubling 8 -> 16 stripes pays more in
    # per-stripe probes than it saves in transfer time
    assert times[1] / times[16] <= times[1] / times[8] * 1.05
    record_json("e14", {
        "striped_speedup_k4": round(times[1] / times[4], 3),
        "striped_speedup_k8": round(times[1] / times[8], 3),
        "striped_speedup_k16": round(times[1] / times[16], 3)})

    benchmark.pedantic(lambda: client.get(f"{COLL}/big.dat", stripes=4),
                       rounds=3, iterations=1)


def test_e14_guardrail_e2_failover_still_charged(benchmark):
    """(d1) a dead primary still costs the charged timeout before
    failover — a kept-alive session must not let a get skip discovering
    the failure."""
    fed, client = build(2)
    client.ingest(f"{COLL}/crit.dat", b"irreplaceable", resource="fs1")
    client.replicate(f"{COLL}/crit.dat", "fs2")

    t0 = fed.clock.now
    client.get(f"{COLL}/crit.dat")
    healthy = fed.clock.now - t0    # also warms the fs1 session

    fed.network.set_down("h1")
    failed0 = fed.network.failed_attempts
    t0 = fed.clock.now
    assert client.get(f"{COLL}/crit.dat") == b"irreplaceable"
    failover = fed.clock.now - t0
    assert fed.network.failed_attempts == failed0 + 1
    assert failover > healthy
    # the extra seconds are the timeout plus the replacement session
    assert failover - healthy >= 2 * WAN.latency_s * 0.9

    fed.network.set_down("h2")
    with pytest.raises(ReplicaUnavailable):
        client.get(f"{COLL}/crit.dat")
    record_json("e14", {
        "e2_guard_failover_extra_s": round(failover - healthy, 4)})

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e14_guardrail_e7_sso_delta_still_visible(benchmark):
    """(d2) the SSO ablation survives kept-alive sessions: the handshake
    is a *cold-session* cost, and first touches are always cold."""
    deltas = []
    for m in (2, 4):
        costs = {}
        for sso in (True, False):
            fed, client = build(m, sso_enabled=sso)
            msg0 = fed.network.messages_sent
            for i in range(1, m + 1):
                client.ingest(f"{COLL}/f{i}.dat", b"d" * 100,
                              resource=f"fs{i}")
            costs[sso] = fed.network.messages_sent - msg0
        deltas.append(costs[False] - costs[True])
    # 4 extra challenge-response messages per first touch, exactly as
    # in E7's cold-session series
    assert deltas == [4 * 2, 4 * 4]
    record_json("e14", {"e7_guard_extra_auth_msgs_m4": deltas[1]})

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
