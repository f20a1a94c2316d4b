"""E18 (extension) — observed-stats placement vs the static policies.

SRB's replica selection (E3) is static: catalog order, rotation, a
random draw, or link latency.  None of them look at what the wire
actually delivered.  The placement engine's ``observed`` policy ranks
candidate replicas by predicted transfer time from EWMA path
throughput/latency learned from the transfers the simulation already
charges — no probe traffic — and the same predictor picks the stripe
count for ``get(stripes="auto")``.

Reproduced series on a deliberately nasty topology (one slow, one
fast-but-far, one congested path — the kind of heterogeneity the
latency-only ``nearest`` policy is blind to):

  (a) p99 read latency per policy: every static policy parks some or
      all reads on a bad path; ``observed`` converges on the fast
      replica after a handful of reads and beats the best static
      policy's p99 by >10x;
  (b) ``stripes="auto"`` lands within 10% of E14c's hand-swept knee
      without the sweep;
  (c) guardrail: the predictor is observation-only — detaching it from
      an identical workload changes nothing (virtual time and message
      count deltas are exactly zero).
"""

import pytest

from repro.bench import ResultTable
from repro.core import Federation, SrbClient
from repro.net.simnet import LinkSpec

from helpers import record_json, record_table

COLL = "/demozone/bench"
OBJ_BYTES = 4_000_000
STRIPE_BYTES = 8_000_000

SLOW = LinkSpec(latency_s=0.040, bandwidth_bps=1e6)        # thin WAN
FAST = LinkSpec(latency_s=0.050, bandwidth_bps=2e7)        # far but fat
CONGESTED = LinkSpec(latency_s=0.002, bandwidth_bps=5e5)   # near, choked

POLICIES = ("primary", "round-robin", "random", "nearest", "observed")


def build_hetero(policy: str):
    """MCAT server + client on h0; one replica per path quality."""
    fed = Federation(zone="demozone", placement=policy)
    for i in range(4):
        fed.add_host(f"h{i}")
    fed.network.set_link("h0", "h1", SLOW)
    fed.network.set_link("h0", "h2", FAST)
    fed.network.set_link("h0", "h3", CONGESTED)
    fed.add_server("s0", "h0", mcat=True)
    for i in (1, 2, 3):
        fed.add_fs_resource(f"fs{i}", f"h{i}")
    fed.default_resource = "fs1"
    fed.bootstrap_admin()
    client = SrbClient(fed, "h0", "s0", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll(COLL)
    client.ingest(f"{COLL}/hot.dat", b"h" * OBJ_BYTES, resource="fs1")
    client.replicate(f"{COLL}/hot.dat", "fs2")
    client.replicate(f"{COLL}/hot.dat", "fs3")
    return fed, client


def p99(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       max(0, int(0.99 * len(ordered)) ))]


def test_e18_observed_tail_latency(benchmark):
    """(a) p99 read latency, 60 reads per policy after 3 warmup reads."""
    table = ResultTable(
        "E18a 4 MB reads on slow/fast/congested replicas (60 per policy)",
        ["policy", "mean (s)", "p99 (s)"])
    results = {}
    for policy in POLICIES:
        fed, client = build_hetero(policy)
        for _ in range(3):          # warmup: observed learns the paths
            client.get(f"{COLL}/hot.dat")
        laps = []
        for _ in range(60):
            t0 = fed.clock.now
            assert client.get(f"{COLL}/hot.dat") == b"h" * OBJ_BYTES
            laps.append(fed.clock.now - t0)
        results[policy] = laps
        table.add_row([policy, sum(laps) / len(laps), p99(laps)])
    record_table(benchmark, table)

    best_static = min(p99(results[p]) for p in POLICIES[:-1])
    observed = p99(results["observed"])
    # the static policies park reads on the slow (primary) or congested
    # (nearest, and the rotation/random tails) paths; observed steers
    # every steady-state read onto the fast one
    assert observed < best_static
    assert best_static / observed > 10.0
    record_json("e18", {
        "p99_s": {p: round(p99(laps), 4) for p, laps in results.items()},
        "observed_vs_best_static_p99": round(best_static / observed, 2)})

    fed, client = build_hetero("observed")
    benchmark.pedantic(lambda: client.get(f"{COLL}/hot.dat"),
                       rounds=3, iterations=1)


def build_uniform(n_hosts: int, **knobs):
    """E14c's symmetric topology: default link everywhere."""
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
    client.ingest(f"{COLL}/big.dat", b"s" * STRIPE_BYTES, resource="fs1")
    for i in range(2, n_hosts + 1):
        client.replicate(f"{COLL}/big.dat", f"fs{i}")
    return fed, client


def test_e18_auto_stripes_match_the_hand_swept_knee(benchmark):
    """(b) stripes="auto" vs E14c's sweep, 8 MB over 16 replicas.

    Measured twice, because what a stripe costs depends on whether the
    server already holds a session to its replica: *cold* (sessions
    flushed with ``reset_sessions()`` before every read, so each stripe
    pays its open probe and the knee sits where E14c found it) and
    *warm* (the sessions the replicate calls left open, so stripes are
    free of probes and the knee moves out to every replica).  The data
    plane tells the engine which candidates still owe a probe; auto has
    to land within 10% of the hand-swept knee in both states."""
    n_hosts = 16
    table = ResultTable(
        "E18b hand-swept stripe counts vs stripes=\"auto\" (8 MB)",
        ["stripes", "cold read (s)", "warm read (s)"])

    def read(fed, client, stripes, cold):
        if cold:
            fed.reset_sessions()
        t0 = fed.clock.now
        data = client.get(f"{COLL}/big.dat", stripes=stripes)
        assert data == b"s" * STRIPE_BYTES
        return fed.clock.now - t0

    fed, client = build_uniform(n_hosts)
    hand = {True: {}, False: {}}
    for k in (1, 2, 4, 8, 16):
        for cold in (True, False):
            hand[cold][k] = read(fed, client, k if k > 1 else None, cold)
        table.add_row([k, hand[True][k], hand[False][k]])

    # fresh federations: auto must pick from the probes+makespan model
    # over the uniform prior, not from having watched the sweep
    auto = {}
    for cold in (True, False):
        fed2, client2 = build_uniform(n_hosts)
        auto[cold] = read(fed2, client2, "auto", cold)
        assert fed2.obs.metrics.total("policy.auto_stripes") == 1
    table.add_row(["auto", auto[True], auto[False]])
    record_table(benchmark, table)

    knee = {cold: min(hand[cold].values()) for cold in (True, False)}
    for cold in (True, False):
        assert auto[cold] <= knee[cold] * 1.10
    # a warm stripe owes no probe, so the warm knee is further out
    assert knee[False] < knee[True]
    record_json("e18", {
        "hand_knee_s": round(knee[True], 4),
        "auto_stripe_s": round(auto[True], 4),
        "auto_vs_knee": round(auto[True] / knee[True], 4),
        "warm_hand_knee_s": round(knee[False], 4),
        "warm_auto_stripe_s": round(auto[False], 4),
        "warm_auto_vs_knee": round(auto[False] / knee[False], 4)})

    benchmark.pedantic(lambda: client2.get(f"{COLL}/big.dat",
                                           stripes="auto"),
                       rounds=3, iterations=1)


def test_e18_guardrail_observation_is_free(benchmark):
    """(c) the predictor only watches transfers the simulation already
    charges: detaching it leaves an identical workload byte-for-byte
    and tick-for-tick unchanged."""
    def run(detach: bool):
        fed = Federation(zone="demozone")
        for i in range(3):
            fed.add_host(f"h{i}")
        fed.add_server("s0", "h0", mcat=True)
        for i in (1, 2):
            fed.add_fs_resource(f"fs{i}", f"h{i}")
        fed.default_resource = "fs1"
        fed.bootstrap_admin()
        if detach:
            fed.network.remove_transfer_observer(fed.placement.stats)
        client = SrbClient(fed, "h0", "s0", "srbadmin@sdsc", "hunter2")
        client.login()
        client.mkcoll(COLL)
        client.ingest(f"{COLL}/f.dat", b"z" * 100_000)
        client.replicate(f"{COLL}/f.dat", "fs2")
        for _ in range(5):
            client.get(f"{COLL}/f.dat")
        return fed.clock.now, fed.network.messages_sent, \
            fed.network.bytes_sent

    attached = run(detach=False)
    detached = run(detach=True)
    assert attached == detached
    record_json("e18", {"observer_overhead_s": round(
        attached[0] - detached[0], 10)})

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
