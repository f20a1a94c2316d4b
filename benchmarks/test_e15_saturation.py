"""E15 (extension) — open-loop saturation: worker pools and admission.

Every earlier experiment drives the grid closed-loop, so offered load
can never exceed capacity and the paper's operating regime — "heavy
traffic", servers that must *refuse* work — is invisible.  E15 installs
a bounded worker pool on the SRB server host (``Federation.add_host(host,
workers=..., queue_depth=...)``) and sweeps a Poisson open-loop workload
across its capacity:

  (a) without admission control the latency curve has a knee: p50/p99
      are flat below capacity, then queueing delay blows up roughly
      linearly in the excess arrivals while goodput plateaus at the
      pool's service rate;
  (b) with a bounded queue the server sheds the excess (``ServerBusy``
      fast-fails with a retry-after hint), keeping the latency of the
      requests it *does* accept bounded by the queue depth — goodput
      holds at capacity instead of latency going unbounded.

Capacity is calibrated, not hard-coded: two back-to-back open-loop
requests at the same arrival against a ``workers=1`` pool make the
second request's queue wait equal to one request's service time S, so
capacity = workers / S.
"""

import pytest

from repro.bench import ResultTable
from repro.core import Federation, SrbClient
from repro.workload import poisson_arrivals, run_open_loop

from helpers import record_json, record_table

COLL = "/demozone/bench"
OBJ = f"{COLL}/hot.dat"
PAYLOAD = b"h" * 1024
WORKERS = 4
N_REQUESTS = 200


def build(workers=None, queue_depth=None):
    """Client on h0, SRB+MCAT server on h1, storage on h2 (WAN links)."""
    fed = Federation(zone="demozone")
    fed.add_host("h0")
    fed.add_host("h1", workers=workers, queue_depth=queue_depth)
    fed.add_host("h2")
    fed.add_server("s0", "h1", mcat=True)
    fed.add_fs_resource("fs2", "h2")
    fed.default_resource = "fs2"
    fed.bootstrap_admin()
    client = SrbClient(fed, "h0", "s0", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll(COLL)
    client.ingest(OBJ, PAYLOAD)
    return fed, client


def service_time_s() -> float:
    """One get's service time S at the server's worker pool.

    Two open-loop requests at the identical arrival against a single
    worker: the first starts immediately, so the second's queue wait is
    exactly S.
    """
    fed, client = build(workers=1)
    reg = fed.rpc
    t = fed.clock.now
    with reg.open_loop(t):
        client.get(OBJ)
    assert reg.last_timing.wait == 0.0
    with reg.open_loop(t):
        client.get(OBJ)
    s = reg.last_timing.wait
    assert s > 0.0
    return s


def sweep_point(rate_hz: float, queue_depth=None, n=N_REQUESTS):
    fed, client = build(workers=WORKERS, queue_depth=queue_depth)
    arrivals = poisson_arrivals(rate_hz, n, seed=15, start=fed.clock.now)
    report = run_open_loop(fed.rpc, arrivals, lambda i: client.get(OBJ),
                           offered_rate_hz=rate_hz)
    return fed, report


def test_e15_saturation_knee(benchmark):
    """(a) unbounded queue: flat below capacity, knee at it."""
    s = service_time_s()
    capacity = WORKERS / s
    table = ResultTable(
        "E15a open-loop gets vs. offered load "
        f"(workers={WORKERS}, unbounded queue)",
        ["rho", "offered (req/s)", "p50 (s)", "p99 (s)",
         "goodput (req/s)", "shed"])
    points = {}
    for rho in (0.2, 0.4, 0.6, 0.8, 1.2, 1.5, 1.8):
        _, rep = sweep_point(rho * capacity)
        points[rho] = rep
        table.add_row([rho, rho * capacity, rep.p50, rep.p99,
                       rep.goodput_hz, rep.shed_count])
    record_table(benchmark, table)

    # nothing is ever refused without a queue bound ...
    assert all(rep.shed_count == 0 for rep in points.values())
    assert all(rep.error_count == 0 for rep in points.values())
    # ... the curve is flat below the knee ...
    base = points[0.2].p99
    assert points[0.6].p99 <= 2.0 * base
    assert points[0.8].p99 <= 3.0 * base
    # ... and queueing delay blows up past it
    assert points[1.5].p99 >= 3.0 * points[0.6].p99
    assert points[1.8].p99 >= points[1.5].p99
    # goodput rises with offered load below the knee, then plateaus at
    # the pool's service rate instead of tracking the offered rate
    assert points[0.8].goodput_hz > points[0.4].goodput_hz
    assert points[1.8].goodput_hz <= capacity * 1.10
    assert points[1.8].goodput_hz >= capacity * 0.75

    # empirical knee: the largest swept rate whose p99 stayed within
    # 3x the lightly-loaded baseline
    below = [rho for rho, rep in points.items() if rep.p99 <= 3.0 * base]
    knee = max(below) * capacity
    assert 0.6 * capacity <= knee <= 1.2 * capacity
    _, rep80 = sweep_point(0.8 * knee)
    record_json("e15", {
        "service_time_s": round(s, 6),
        "capacity_req_s": round(capacity, 4),
        "knee_offered_rate_hz": round(knee, 4),
        "p99_at_80pct_knee_s": round(rep80.p99, 6)})

    benchmark.pedantic(lambda: sweep_point(0.5 * capacity, n=20),
                       rounds=1, iterations=1)


def test_e15_admission_bounds_latency(benchmark):
    """(b) bounded queue at 1.8x capacity: shed the excess, keep the
    accepted requests' latency bounded by the queue depth."""
    s = service_time_s()
    capacity = WORKERS / s
    depth = 8
    rate = 1.8 * capacity

    _, unbounded = sweep_point(rate, queue_depth=None, n=300)
    fed, bounded = sweep_point(rate, queue_depth=depth, n=300)

    table = ResultTable(
        f"E15b admission control at 1.8x capacity (queue_depth={depth})",
        ["mode", "completed", "shed", "p99 (s)", "goodput (req/s)"])
    table.add_row(["unbounded", len(unbounded.completed),
                   unbounded.shed_count, unbounded.p99,
                   unbounded.goodput_hz])
    table.add_row(["bounded", len(bounded.completed),
                   bounded.shed_count, bounded.p99, bounded.goodput_hz])
    record_table(benchmark, table)

    # the overload is real and the bounded pool sheds it
    assert unbounded.shed_count == 0
    assert bounded.shed_count > 0
    assert len(bounded.completed) + bounded.shed_count == 300
    # every shed carries a forward-looking backoff hint
    assert all(o.retry_after is not None and o.retry_after >= 0.0
               for o in bounded.outcomes if o.shed)
    # accepted requests wait at most ~queue_depth/workers service times;
    # the unbounded pool's tail keeps growing with the backlog
    assert bounded.p99 <= unbounded.p99 / 2.0
    assert max(o.wait for o in bounded.outcomes if o.ok) \
        <= (depth / WORKERS + 1.0) * s * 1.05
    # goodput still holds near capacity — shedding protects throughput
    assert bounded.goodput_hz >= capacity * 0.75

    # accounting agrees end to end: report <-> metrics <-> stats()
    m = fed.obs.metrics
    assert int(m.total("srb.admission.shed")) == bounded.shed_count
    stats = fed.stats()
    assert stats["requests_shed"] == bounded.shed_count
    station = fed.network.station("h1")
    assert (station.workers, station.queue_depth) == (WORKERS, depth)

    record_json("e15", {
        "shed_fraction_at_1p8x": round(bounded.shed_fraction, 4),
        "p99_bounded_s": round(bounded.p99, 6),
        "p99_unbounded_s": round(unbounded.p99, 6),
        "goodput_bounded_hz": round(bounded.goodput_hz, 4)})

    benchmark.pedantic(lambda: sweep_point(rate, queue_depth=depth, n=20),
                       rounds=1, iterations=1)


def test_e15_serial_traffic_unaffected_by_pool(benchmark):
    """Guardrail: closed-loop serial traffic never queues, so a pool
    with default-sized knobs costs nothing — E1-E13 semantics hold."""
    fed_plain, client_plain = build()
    fed_pool, client_pool = build(workers=WORKERS, queue_depth=8)

    t0 = fed_plain.clock.now
    for _ in range(20):
        client_plain.get(OBJ)
    plain = fed_plain.clock.now - t0

    t0 = fed_pool.clock.now
    for _ in range(20):
        client_pool.get(OBJ)
    pooled = fed_pool.clock.now - t0

    assert pooled == pytest.approx(plain)
    m = fed_pool.obs.metrics
    assert m.total("srb.admission.shed") == 0
    # every admitted request found a free worker: zero queue wait
    assert all(h.max == 0.0
               for h in m.histogram_series("srb.queue.wait_s").values())
    record_json("e15", {"serial_overhead_s": round(pooled - plain, 9)})

    benchmark.pedantic(lambda: client_pool.get(OBJ),
                       rounds=3, iterations=1)
