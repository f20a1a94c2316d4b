"""E17 (extension) — streaming query results: first-row latency and
bounded reply sizes.

E1-E16 queries materialize: the server walks every matching row, builds
one reply, and the client waits the full catalog scan plus one huge
message before seeing its *first* row.  E17 measures the streaming
plane end to end — ``query_page`` keyset pages carried over
``call_stream`` chunked replies into ``iter_query`` — against that
materializing baseline at N in {1k, 10k, 100k} result rows:

  (a) *first-row latency*: the streaming client's first row costs one
      page of catalog work plus one small message, independent of N;
      at N=100k it must beat the materializing baseline by >= 10x (the
      acceptance bar — the measured gap is orders of magnitude);
  (b) *peak reply bytes*: the largest single reply on the wire is
      bounded by the page size, not the result size — the peak chunk
      at N=100k stays at the N=1k peak while the baseline's one reply
      grows linearly with N;
  (c) *zero serial overhead*: a federation that has exercised the
      streaming surface charges a cursorless workload exactly the same
      virtual time and bytes as a fresh one — overhead 0.0, so every
      earlier experiment's numbers stand.

Last-row latency is reported too: draining a stream pays one query
overhead per page, so the full drain costs slightly more than one
materializing call — the stream buys latency and bounded memory, not
total work, exactly the trade the cursor API documents.

  (d) *a drain pays the link once*: the server pushes the chunks behind
      the one request that opened the stream, so with the client across
      a WAN the last row lands within 1.25x of the materializing call at
      every N (it was 16x at N=100k when each page was a round trip),
      in n + 1 messages for n chunks, and the first row still costs
      exactly the unary first page.
"""

import pytest

from repro.bench import ResultTable
from repro.core import Federation, SrbClient
from repro.net.simnet import WAN

from helpers import admin_client, flat_fed, record_json, record_table

OWNER = "srbadmin@sdsc"
SIZES = (1_000, 10_000, 100_000)
PAGE = 500


def scope_for(n):
    return f"/demozone/bench/n{n}"


def build_fed(client_host="h0", **fed_kwargs):
    """One federation holding a 1k, a 10k and a 100k result subtree,
    bulk-loaded straight into the catalog (the query plane only reads
    catalog rows, so the data bytes themselves are irrelevant here)."""
    fed = flat_fed(n_hosts=2, **fed_kwargs)
    client = admin_client(fed, host=client_host)
    for n in SIZES:
        coll = scope_for(n)
        fed.mcat.create_collection(coll, OWNER, now=0.0)
        fed.mcat.create_objects(
            [{"path": f"{coll}/f{i:06d}", "kind": "data", "size": 64}
             for i in range(n)], OWNER, now=0.0)
    return fed, client


def peak_chunk_bytes(fed):
    series = fed.obs.metrics.histogram_series("rpc.stream.chunk_bytes")
    return max((h.max for h in series.values()), default=0)


def measure(fed, client, n):
    """Baseline materializing query, then the stream, on the virtual
    clock.  Returns per-N latency and byte numbers."""
    scope = scope_for(n)

    t0, b0 = fed.clock.now, fed.rpc.stats.response_bytes
    full = client.query(scope, [])
    base_s = fed.clock.now - t0
    base_reply_bytes = fed.rpc.stats.response_bytes - b0
    assert len(full.rows) == n

    t0, m0 = fed.clock.now, fed.network.messages_sent
    it = client.iter_query(scope, [], page_size=PAGE)
    first = next(it)
    first_row_s = fed.clock.now - t0
    rows = 1 + sum(1 for _ in it)
    last_row_s = fed.clock.now - t0
    assert rows == n and first is not None

    return {
        "baseline_s": base_s,
        "baseline_reply_bytes": base_reply_bytes,
        "first_row_s": first_row_s,
        "last_row_s": last_row_s,
        "messages": fed.network.messages_sent - m0,
        "peak_chunk_bytes": peak_chunk_bytes(fed),
    }


def test_e17_first_row_latency_and_reply_bound(benchmark):
    """(a)+(b): first-row latency is N-independent, reply bytes are
    page-bounded."""
    fed, client = build_fed()
    table = ResultTable(
        f"E17 streaming vs. materializing query (page={PAGE})",
        ["rows", "baseline (s)", "first row (s)", "last row (s)",
         "first-row speedup", "baseline reply (B)", "peak chunk (B)"])
    results = {}
    for n in SIZES:
        r = measure(fed, client, n)
        results[n] = r
        table.add_row([
            n, round(r["baseline_s"], 6), round(r["first_row_s"], 6),
            round(r["last_row_s"], 6),
            round(r["baseline_s"] / r["first_row_s"], 1),
            int(r["baseline_reply_bytes"]), int(r["peak_chunk_bytes"])])
    record_table(benchmark, table)

    # (a) the acceptance bar: >= 10x first-row win at N=100k, and the
    # win grows with N because first-row cost is constant
    speedups = {n: results[n]["baseline_s"] / results[n]["first_row_s"]
                for n in SIZES}
    assert speedups[100_000] >= 10.0
    assert speedups[100_000] > speedups[10_000] > speedups[1_000]
    # first-row latency is flat in N (one page + one chunk, always)
    assert results[100_000]["first_row_s"] == \
        pytest.approx(results[1_000]["first_row_s"], rel=0.05)

    # (b) peak single reply on the wire is page-bounded: the 100k
    # stream's chunks sit at the 1k peak (modulo longer path strings in
    # the rows), while the baseline's single reply grew ~linearly in N
    assert results[100_000]["peak_chunk_bytes"] <= \
        results[1_000]["peak_chunk_bytes"] * 1.10
    assert results[100_000]["peak_chunk_bytes"] * 10 < \
        results[100_000]["baseline_reply_bytes"]
    assert results[100_000]["baseline_reply_bytes"] > \
        50 * results[1_000]["baseline_reply_bytes"]

    record_json("e17", {
        "page_size": PAGE,
        "baseline_100k_s": round(results[100_000]["baseline_s"], 6),
        "first_row_100k_s": round(results[100_000]["first_row_s"], 6),
        "last_row_100k_s": round(results[100_000]["last_row_s"], 6),
        "first_row_speedup_100k": round(speedups[100_000], 1),
        "baseline_reply_bytes_100k":
            int(results[100_000]["baseline_reply_bytes"]),
        "peak_chunk_bytes_100k":
            int(results[100_000]["peak_chunk_bytes"])})

    benchmark.pedantic(
        lambda: sum(1 for _ in client.iter_query(
            scope_for(1_000), [], page_size=PAGE)),
        rounds=1, iterations=1)


def test_e17_wan_drain_pays_the_link_once(benchmark):
    """(d): across a WAN the drain costs about what materializing does,
    and the first row what the unary first page does."""
    fed, client = build_fed(client_host="h1", default_link=WAN)
    table = ResultTable(
        f"E17b streamed drain across a WAN (page={PAGE}, 40 ms, 5 MB/s)",
        ["rows", "baseline (s)", "first row (s)", "last row (s)",
         "last row / baseline", "chunks", "messages"])
    for n in SIZES:
        t0 = fed.clock.now
        client.query_page(scope_for(n), [], limit=PAGE)
        first_page_s = fed.clock.now - t0
        r = measure(fed, client, n)
        chunks = n // PAGE
        table.add_row([
            n, round(r["baseline_s"], 4), round(r["first_row_s"], 4),
            round(r["last_row_s"], 4),
            round(r["last_row_s"] / r["baseline_s"], 2), chunks,
            r["messages"]])
        assert r["first_row_s"] == pytest.approx(first_page_s, rel=1e-9)
        assert r["last_row_s"] <= 1.25 * r["baseline_s"]
        assert r["messages"] == chunks + 1
    record_table(benchmark, table)
    benchmark.pedantic(
        lambda: sum(1 for _ in client.iter_query(
            scope_for(1_000), [], page_size=PAGE)),
        rounds=1, iterations=1)


def test_e17_serial_parity_is_exact(benchmark):
    """(c): the streaming plane costs a cursorless workload exactly
    nothing — clock and byte deltas match to the last bit."""
    def small_fed():
        fed = flat_fed(n_hosts=2)
        client = admin_client(fed)
        coll = "/demozone/bench/parity"
        fed.mcat.create_collection(coll, OWNER, now=0.0)
        fed.mcat.create_objects(
            [{"path": f"{coll}/f{i:03d}", "kind": "data", "size": 64}
             for i in range(200)], OWNER, now=0.0)
        return fed, client

    def cursorless_cost(fed, client):
        t0, b0 = fed.clock.now, fed.rpc.stats.response_bytes
        client.ls("/demozone/bench/parity")
        client.query("/demozone/bench/parity", [])
        return (fed.clock.now - t0, fed.rpc.stats.response_bytes - b0)

    fed_a, client_a = small_fed()
    fed_b, client_b = small_fed()
    # fed B exercises the whole streaming surface first
    for _ in client_b.iter_query("/demozone/bench/parity", [],
                                 page_size=32):
        pass
    for _ in client_b.iter_ls("/demozone/bench/parity", page_size=32):
        pass
    # align the clocks so both workloads start at the same absolute
    # virtual time: float addition is not associative, so identical
    # charges from different bases would differ in the last ulp and
    # mask the exact-equality claim
    fed_a.clock.advance(fed_b.clock.now - fed_a.clock.now)
    assert fed_a.clock.now == fed_b.clock.now
    cost_a = cursorless_cost(fed_a, client_a)
    cost_b = cursorless_cost(fed_b, client_b)
    assert cost_a == cost_b        # exactly, not approximately

    record_json("e17", {"serial_overhead_s": cost_b[0] - cost_a[0]})
    benchmark.pedantic(lambda: cursorless_cost(*small_fed()),
                       rounds=1, iterations=1)
