"""E12 (extension) — parallel data transfer on window-limited WAN paths.

SRB 2.x added parallel I/O because one early-2000s TCP stream ran far
below a transcontinental path's capacity (window / bandwidth-delay
limits).  The network model exposes that as ``LinkSpec.per_stream_bps``,
and the path decides how many streams a payload leg opens: as many as
reach its capacity (``LinkSpec.payload_streams``), while control
traffic stays single-stream.  Nothing is set to get them.

Reproduced series: a 20 MB ingest to a remote resource over a path with
capacity 10 MB/s but only 1 MB/s per stream.  Each k-stream row ingests
over the link a k-stream connection sees, ``LinkSpec(latency,
min(capacity, k x per-stream))``, for k = 1..16.  Expected shape:
throughput grows ~linearly with k until the path capacity caps it
(crossover at k = capacity / per-stream = 10).  A last row ingests over
the window-limited path itself, given no argument: it costs exactly what
the k = 16 row costs, because the leg opens the ten streams it needs.
Every row opens its session to the far resource before the clock starts,
so the timed ingest puts only its payload on the far link.
"""

import pytest

from repro.bench import ResultTable, assert_monotone
from repro.core import Federation, SrbClient
from repro.net.simnet import LinkSpec

from helpers import record_json, record_table

# a long fat pipe: 10 MB/s capacity, 1 MB/s per TCP stream
LFN = LinkSpec(latency_s=0.08, bandwidth_bps=10e6, per_stream_bps=1e6)
SIZE = 20_000_000


def seen_by(k: int) -> LinkSpec:
    """The link a connection of ``k`` streams sees on :data:`LFN`."""
    return LinkSpec(LFN.latency_s,
                    min(LFN.bandwidth_bps, k * LFN.per_stream_bps))


def build(link: LinkSpec):
    fed = Federation(zone="demozone")
    fed.add_host("near")
    fed.add_host("far")
    fed.network.set_link("near", "far", link)
    fed.add_server("s", "near", mcat=True)
    fed.add_fs_resource("near-disk", "near")
    fed.add_fs_resource("far-disk", "far")
    fed.default_resource = "near-disk"
    fed.bootstrap_admin()
    client = SrbClient(fed, "near", "s", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll("/demozone/bulk")
    # open the server's session to the far resource before any timing
    client.ingest("/demozone/bulk/warm.dat", b"w", resource="far-disk")
    return fed, client


def timed_ingest(link: LinkSpec) -> float:
    fed, client = build(link)
    t0 = fed.clock.now
    client.ingest("/demozone/bulk/big.dat", b"x" * SIZE,
                  resource="far-disk")
    return fed.clock.now - t0


def test_e12_stream_sweep(benchmark):
    table = ResultTable(
        "E12 parallel streams: 20 MB ingest over a 10 MB/s path "
        "(1 MB/s per stream)",
        ["streams", "ingest (s)", "throughput (MB/s)", "speedup"])
    times = []
    for k in (1, 2, 4, 8, 16):
        cost = timed_ingest(seen_by(k))
        times.append(cost)
        table.add_row([k, cost, SIZE / cost / 1e6,
                       f"{times[0] / cost:.1f}x"])
    # the path itself, no argument: the leg opens what reaches capacity
    own = timed_ingest(LFN)
    table.add_row([f"path ({LFN.payload_streams()})", own,
                   SIZE / own / 1e6, f"{times[0] / own:.1f}x"])
    record_table(benchmark, table)

    assert_monotone(times, increasing=False)
    # near-linear until the capacity knee at 10 streams
    assert times[0] / times[2] == pytest.approx(4.0, rel=0.15)   # 4 streams
    # 16 streams cannot beat the path capacity: ~10x, not 16x
    assert times[0] / times[-1] == pytest.approx(10.0, rel=0.2)
    assert own == times[-1]
    record_json("e12", {
        "stream_speedup_k4": round(times[0] / times[2], 3),
        "stream_speedup_k16": round(times[0] / times[-1], 3)})

    fed, client = build(LFN)
    counter = [0]

    def ingest():
        counter[0] += 1
        client.ingest(f"/demozone/bulk/b{counter[0]}.dat", b"x" * 100_000,
                      resource="far-disk")

    benchmark.pedantic(ingest, rounds=3, iterations=1)


def test_e12_reads_benefit_too(benchmark):
    fed1, client1 = build(seen_by(1))
    fed8, client8 = build(seen_by(8))
    for fed, client in ((fed1, client1), (fed8, client8)):
        client.ingest("/demozone/bulk/d.dat", b"x" * SIZE,
                      resource="far-disk")

    t0 = fed1.clock.now
    client1.get("/demozone/bulk/d.dat")
    single = fed1.clock.now - t0
    t0 = fed8.clock.now
    client8.get("/demozone/bulk/d.dat")
    parallel = fed8.clock.now - t0

    table = ResultTable("E12b parallel-stream read of 20 MB",
                        ["streams", "read (s)"])
    table.add_row([1, single])
    table.add_row([8, parallel])
    record_table(benchmark, table)
    assert single / parallel > 4     # the resource->server leg dominates

    benchmark.pedantic(lambda: client8.get("/demozone/bulk/d.dat"),
                       rounds=3, iterations=1)


def test_e12_the_path_picks_the_streams(benchmark):
    """Ablation: a path one stream saturates opens one stream, and the
    window-limited path of the same capacity opens ten — so the two
    ingests cost the same, and only the streams on the leg differ."""
    plain = LinkSpec(latency_s=LFN.latency_s,
                     bandwidth_bps=LFN.bandwidth_bps)    # no stream cap
    costs, streams = {}, {}
    for name, link in (("plain", plain), ("windowed", LFN)):
        fed, client = build(link)
        t0 = fed.clock.now
        with fed.obs.tracer.trace("ingest") as root:
            client.ingest("/demozone/bulk/x.dat", b"x" * SIZE,
                          resource="far-disk")
        costs[name] = fed.clock.now - t0
        (leg,) = [s for s in root.find("net.transfer")
                  if s.attrs["bytes"] == SIZE and s.attrs["dst"] == "far"]
        streams[name] = leg.attrs["streams"]
    assert costs["plain"] == costs["windowed"]
    assert streams == {"plain": 1, "windowed": 10}

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
