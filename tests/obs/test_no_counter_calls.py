"""Each event is counted once, by its owner: a hot op makes no call into
a counter increment, and the registry reads the owners' counts when
asked, summed over every owner that shares it."""

import cProfile

from repro.core.client import SrbClient
from repro.core.federation import Federation
from repro.net.simnet import Network
from repro.workload import standard_grid
from tests.probes import sum_matching

PAYLOAD = b"\x5a" * 4096


def metrics_calls(op):
    """``{function name: calls}`` of every function of ``obs/metrics.py``
    that ``op`` called."""
    profiler = cProfile.Profile()
    profiler.enable()
    op()
    profiler.disable()
    return {e.code.co_name: e.callcount for e in profiler.getstats()
            if not isinstance(e.code, str)
            and e.code.co_filename.endswith("obs/metrics.py")}


def test_small_ops_and_a_bulk_ingest_push_no_counter():
    grid = standard_grid()
    client, home = grid.curator, grid.home

    def ops(tag):
        items = [{"path": f"{home}/{tag}-{i:03d}.dat", "data": PAYLOAD[:64]}
                 for i in range(100)]
        path = f"{home}/{tag}.dat"
        return [lambda: client.ingest(path, PAYLOAD),
                lambda: client.get(path),
                lambda: client.stat(path),
                lambda: client.add_metadata(path, "band", "J"),
                lambda: client.bulk_ingest(items)]

    for op in ops("warm"):      # a series' record is made on first use
        op()
    before = grid.fed.obs.metrics.snapshot()
    for op in ops("counted"):
        called = metrics_calls(op)
        assert set(called) <= {"observe"}, called
    delta = grid.fed.obs.metrics.delta(before)
    # the counts are all there, read from their owners
    assert delta["srb.ops{op=ingest,plane=data,server=srb1}"] == 1
    assert delta["bulk.items{op=ingest}"] == 100
    assert delta["mcat.ops"] > 0 and sum_matching(delta, "net.messages") >= 10


def test_zones_sharing_a_network_read_as_the_sum_of_their_owners():
    net = Network()
    zones = [Federation(zone="za", network=net),
             Federation(zone="zb", network=net)]
    clients = []
    for fed, host in zip(zones, ("a-host", "b-host")):
        fed.add_host(host)
        fed.add_server(f"{host}-srb", host, mcat=True)
        fed.add_fs_resource(f"{host}-disk", host)
        fed.default_resource = f"{host}-disk"
        fed.bootstrap_admin(f"admin@{fed.zone}", "pw")
        client = SrbClient(fed, host, f"{host}-srb", f"admin@{fed.zone}",
                           "pw")
        client.login()
        client.ingest(f"/{fed.zone}/f.dat", b"bytes")
        clients.append(client)
    assert zones[0].obs is zones[1].obs is net.obs
    metrics = net.obs.metrics
    assert metrics.total("mcat.ops") == sum(
        f.mcat.shards[0].primary.charged_ops for f in zones)
    assert metrics.total("rpc.calls") == sum(
        f.rpc.stats.calls for f in zones)
    assert metrics.total("storage.ops") == sum(
        f.resources.physical(f"{h}-disk").driver.ops
        for f, h in zip(zones, ("a-host", "b-host")))
    assert metrics.total("net.messages") == net.messages_sent
    assert metrics.total("srb.ops") == 2 * 3     # login pair + ingest
