"""E6 — logical resources replicate synchronously at ingest.

Paper claim (Section 5):
  "storing a file into logrsrc1 will ingest the file into both physical
   resources, unix-sdsc and hpss-caltech, synchronously and the two
   copies will be shown as two replicas of the same SRB object."

Reproduced series: ingest cost into a logical resource of k = 1..4
physical members (on distinct hosts), for a 1 MB file.  The ingest is
synchronous — it returns when every member holds the file — but the
member pushes leave the server together, so the wire cost is the
slowest member's, not one per member.  Expected shape: the first remote
member costs one whole push; each further one adds only its session
probe and one more file's disk and catalog work; the catalog shows
exactly k clean replicas.
"""

import pytest

from repro.bench import ResultTable, assert_monotone
from repro.core import SrbClient
from repro.net.simnet import WAN

from helpers import admin_client, flat_fed, record_table

SIZE = 1_000_000


def test_e6_synchronous_fanout(benchmark):
    table = ResultTable(
        "E6 logical-resource ingest cost vs member count (1 MB file)",
        ["members", "ingest (s)", "replicas created", "all clean"])
    costs = []
    for k in (1, 2, 3, 4):
        fed = flat_fed(n_hosts=4)
        client = admin_client(fed)
        fed.add_logical_resource("lr", [f"fs{i}" for i in range(k)])
        t0 = fed.clock.now
        client.ingest(f"/demozone/bench/file-{k}", b"z" * SIZE,
                      resource="lr")
        cost = fed.clock.now - t0
        costs.append(cost)
        reps = client.stat(f"/demozone/bench/file-{k}")["replicas"]
        table.add_row([k, cost, len(reps),
                       "yes" if all(not r["is_dirty"] for r in reps)
                       else "NO"])
        assert len(reps) == k
        assert all(not r["is_dirty"] for r in reps)
    record_table(benchmark, table)

    assert_monotone(costs, increasing=True)
    # fs0 is on the server's host; the first remote member pays a push
    first_remote = costs[1] - costs[0]
    assert first_remote >= WAN.cost(SIZE)
    # overlapped fan-out: the members after it ride the same makespan,
    # each adding its open probe and little else
    for k in (2, 3):
        marginal = costs[k] - costs[k - 1]
        assert marginal == pytest.approx(WAN.cost(64), rel=0.25)
        assert marginal < 0.2 * first_remote

    fed = flat_fed(n_hosts=2)
    client = admin_client(fed)
    fed.add_logical_resource("lr", ["fs0", "fs1"])
    counter = [0]

    def ingest_once():
        counter[0] += 1
        client.ingest(f"/demozone/bench/b{counter[0]}", b"z" * 1000,
                      resource="lr")

    benchmark.pedantic(ingest_once, rounds=3, iterations=1)


def test_e6_retrieval_prefers_any_copy(benchmark):
    """'During retrieval, the user can ask for a particular copy or let
    SRB choose its own access for the file.'"""
    fed = flat_fed(n_hosts=3)
    client = admin_client(fed)
    fed.add_logical_resource("lr", ["fs0", "fs1", "fs2"])
    client.ingest("/demozone/bench/multi", b"payload", resource="lr")

    # explicit copy selection
    for num in (1, 2, 3):
        assert client.get("/demozone/bench/multi", replica_num=num) \
            == b"payload"
    # SRB's own choice also works with two hosts gone
    fed.network.set_down("h1")
    fed.network.set_down("h2")
    assert client.get("/demozone/bench/multi") == b"payload"

    fed.network.set_up("h1")
    fed.network.set_up("h2")
    benchmark.pedantic(lambda: client.get("/demozone/bench/multi"),
                       rounds=3, iterations=1)
