"""E2 — automatic redirect to a replica when a storage system fails.

Paper claim (Section 3, advantage 4):
  "Fault tolerance - data can be accessed by the global persistent
   identifier, with the system automatically redirecting access to a
   replica on a separate storage system when the first storage system is
   unavailable."

Reproduced series: read latency with (a) all replicas healthy, (b) the
primary's host down, (c) two of three hosts down, and (d) the error when
everything is down.  Expected shape: every failure adds one
failed-attempt timeout (2 x link latency) and reads keep succeeding
until no replica is reachable.

The healthy read rides the session the server already holds to the
primary's storage system, and a host going down ends every session
(the topology epoch moves).  So the failover delta is one timeout *plus*
the open probe of the replica the read is redirected to — a cold touch
the healthy read did not have to pay.
"""

import pytest

from repro.bench import ResultTable
from repro.bench.harness import timed
from repro.core import SrbClient
from repro.errors import ReplicaUnavailable
from repro.net.simnet import WAN

from helpers import admin_client, flat_fed, record_table

PATH = "/demozone/bench/critical.dat"


def build():
    fed = flat_fed(n_hosts=3)
    client = admin_client(fed)
    client.ingest(PATH, b"irreplaceable" * 100, resource="fs0")
    client.replicate(PATH, "fs1")
    client.replicate(PATH, "fs2")
    return fed, client


def timed_get(fed, client, expect_error=None):
    """One read as a Measurement with its metrics delta attached."""
    def go():
        if expect_error is not None:
            with pytest.raises(expect_error):
                client.get(PATH)
        else:
            assert client.get(PATH).startswith(b"irreplaceable")
    return timed(fed.clock, go, metrics=fed.obs.metrics)


def _row(table, scenario, m, outcome):
    table.add_row([scenario, m.virtual_s,
                   int(m.metric("net.messages")),
                   int(m.metric("net.failed_attempts")), outcome])


def test_e2_failover_latency(benchmark):
    fed, client = build()
    table = ResultTable(
        "E2 replica failover",
        ["scenario", "read latency (s)", "messages", "failed attempts",
         "outcome"])

    healthy = timed_get(fed, client)
    _row(table, "all replicas up", healthy, "ok (replica 1)")

    fed.network.set_down("h1")       # note: primary fs0 is on h0 with server
    one_down_unused = timed_get(fed, client)
    _row(table, "non-primary host down", one_down_unused, "ok (replica 1)")
    fed.network.set_up("h1")

    # the interesting case: kill the PRIMARY replica's host.  fs0 is on h0,
    # which also runs the server, so instead fail over by making replica 1
    # dirty... no: re-ingest with the primary on h1 for a clean experiment.
    fed2 = flat_fed(n_hosts=3)
    client2 = admin_client(fed2)
    client2.ingest(PATH, b"irreplaceable" * 100, resource="fs1")
    client2.replicate(PATH, "fs2")
    healthy2 = timed_get(fed2, client2)

    fed2.network.set_down("h1")
    failover1 = timed_get(fed2, client2)   # redirects to fs2
    _row(table, "primary host down", failover1, "ok (redirected)")

    fed2.network.set_down("h2")
    exhausted = timed_get(fed2, client2, expect_error=ReplicaUnavailable)
    _row(table, "all replica hosts down", exhausted, "ReplicaUnavailable")
    record_table(benchmark, table)

    # the metrics explain the latency: healthy reads waste no attempts,
    # each failover adds them, and they are what the extra seconds buy
    assert healthy.metric("net.failed_attempts") == 0
    assert failover1.metric("net.failed_attempts") >= 1
    assert (exhausted.metric("net.failed_attempts")
            > failover1.metric("net.failed_attempts"))

    # shape: one failed attempt costs one timeout (2 x latency) more,
    # and the redirected read opens a session to the next replica
    timeout = 2 * WAN.latency_s
    assert failover1.virtual_s > healthy2.virtual_s
    assert (failover1.virtual_s - healthy2.virtual_s
            == pytest.approx(timeout + WAN.cost(64), rel=0.05))

    fed3, client3 = build()
    benchmark.pedantic(lambda: client3.get(PATH), rounds=3, iterations=1)


def test_e2_dirty_replicas_skipped(benchmark):
    """Failover never serves a stale copy: dirty replicas are skipped."""
    fed = flat_fed(n_hosts=3)
    client = admin_client(fed)
    client.ingest(PATH, b"v1", resource="fs1")
    client.replicate(PATH, "fs2")
    client.put(PATH, b"v2")           # lands on fs1; fs2 now dirty
    fed.network.set_down("h1")        # only the dirty fs2 copy reachable
    with pytest.raises(ReplicaUnavailable):
        client.get(PATH)
    fed.network.set_up("h1")
    client.synchronize(PATH)
    fed.network.set_down("h1")
    assert client.get(PATH) == b"v2"  # refreshed copy now serves

    benchmark.pedantic(lambda: client.get(PATH), rounds=3, iterations=1)
