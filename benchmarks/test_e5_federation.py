"""E5 — location transparency across the federation.

Paper claim (Section 3, advantage 1):
  "Location transparency - Users can connect to any SRB server to access
   data from any other SRB server, and discover data sets by either a
   logical path name or by collection attributes."

Reproduced series: the same object fetched through (a) the MCAT-enabled
server co-located with the data, (b) a remote non-MCAT server (which
pays catalog round trips to the MCAT host), and (c) the remote server
for remotely-stored data.  Expected shape: every path succeeds and each
extra server/catalog hop adds on the order of one WAN round trip.

A server keeps the sessions it has opened to storage systems, and the
ingests that set the scene go through srb1 only — so a server is
compared with a server in the same state: the latency table reads every
row on cold sessions (``reset_sessions()`` first), the message
decomposition counts both servers warm (one unmeasured read each first),
where the difference is the hops alone.
"""

import pytest

from repro.bench import ResultTable
from repro.core import SrbClient
from repro.mcat import Condition
from repro.workload import standard_grid

from helpers import record_table


def test_e5_any_server_reaches_any_data(benchmark):
    g = standard_grid()
    path_local = f"{g.home}/at-sdsc.dat"
    path_remote = f"{g.home}/at-caltech.dat"
    g.curator.ingest(path_local, b"x" * 1000, resource="unix-sdsc")
    g.curator.ingest(path_remote, b"x" * 1000, resource="unix-caltech")

    table = ResultTable(
        "E5 federation: read latency by contacted server and data site",
        ["server", "data resource", "virtual s", "result"])
    fed = g.fed

    def timed(server, path):
        g.curator.connect(server)
        fed.reset_sessions()
        t0 = fed.clock.now
        data = g.curator.get(path)
        return fed.clock.now - t0, data

    lat_11, d = timed("srb1", path_local)       # MCAT server, local data
    table.add_row(["srb1 (mcat, sdsc)", "unix-sdsc", lat_11, "ok"])
    lat_12, d = timed("srb1", path_remote)      # MCAT server, remote data
    table.add_row(["srb1 (mcat, sdsc)", "unix-caltech", lat_12, "ok"])
    lat_21, d = timed("srb2", path_local)       # remote server, sdsc data
    table.add_row(["srb2 (caltech)", "unix-sdsc", lat_21, "ok"])
    lat_22, d = timed("srb2", path_remote)      # remote server, caltech data
    table.add_row(["srb2 (caltech)", "unix-caltech", lat_22, "ok"])
    record_table(benchmark, table)

    assert d == b"x" * 1000
    # every configuration works; remote catalog access costs extra
    assert lat_21 > lat_11
    assert lat_22 > lat_12 or lat_22 > lat_11

    # discovery works identically from either server
    g.curator.add_metadata(path_local, "tag", "e5")
    for server in ("srb1", "srb2"):
        g.curator.connect(server)
        r = g.curator.query(g.home, [Condition("tag", "=", "e5")])
        assert [row[0] for row in r.rows] == [path_local]

    g.curator.connect("srb1")
    benchmark.pedantic(lambda: g.curator.get(path_local),
                       rounds=3, iterations=1)


def test_e5_catalog_hop_decomposition(benchmark):
    """The remote server's overhead is explained by catalog round trips."""
    g = standard_grid()
    path = f"{g.home}/probe.dat"
    g.curator.ingest(path, b"y" * 100, resource="unix-sdsc")
    fed = g.fed

    def read_messages(server):
        g.curator.connect(server)
        g.curator.get(path)              # the session is open after this
        m0 = fed.network.messages_sent
        g.curator.get(path)
        return fed.network.messages_sent - m0

    local_msgs = read_messages("srb1")
    remote_msgs = read_messages("srb2")

    table = ResultTable("E5b message decomposition of one read",
                        ["server", "messages"])
    table.add_row(["srb1 (co-located with MCAT)", local_msgs])
    table.add_row(["srb2 (remote, pays catalog hop)", remote_msgs])
    record_table(benchmark, table)
    # one catalog round trip (2 msgs) + one cross-host data pull (1 msg)
    assert remote_msgs == local_msgs + 3

    benchmark.pedantic(lambda: g.curator.get(path), rounds=3, iterations=1)
