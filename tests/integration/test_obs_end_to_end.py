"""End-to-end observability: one cross-server read, fully explained.

The curator on the laptop reads an object whose only replica lives on
caltech, via the MCAT server at sdsc.  The trace must show the causal
chain (client get -> server RPC -> storage driver read) with virtual
times that close against the clock, and the always-on metrics must agree
with the network's own counters.
"""

import pytest


@pytest.fixture
def remote_object(grid):
    path = f"{grid.home}/remote.dat"
    grid.curator.ingest(path, b"stellar" * 7000, resource="unix-caltech")
    return path


class TestTrace:
    def test_cross_server_read_span_tree(self, grid, remote_object):
        fed, curator = grid.fed, grid.curator
        t0 = fed.clock.now
        with fed.obs.tracer.trace("client.get", path=remote_object) as root:
            data = curator.get(remote_object)
        assert data == b"stellar" * 7000

        # the causal chain nests: client -> RPC -> server op -> driver
        rpc = root.find("rpc.call")
        assert rpc and rpc[0].attrs["method"] == "get"
        get_spans = root.find("srb.data.get")
        assert get_spans and get_spans[0].parent is rpc[0]
        reads = root.find("storage.read")
        assert reads and reads[0].attrs["driver"] == "unix-caltech"
        assert any(s.name == "srb.data.get" for s in _ancestors(reads[0]))
        assert root.find("net.transfer")   # wire hops appear too

        # virtual time closes: the root covers the clock delta exactly,
        # and its direct children account for all of it (the client does
        # no clocked work of its own)
        assert root.duration == pytest.approx(fed.clock.now - t0)
        assert sum(c.duration for c in root.children) == pytest.approx(
            root.duration)

    def test_trace_counters_match_metrics_delta(self, grid, remote_object):
        fed, curator = grid.fed, grid.curator
        before = fed.obs.metrics.snapshot()
        with fed.obs.tracer.trace("client.get") as root:
            curator.get(remote_object)
        delta = fed.obs.metrics.delta(before)
        m = fed.obs.metrics
        assert root.total("messages") == m.sum_matching(delta, "net.messages")
        assert root.total("bytes") == m.sum_matching(delta, "net.bytes")
        assert m.sum_matching(delta, "rpc.calls") == 1
        assert m.sum_matching(delta, "srb.ops") == 1


class TestMetricsAgreeWithNetwork:
    def test_totals_mirror_network_counters(self, grid, remote_object):
        fed = grid.fed
        grid.curator.get(remote_object)
        fed.network.set_down("caltech")
        from repro.errors import ReplicaUnavailable
        with pytest.raises(ReplicaUnavailable):
            grid.curator.get(remote_object)
        fed.network.set_up("caltech")

        m = fed.obs.metrics
        # every message the network counted — grid setup, reads, and the
        # failed attempts — has a labeled metric increment behind it
        assert m.total("net.messages") == fed.network.messages_sent
        assert m.total("net.bytes") == fed.network.bytes_sent
        assert (m.total("net.failed_attempts")
                == fed.network.failed_attempts > 0)
        assert m.total("rpc.calls") == fed.rpc.stats.calls
        assert m.total("rpc.failures") == fed.rpc.stats.failures


def _ancestors(span):
    while span.parent is not None:
        span = span.parent
        yield span


class TestBreakdown:
    """``Span.breakdown`` (what ``Strace`` prints under the tree) for
    every registered op: the five parts are the root's virtual duration,
    nothing lost and nothing counted twice."""

    FILED = ("srb.queue.wait", "net.", "storage.")

    @pytest.mark.parametrize("knobs", [{}, {"direct_io": True}],
                             ids=["default", "direct_io"])
    def test_parts_sum_to_the_root_duration_for_every_op(self, knobs):
        from repro.errors import SrbError
        from repro.mcat.catalog import Mcat
        from tests.integration.test_charge_conservation import build_fed
        from tests.op_calls import op_calls, prepare

        fed, admin = build_fed(workers=1, **knobs)
        srv = fed.server("srb1")
        calls = op_calls(admin.ticket, prepare(srv, admin.ticket))
        assert {name for name, _kw, _r in calls} == set(srv.dispatch.names())
        m = fed.obs.metrics
        seen = dict.fromkeys(("wan", "storage", "catalog", "other"), 0)
        for name, kwargs, _raises in calls:
            t0, before = fed.clock.now, m.snapshot()
            with fed.obs.tracer.trace("explain", op=name) as root:
                try:
                    fed.rpc.call("laptop", "sdsc", "srb:srb1", name, **kwargs)
                except SrbError:
                    pass
            delta = m.delta(before)
            parts = root.breakdown()
            assert list(parts) == ["admission", "wan", "storage", "catalog",
                                   "other"], name
            # exact, on the same float additions breakdown makes: the
            # four filed parts plus the remainder are the duration
            known = parts["admission"] + parts["wan"] + parts["storage"] \
                + parts["catalog"]
            assert parts["other"] == root.duration - known, name
            assert root.duration == fed.clock.now - t0, name
            assert all(v >= -1e-12 for v in parts.values()), (name, parts)
            # the remainder really is the unfiled spans' own time
            unfiled = sum(s.self_duration - s.counters.get("catalog_s", 0.0)
                          for s in root.walk()
                          if not s.name.startswith(self.FILED))
            assert parts["other"] == pytest.approx(unfiled, abs=1e-9), name
            # and catalog is what the charged catalog ops cost
            assert parts["catalog"] == pytest.approx(
                m.sum_matching(delta, "mcat.ops") * Mcat.QUERY_OVERHEAD_S
                + m.sum_matching(delta, "mcat.rows_scanned")
                * Mcat.ROW_COST_S, abs=1e-12), name
            for part in seen:
                seen[part] += parts[part] > 1e-9
        # every part was exercised by some op (admission needs a queue:
        # the closed-loop walk never waits, so it stays 0.0 throughout)
        assert all(seen.values()), seen

    def test_admission_wait_is_its_own_part(self):
        from repro.core import Federation, SrbClient
        fed = Federation(zone="demozone", workers=1)
        fed.add_host("sdsc")
        fed.add_host("laptop")
        fed.add_server("srb1", "sdsc", mcat=True)
        fed.add_fs_resource("unix-sdsc", "sdsc")
        fed.default_resource = "unix-sdsc"
        fed.bootstrap_admin()
        client = SrbClient(fed, "laptop", "srb1", "srbadmin@sdsc", "hunter2")
        client.login()
        # hold the only worker until 5 virtual seconds from now
        station = fed.network.station("sdsc")
        station.complete(station.admit(fed.clock.now), fed.clock.now + 5.0)
        with fed.obs.tracer.trace("explain") as root:
            client.mkcoll("/demozone/waited")
        parts = root.breakdown()
        assert parts["admission"] == pytest.approx(5.0, abs=0.1)
        known = parts["admission"] + parts["wan"] + parts["storage"] \
            + parts["catalog"]
        assert parts["other"] == root.duration - known


class TestRelayExplained:
    """A payload larger than one relay block that passes through the
    server hides part of its second hop behind the first; the trace, the
    metrics and ``fed.stats()`` say how much, and the breakdown stays
    exact because ``wan`` is seconds waited."""

    BIG = b"galaxy" * 50_000             # 300 kB

    def test_write_and_read_both_say_what_they_hid(self, grid):
        fed, curator = grid.fed, grid.curator
        m = fed.obs.metrics
        path = f"{grid.home}/big.dat"
        for name, op, mover, label in (
                ("ingest", lambda: curator.ingest(
                    path, self.BIG, resource="unix-caltech"),
                 ("sdsc", "caltech"), "ingest-fanout"),
                ("get", lambda: curator.get(path),
                 ("sdsc", "laptop"), "get")):
            before = fed.stats()["relay_hidden_s"]
            with fed.obs.tracer.trace(name) as root:
                op()
            (leg,) = [s for s in root.find("net.transfer")
                      if s.attrs.get("relayed")]
            assert (leg.attrs["src"], leg.attrs["dst"]) == mover
            hidden = leg.attrs["hidden_s"]
            link = fed.network.link(*mover)
            # the span is what was waited; the link's record is the cost
            cost = link.cost(leg.attrs["bytes"], leg.attrs["streams"])
            assert leg.duration == pytest.approx(cost - hidden)
            assert 0 < hidden < cost - link.latency_s
            assert fed.stats()["relay_hidden_s"] - before == hidden
            hist = m.histogram("net.relay.hidden_s", label=label)
            assert (hist.count, hist.sum) == (1, hidden)
            parts = root.breakdown()
            known = parts["admission"] + parts["wan"] + parts["storage"] \
                + parts["catalog"]
            assert parts["other"] == root.duration - known
            assert parts["other"] == pytest.approx(0.0, abs=1e-9)
        assert m.histogram_names().count("net.relay.hidden_s") == 1

    def test_nothing_hidden_nothing_emitted(self, grid, remote_object):
        fed = grid.fed
        with fed.obs.tracer.trace("small") as root:
            grid.curator.get(remote_object)       # 49 kB: under a block
        assert not any("relayed" in s.attrs or "hidden_s" in s.attrs
                       for s in root.walk())
        assert "net.relay.hidden_s" not in fed.obs.metrics.histogram_names()
        assert fed.stats()["relay_hidden_s"] == 0
