"""Chunked streaming replies (``ServiceRegistry.call_stream``): one
request, then the server pushes the chunks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HostUnreachable, NoSuchObject, ServerBusy
from repro.net.rpc import ServiceRegistry
from repro.net.simnet import LinkSpec, Network
from repro.net.wire import message_size


class PagedService:
    """A cursor-paged op over a fixed row set, plus failure variants."""

    def __init__(self, n=25):
        self.rows = [f"row-{i:04d}" for i in range(n)]
        self.calls = 0

    def page(self, cursor=None, limit=10):
        self.calls += 1
        start = 0 if cursor is None else int(cursor)
        chunk = self.rows[start:start + limit]
        nxt = start + limit if start + limit < len(self.rows) else None
        return {"rows": chunk,
                "next_cursor": str(nxt) if nxt is not None else None}

    def broken_page(self, cursor=None, limit=10):
        """First page flows, the second raises mid-stream."""
        if cursor is not None:
            raise NoSuchObject("catalog row vanished mid-stream")
        return {"rows": self.rows[:limit], "next_cursor": str(limit)}


def build():
    net = Network()
    net.add_host("client")
    net.add_host("server")
    rpc = ServiceRegistry(net)
    svc = PagedService()
    rpc.register("server", "svc", svc)
    return net, rpc, svc


@pytest.fixture
def setup():
    return build()


class TestStreaming:
    def test_all_rows_arrive_in_order(self, setup):
        net, rpc, svc = setup
        rows = [r for chunk in
                rpc.call_stream("client", "server", "svc", "page",
                                page_size=10)
                for r in chunk["rows"]]
        assert rows == svc.rows
        assert svc.calls == 3

    def test_each_chunk_is_a_charged_message_pair(self, setup):
        """Every chunk is a charged exchange; only the first has a
        request half, so three chunks are four messages."""
        net, rpc, svc = setup
        calls0 = rpc.stats.calls
        resp0 = rpc.stats.response_bytes
        seen = []
        for chunk in rpc.call_stream("client", "server", "svc", "page",
                                     page_size=10):
            # response bytes accrue as the stream flows, not at the end
            seen.append(rpc.stats.response_bytes - resp0)
        assert rpc.stats.calls - calls0 == 3
        assert seen == sorted(seen) and seen[0] > 0
        assert seen[-1] > seen[0]
        assert net.messages_sent == 4
        assert rpc.stats.request_bytes == message_size(
            {"method": "page", "kwargs": {"cursor": None, "limit": 10}})

    def test_first_chunk_beats_last(self, setup):
        """The first chunk is the unary call; each later chunk beats the
        unary call for its page by at least the round trip."""
        net, rpc, svc = setup
        rtt = 2 * net.default_link.latency_s
        _twin, unary, _svc = build()
        t0 = net.clock.now
        cursor, took = None, []
        for chunk in rpc.call_stream("client", "server", "svc", "page",
                                     page_size=5):
            took.append(net.clock.now - t0)
            t0 = net.clock.now
            assert chunk == unary.call("client", "server", "svc", "page",
                                       cursor=cursor, limit=5)
            if cursor is None:
                assert took[-1] == unary.last_timing.latency
            else:
                assert took[-1] < unary.last_timing.latency - rtt
            cursor = chunk["next_cursor"]
        assert len(took) == 5 and sum(took[1:]) < took[0]
        hists = net.obs.metrics.histogram_series("rpc.stream.first_chunk_s")
        (h,) = hists.values()
        assert h.count == 1 and abs(h.max - took[0]) < 1e-12

    def test_peak_chunk_bytes_bounded_by_page(self, setup):
        net, rpc, svc = setup
        for _ in rpc.call_stream("client", "server", "svc", "page",
                                 page_size=5):
            pass
        (h,) = net.obs.metrics.histogram_series(
            "rpc.stream.chunk_bytes").values()
        whole = message_size({"rows": svc.rows, "next_cursor": None})
        assert h.count == 5
        assert h.max < whole / 2

    def test_stream_counters(self, setup):
        net, rpc, svc = setup
        for _ in rpc.call_stream("client", "server", "svc", "page",
                                 page_size=10):
            pass
        assert sum(net.obs.metrics.series("rpc.streams").values()) == 1
        assert sum(net.obs.metrics.series("rpc.stream.chunks").values()) == 3


class TestMidStreamFailure:
    def test_error_marshalled_after_first_chunk(self, setup):
        net, rpc, svc = setup
        stream = rpc.call_stream("client", "server", "svc", "broken_page",
                                 page_size=10)
        first = next(stream)
        assert len(first["rows"]) == 10     # delivered chunks stand
        fails0 = rpc.stats.failures
        with pytest.raises(NoSuchObject):
            next(stream)
        assert rpc.stats.failures == fails0 + 1

    def test_mid_stream_shed_leaves_station_clean(self, setup):
        net, rpc, svc = setup
        st = net.install_station("server", workers=1, queue_depth=0)
        stream = rpc.call_stream("client", "server", "svc", "page",
                                 page_size=10)
        next(stream)                        # chunk 1 admitted normally
        # a competing request occupies the single worker far into the
        # future, so the next chunk's admission must shed
        adm = st.admit(net.clock.now)
        st.complete(adm, net.clock.now + 1e6)
        with pytest.raises(ServerBusy):
            next(stream)
        # the shed chunk left no bookkeeping behind: every worker slot
        # is accounted for and no phantom queue entry lingers
        assert len(st._free) == st.workers
        assert st.queue_length(net.clock.now + 2e6) == 0
        assert st.shed == 1
        # ...and the stream can resume once the worker frees up
        net.clock.advance(1e6 + 1.0)
        rest = rpc.call("client", "server", "svc", "page",
                        cursor="10", limit=100)
        assert rest["rows"] == svc.rows[10:]


class TestCostLaw:
    """drain = unary first chunk + sum over k > 1 of (work_k + reply
    bytes_k / bandwidth); n chunks are n + 1 messages."""

    @settings(max_examples=100, deadline=None)
    @given(link=st.builds(
               LinkSpec,
               latency_s=st.floats(min_value=0.0001, max_value=0.5),
               bandwidth_bps=st.floats(min_value=1e4, max_value=1e9)),
           page_size=st.integers(min_value=1, max_value=40),
           n_rows=st.integers(min_value=0, max_value=120),
           work=st.lists(st.floats(min_value=0.0, max_value=0.3),
                         min_size=1, max_size=6))
    def test_drain_time_messages_and_request_bytes(self, link, page_size,
                                                   n_rows, work):
        def build():
            net = Network(default_link=link)
            net.add_host("client")
            net.add_host("server")
            rpc = ServiceRegistry(net)
            svc = PagedService(n_rows)
            plain = svc.page

            def page(cursor=None, limit=10):
                # the handler's own time: catalog work for this page
                net.clock.advance(work[svc.calls % len(work)])
                return plain(cursor, limit)
            svc.page = page
            rpc.register("server", "svc", svc)
            return net, rpc

        net, rpc = build()
        twin, unary = build()
        t0, cursor = net.clock.now, None
        for k, chunk in enumerate(rpc.call_stream(
                "client", "server", "svc", "page", page_size=page_size)):
            took, t0 = net.clock.now - t0, net.clock.now
            assert chunk == unary.call("client", "server", "svc", "page",
                                       cursor=cursor, limit=page_size)
            alone = unary.last_timing.latency
            serialise = message_size(chunk) / link.bandwidth_bps
            if k == 0:
                assert took == alone
                first_request = rpc.stats.request_bytes
                assert first_request == unary.stats.request_bytes
            else:
                # float order differs: the clock adds work, then bytes
                assert took == pytest.approx(work[k % len(work)] + serialise,
                                             rel=1e-9, abs=1e-12)
                assert took <= alone - 2 * link.latency_s + 1e-12
            cursor = chunk["next_cursor"]
        chunks = k + 1
        assert chunks == max(1, -(-n_rows // page_size))
        assert net.messages_sent == chunks + 1
        assert twin.messages_sent == 2 * chunks     # the pull loop's count
        assert rpc.stats.request_bytes == first_request
        assert rpc.stats.response_bytes == unary.stats.response_bytes
        assert rpc.stats.calls == chunks

    def test_connection_lost_between_chunks(self, setup):
        """The client finds a dead server as a request would: one leg
        that times out after 2 x latency, one failed attempt, one
        ``unreachable`` failure — and the handler is not run."""
        net, rpc, svc = setup
        for fault in (lambda: net.set_down("server"),
                      lambda: net.partition("client", "server")):
            stream = rpc.call_stream("client", "server", "svc", "page",
                                     page_size=10)
            next(stream)
            before = (svc.calls, net.failed_attempts, rpc.stats.failures,
                      net.messages_sent, net.clock.now)
            fault()
            with pytest.raises(HostUnreachable):
                next(stream)
            assert (svc.calls, net.failed_attempts, rpc.stats.failures,
                    net.messages_sent) == (
                before[0], before[1] + 1, before[2] + 1, before[3] + 1)
            assert net.clock.now - before[4] == pytest.approx(
                2 * net.default_link.latency_s)
            assert rpc.last_timing.error == "unreachable"
            net.set_up("server")
            net.heal("client", "server")
        assert sum(net.obs.metrics.series("rpc.failures").values()) == 2

    def test_abandoned_stream_charges_nothing_further(self, setup):
        net, rpc, svc = setup
        st_ = net.install_station("server", workers=2)
        stream = rpc.call_stream("client", "server", "svc", "page",
                                 page_size=10)
        next(stream)
        seen = (net.clock.now, net.messages_sent, rpc.stats.calls, svc.calls)
        del stream
        assert seen == (net.clock.now, net.messages_sent, rpc.stats.calls,
                        svc.calls)
        assert len(st_._free) == st_.workers
        assert st_.queue_length(net.clock.now) == 0
