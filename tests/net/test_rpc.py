"""Unit tests for the RPC layer."""

import pytest

from repro.errors import DependencyFailed, NoSuchObject, RpcError, SrbError
from repro.net.rpc import ServiceRegistry
from repro.net.simnet import Network
from repro.net.wire import message_size
from tests.probes import counter, histogram


class EchoService:
    def echo(self, text: str) -> str:
        return text

    def fail_srb(self):
        raise NoSuchObject("nothing here")

    def fail_bug(self):
        raise ValueError("internal bug")

    def _private(self):
        return "secret"


@pytest.fixture
def setup():
    net = Network()
    net.add_host("client")
    net.add_host("server")
    rpc = ServiceRegistry(net)
    rpc.register("server", "svc", EchoService())
    return net, rpc


class TestCall:
    def test_roundtrip(self, setup):
        net, rpc = setup
        assert rpc.call("client", "server", "svc", "echo", text="hi") == "hi"

    def test_charges_clock_both_ways(self, setup):
        net, rpc = setup
        t0 = net.clock.now
        rpc.call("client", "server", "svc", "echo", text="hi")
        assert net.clock.now - t0 >= 2 * net.default_link.latency_s

    def test_response_size_charged(self, setup):
        net, rpc = setup
        rpc.call("client", "server", "svc", "echo", text="x")
        small = net.bytes_sent
        net2 = Network(); net2.add_host("client"); net2.add_host("server")
        rpc2 = ServiceRegistry(net2); rpc2.register("server", "svc", EchoService())
        rpc2.call("client", "server", "svc", "echo", text="x" * 10000)
        assert net2.bytes_sent > small + 9000

    def test_stats(self, setup):
        _, rpc = setup
        rpc.call("client", "server", "svc", "echo", text="hi")
        assert rpc.stats.calls == 1
        assert rpc.stats.request_bytes > 0
        assert rpc.stats.response_bytes > 0


class TestErrors:
    def test_srb_errors_propagate_typed(self, setup):
        _, rpc = setup
        with pytest.raises(NoSuchObject):
            rpc.call("client", "server", "svc", "fail_srb")

    def test_non_srb_errors_wrapped(self, setup):
        _, rpc = setup
        with pytest.raises(RpcError):
            rpc.call("client", "server", "svc", "fail_bug")

    def test_error_response_still_charged(self, setup):
        net, rpc = setup
        t0 = net.clock.now
        with pytest.raises(NoSuchObject):
            rpc.call("client", "server", "svc", "fail_srb")
        assert net.clock.now - t0 >= 2 * net.default_link.latency_s
        assert rpc.stats.failures == 1

    def test_unreachable_host_counted(self, setup):
        """Regression: a call that dies on the request transfer used to
        leave ``calls`` and ``failures`` both at zero — invisible in
        exactly the situation the stats exist for."""
        net, rpc = setup
        net.set_down("server")
        from repro.errors import HostUnreachable
        with pytest.raises(HostUnreachable):
            rpc.call("client", "server", "svc", "echo", text="hi")
        assert rpc.stats.calls == 1
        assert rpc.stats.failures == 1
        assert rpc.stats.request_bytes > 0

    def test_unknown_service(self, setup):
        _, rpc = setup
        with pytest.raises(RpcError):
            rpc.call("client", "server", "nope", "echo", text="x")

    def test_unknown_method(self, setup):
        _, rpc = setup
        with pytest.raises(RpcError):
            rpc.call("client", "server", "svc", "nope")

    def test_private_method_blocked(self, setup):
        _, rpc = setup
        with pytest.raises(RpcError):
            rpc.call("client", "server", "svc", "_private")

    def test_duplicate_registration_rejected(self, setup):
        net, rpc = setup
        with pytest.raises(RpcError):
            rpc.register("server", "svc", EchoService())



class TestCallBatch:
    def test_all_ok(self, setup):
        _, rpc = setup
        results = rpc.call_batch("client", "server", "svc",
                                 [("echo", {"text": f"m{i}"})
                                  for i in range(5)])
        assert [r.unwrap() for r in results] == [f"m{i}" for i in range(5)]

    def test_one_message_pair(self, setup):
        """N batched items cost exactly two messages (request + response),
        not 2N — the amortization the bulk data plane is built on."""
        net, rpc = setup
        before = net.messages_sent
        rpc.call_batch("client", "server", "svc",
                       [("echo", {"text": "x"})] * 40)
        assert net.messages_sent - before == 2
        assert rpc.stats.calls == 1

    def test_one_latency_not_n(self, setup):
        net, rpc = setup
        t0 = net.clock.now
        n = 40
        rpc.call_batch("client", "server", "svc",
                       [("echo", {"text": "x"})] * n)
        elapsed = net.clock.now - t0
        assert elapsed < n * net.default_link.latency_s

    def test_error_isolation(self, setup):
        """Item k failing with an SrbError doesn't poison the batch: the
        other items run and return, and item k's typed error surfaces at
        the caller."""
        _, rpc = setup
        results = rpc.call_batch("client", "server", "svc", [
            ("echo", {"text": "a"}),
            ("fail_srb", {}),
            ("echo", {"text": "b"}),
        ])
        assert results[0].unwrap() == "a"
        assert results[2].unwrap() == "b"
        assert not results[1].ok
        with pytest.raises(NoSuchObject):
            results[1].unwrap()

    def test_bug_wrapped_per_item(self, setup):
        _, rpc = setup
        results = rpc.call_batch("client", "server", "svc", [
            ("fail_bug", {}),
            ("echo", {"text": "ok"}),
        ])
        assert not results[0].ok
        assert isinstance(results[0].error, RpcError)
        assert results[1].unwrap() == "ok"

    def test_unknown_and_private_methods_isolated(self, setup):
        _, rpc = setup
        results = rpc.call_batch("client", "server", "svc", [
            ("nope", {}),
            ("_private", {}),
            ("echo", {"text": "still fine"}),
        ])
        assert [r.ok for r in results] == [False, False, True]
        assert isinstance(results[0].error, RpcError)
        assert isinstance(results[1].error, RpcError)

    def test_failures_counted_per_item(self, setup):
        _, rpc = setup
        rpc.call_batch("client", "server", "svc",
                       [("fail_srb", {}), ("fail_srb", {}),
                        ("echo", {"text": "x"})])
        assert rpc.stats.failures == 2

    def test_unreachable_fails_whole_batch(self, setup):
        """The request leg never arriving is a transport failure, not a
        per-item one: the whole batch raises — after charging the same
        timeout a single call would pay — and is visible in the stats."""
        net, rpc = setup
        net.set_down("server")
        from repro.errors import HostUnreachable
        t0 = net.clock.now
        with pytest.raises(HostUnreachable):
            rpc.call_batch("client", "server", "svc",
                           [("echo", {"text": "x"})] * 3)
        assert net.clock.now - t0 >= 2 * net.default_link.latency_s
        assert rpc.stats.calls == 1
        assert rpc.stats.failures == 1

    def test_request_bytes_sum_payloads(self, setup):
        net, rpc = setup
        rpc.call_batch("client", "server", "svc",
                       [("echo", {"text": "x" * 1000})] * 10)
        assert rpc.stats.request_bytes > 10 * 1000

    def test_empty_batch(self, setup):
        _, rpc = setup
        assert rpc.call_batch("client", "server", "svc", []) == []


class Recorder(EchoService):
    """An echo service that remembers which items reached it."""

    def __init__(self):
        self.ran = []

    def echo(self, text: str) -> str:
        self.ran.append(text)
        return text


@pytest.fixture
def recorded(setup):
    net, rpc = setup
    recorder = Recorder()
    rpc.register("server", "rec", recorder)
    return net, rpc, recorder


def echo(text, *after):
    return ("echo", {"text": text}, after) if after else \
        ("echo", {"text": text})


class TestDependentItems:
    """An item may name the earlier items it needs: it runs only if they
    all succeeded, and otherwise never reaches its handler."""

    def test_a_failed_item_skips_what_needs_it_and_what_needs_that(
            self, recorded):
        _, rpc, recorder = recorded
        results = rpc.call_batch("client", "server", "rec", [
            echo("a"), ("fail_srb", {}), echo("b", 1), echo("c", 2),
            echo("d", 0), echo("e", 0, 3)])
        assert [r.ok for r in results] == \
            [True, False, False, False, True, False]
        assert recorder.ran == ["a", "d"]
        assert isinstance(results[1].error, NoSuchObject)
        for k, waited in ((2, 1), (3, 2), (5, 3)):
            error = results[k].error
            assert isinstance(error, DependencyFailed)
            assert (error.item, error.needed) == (k, waited)
            with pytest.raises(DependencyFailed, match=f"item {waited}"):
                results[k].unwrap()

    def test_an_item_whose_needs_succeeded_runs(self, recorded):
        _, rpc, recorder = recorded
        results = rpc.call_batch("client", "server", "rec", [
            echo("a"), echo("b", 0), echo("c", 0, 1)])
        assert [r.unwrap() for r in results] == ["a", "b", "c"]
        assert recorder.ran == ["a", "b", "c"]

    @pytest.mark.parametrize("after", [(1,), (2,), (0, 1), (-1,)])
    def test_needing_itself_or_a_later_item_is_refused_unsent(
            self, recorded, after):
        net, rpc, recorder = recorded
        sent = net.messages_sent
        with pytest.raises(RpcError, match="earlier items"):
            rpc.call_batch("client", "server", "rec",
                           [echo("a"), echo("b", *after), echo("c")])
        assert recorder.ran == [] and net.messages_sent == sent
        assert rpc.stats.calls == 0 and rpc.stats.failures == 0

    def test_each_skipped_item_counts_as_a_failure(self, recorded):
        net, rpc, _ = recorded
        rpc.call_batch("client", "server", "rec", [
            ("fail_srb", {}), echo("b", 0), echo("c", 1), echo("d")])
        assert rpc.stats.failures == 3
        metrics = net.obs.metrics
        assert counter(metrics, "rpc.failures", service="rec",
                       method="echo", error="DependencyFailed") == 2
        assert counter(metrics, "rpc.failures", service="rec",
                       method="fail_srb", error="NoSuchObject") == 1

    def test_the_request_names_what_an_item_needs(self, recorded):
        net, rpc, _ = recorded
        items = [echo("a"), echo("b", 0)]
        rpc.call_batch("client", "server", "rec", items)
        assert rpc.stats.request_bytes == message_size({"batch": [
            {"method": "echo", "kwargs": {"text": "a"}},
            {"method": "echo", "kwargs": {"text": "b"}, "after": [0]}]})

    def test_a_batch_that_needs_nothing_is_sent_and_traced_as_before(
            self, recorded):
        """Byte for byte the request a batch was before items could need
        each other, and the same spans."""
        net, rpc, _ = recorded
        items = [echo("a"), ("fail_srb", {}), echo("b" * 100)]
        with net.obs.tracer.trace("t") as root:
            rpc.call_batch("client", "server", "rec", items)
        before = message_size({"batch": [{"method": m, "kwargs": kw}
                                         for m, kw in items]})
        assert rpc.stats.request_bytes == before
        (batch,) = root.children
        reply = batch.counters["response_bytes"]
        assert [(s.name, s.attrs, s.counters) for s in batch.walk()] == [
            ("rpc.call_batch", {"src": "client", "dst": "server",
                                "service": "rec", "items": 3},
             {"request_bytes": before, "messages": 2,
              "bytes": before + reply, "response_bytes": reply}),
            ("net.transfer", {"src": "client", "dst": "server",
                              "bytes": before, "streams": 1}, {}),
            ("net.transfer", {"src": "server", "dst": "client",
                              "bytes": reply, "streams": 1}, {})]


class NetAwareService:
    """Service whose handlers can sabotage the network mid-call."""

    def __init__(self, net):
        self.net = net

    def echo(self, text: str) -> str:
        return text

    def partition_reply(self) -> str:
        # a partition opens while the handler runs: the response leg
        # will never make it back to the caller
        self.net.partition("client", "server")
        return "you will never see this"


    def partition_then_fail(self):
        # the handler fails *and* its error reply cannot be delivered
        self.net.partition("client", "server")
        raise NoSuchObject("and you will never hear about it")


class CutAfterRequest:
    """Transfer observer that partitions the pair as soon as the request
    leg lands: whatever the server replies can no longer be delivered."""

    def __init__(self, net):
        self.net = net

    def observe_transfer(self, src, dst, nbytes, cost, now):
        if (src, dst) == ("client", "server"):
            self.net.partition("client", "server")

    def observe_failure(self, src, dst, now):
        pass


class SlowService:
    """Service with a genuine (clock-advancing) service time, so its
    worker stays busy long enough for admission tests to contend."""

    SERVICE_S = 0.5

    def __init__(self, net):
        self.net = net

    def work(self) -> str:
        self.net.clock.advance(self.SERVICE_S)
        return "done"


class TestErrorPathAccounting:
    """Regression: error responses used to update only the plain
    counters — ``rpc.response_bytes`` and ``rpc.call_s`` were never
    emitted for a failed call, so error traffic and error latency were
    invisible exactly where a saturation curve needs them."""

    def test_srb_error_emits_labeled_metrics(self, setup):
        net, rpc = setup
        with pytest.raises(NoSuchObject):
            rpc.call("client", "server", "svc", "fail_srb")
        m = net.obs.metrics
        assert counter(m, "rpc.response_bytes", service="svc",
                     method="fail_srb", error="NoSuchObject") > 0
        hist = histogram(m, "rpc.call_s", service="svc",
                           method="fail_srb", error="NoSuchObject")
        assert hist is not None and hist.count == 1
        assert hist.min >= 2 * net.default_link.latency_s
        assert rpc.stats.response_bytes > 0

    def test_wrapped_bug_emits_labeled_metrics(self, setup):
        net, rpc = setup
        with pytest.raises(RpcError):
            rpc.call("client", "server", "svc", "fail_bug")
        m = net.obs.metrics
        assert counter(m, "rpc.response_bytes", service="svc",
                     method="fail_bug", error="ValueError") > 0
        assert histogram(m, "rpc.call_s", service="svc",
                           method="fail_bug", error="ValueError").count == 1

    def test_success_metrics_unlabeled_and_separate(self, setup):
        net, rpc = setup
        rpc.call("client", "server", "svc", "echo", text="hi")
        with pytest.raises(NoSuchObject):
            rpc.call("client", "server", "svc", "fail_srb")
        m = net.obs.metrics
        # the success series carries no error label and is not polluted
        assert counter(m, "rpc.response_bytes", service="svc",
                     method="echo") > 0
        assert histogram(m, "rpc.call_s", service="svc",
                           method="echo").count == 1

    def test_response_leg_partition_counted(self, setup):
        """Regression: the handler succeeding but the response transfer
        dying (partition opened mid-call) used to escape without
        touching ``failures`` — an uncounted failed call."""
        net, rpc = setup
        rpc.register("server", "evil", NetAwareService(net))
        failures0 = rpc.stats.failures
        from repro.errors import HostUnreachable
        with pytest.raises(HostUnreachable):
            rpc.call("client", "server", "evil", "partition_reply")
        assert rpc.stats.failures == failures0 + 1
        m = net.obs.metrics
        assert counter(m, "rpc.failures", service="evil",
                     method="partition_reply", error="unreachable") == 1
        assert histogram(m, "rpc.call_s", service="evil",
                           method="partition_reply",
                           error="unreachable").count == 1

    def test_response_leg_partition_counted_in_batch(self, setup):
        net, rpc = setup
        rpc.register("server", "evil", NetAwareService(net))
        from repro.errors import HostUnreachable
        with pytest.raises(HostUnreachable):
            rpc.call_batch("client", "server", "evil",
                           [("echo", {"text": "a"}),
                            ("partition_reply", {})])
        assert rpc.stats.failures == 1
        m = net.obs.metrics
        assert counter(m, "rpc.failures", service="evil",
                     method="<batch>", error="unreachable") == 1

    @staticmethod
    def assert_counted_once_as_unreachable(net, rpc, service, method):
        m = net.obs.metrics
        assert rpc.stats.failures == 1
        assert m.total("rpc.failures") == 1
        assert counter(m, "rpc.failures", service=service, method=method,
                     error="unreachable") == 1
        assert [h.count for h in
                m.histogram_series("rpc.call_s").values()] == [1]
        hist = histogram(m, "rpc.call_s", service=service, method=method,
                           error="unreachable")
        assert hist is not None and hist.count == 1
        timing = rpc.last_timing
        assert timing is not None and timing.error == "unreachable"
        assert not timing.shed
        assert timing.latency == pytest.approx(hist.sum) and hist.sum > 0
        # no reply arrived, so no reply bytes are claimed
        assert rpc.stats.response_bytes == 0
        assert m.total("rpc.response_bytes") == 0

    def test_lost_error_reply_counted_once_as_unreachable(self, setup):
        """Regression: a handler error whose error reply could not be
        delivered was labelled with the handler's error, had no
        ``rpc.call_s`` observation and left ``last_timing`` unset."""
        net, rpc = setup
        rpc.register("server", "evil", NetAwareService(net))
        from repro.errors import HostUnreachable
        with pytest.raises(HostUnreachable):
            rpc.call("client", "server", "evil", "partition_then_fail")
        self.assert_counted_once_as_unreachable(
            net, rpc, "evil", "partition_then_fail")

    @pytest.mark.parametrize("batch", [False, True])
    def test_lost_busy_reply_counted_once_as_unreachable(self, setup, batch):
        """Same hole on the shed path, for ``call`` and ``call_batch``."""
        net, rpc = setup
        st = net.install_station("server", workers=1, queue_depth=0)
        st.complete(st.admit(net.clock.now), 5.0)   # worker busy until 5
        net.add_transfer_observer(CutAfterRequest(net))
        from repro.errors import HostUnreachable
        with pytest.raises(HostUnreachable):
            if batch:
                rpc.call_batch("client", "server", "svc",
                               [("echo", {"text": "x"})])
            else:
                rpc.call("client", "server", "svc", "echo", text="x")
        assert st.shed == 1
        self.assert_counted_once_as_unreachable(
            net, rpc, "svc", "<batch>" if batch else "echo")

    def test_batch_item_error_visible_in_metrics(self, setup):
        net, rpc = setup
        rpc.call_batch("client", "server", "svc",
                       [("fail_srb", {}), ("echo", {"text": "x"})])
        m = net.obs.metrics
        assert counter(m, "rpc.failures", service="svc", method="fail_srb",
                     error="NoSuchObject") == 1
        # the batch itself completed: its latency lands on the
        # unlabeled series
        assert histogram(m, "rpc.call_s", service="svc",
                           method="<batch>").count == 1


class TestAdmission:
    """Worker-pool admission threaded through call/call_batch."""

    def test_no_station_no_admission_metrics(self, setup):
        net, rpc = setup
        rpc.call("client", "server", "svc", "echo", text="x")
        assert net.obs.metrics.total("srb.admission.admitted") == 0

    def test_closed_loop_wait_advances_clock(self, setup):
        net, rpc = setup
        st = net.install_station("server", workers=1)
        st.complete(st.admit(net.clock.now), 5.0)  # worker busy until 5
        t0 = net.clock.now
        assert rpc.call("client", "server", "svc", "echo", text="x") == "x"
        # the caller genuinely waited for the worker before the handler
        assert net.clock.now >= 5.0 + net.default_link.latency_s
        m = net.obs.metrics
        assert counter(m, "srb.admission.admitted", host="server",
                     service="svc", method="echo") == 1
        wait = histogram(m, "srb.queue.wait_s", host="server", service="svc")
        assert wait.count == 1
        # the wait is 5.0 minus the request leg (latency + a few bytes)
        assert wait.max == pytest.approx(
            5.0 - t0 - net.default_link.latency_s, rel=1e-3)

    def test_open_loop_overlaps_instead_of_serializing(self, setup):
        net, rpc = setup
        rpc.register("server", "slow", SlowService(net))
        net.install_station("server", workers=1)
        t = net.clock.now
        with rpc.open_loop(t):
            rpc.call("client", "server", "slow", "work")
        first = rpc.last_timing
        clock_after_first = net.clock.now
        with rpc.open_loop(t):
            rpc.call("client", "server", "slow", "work")
        second = rpc.last_timing
        # same arrival, one worker: the second request queues behind the
        # first's full service time -- in bookkeeping, not on the clock
        assert first.wait == 0.0
        assert second.wait == pytest.approx(SlowService.SERVICE_S)
        assert second.latency == pytest.approx(
            first.latency + second.wait)
        assert net.clock.now - clock_after_first == pytest.approx(
            clock_after_first - t)      # clock moved by legs+service only

    def test_bounded_queue_sheds_through_call(self, setup):
        net, rpc = setup
        rpc.register("server", "slow", SlowService(net))
        net.install_station("server", workers=1, queue_depth=0)
        t = net.clock.now
        with rpc.open_loop(t):
            rpc.call("client", "server", "slow", "work")
        from repro.errors import ServerBusy
        t_before = net.clock.now
        with pytest.raises(ServerBusy) as exc:
            with rpc.open_loop(t):
                rpc.call("client", "server", "slow", "work")
        # the hint points at the busy worker freeing up
        assert exc.value.retry_after == pytest.approx(
            SlowService.SERVICE_S)
        # fast-fail: one request leg + one tiny busy reply, no queueing
        # and no service time
        assert net.clock.now - t_before == pytest.approx(
            2 * net.default_link.latency_s, rel=0.5)
        timing = rpc.last_timing
        assert timing.shed and timing.error == "ServerBusy"
        assert timing.retry_after == pytest.approx(exc.value.retry_after)
        m = net.obs.metrics
        assert counter(m, "srb.admission.shed", host="server", service="slow",
                     method="work") == 1
        assert counter(m, "rpc.failures", service="slow", method="work",
                     error="ServerBusy") == 1
        assert rpc.stats.failures == 1

    def test_batch_occupies_one_worker(self, setup):
        net, rpc = setup
        net.install_station("server", workers=1)
        t = net.clock.now
        with rpc.open_loop(t):
            rpc.call_batch("client", "server", "svc",
                           [("echo", {"text": "x"})] * 10)
        assert rpc.last_timing.wait == 0.0
        m = net.obs.metrics
        assert counter(m, "srb.admission.admitted", host="server",
                     service="svc", method="<batch>") == 1

    def test_batch_shed_fails_whole_batch(self, setup):
        net, rpc = setup
        rpc.register("server", "slow", SlowService(net))
        net.install_station("server", workers=1, queue_depth=0)
        t = net.clock.now
        with rpc.open_loop(t):
            rpc.call("client", "server", "slow", "work")
        from repro.errors import ServerBusy
        with pytest.raises(ServerBusy):
            with rpc.open_loop(t):
                rpc.call_batch("client", "server", "slow",
                               [("work", {})] * 3)
        assert rpc.last_timing.shed
        assert counter(net.obs.metrics, "srb.admission.shed", host="server",
                                   service="slow", method="<batch>") == 1

    def test_queue_wait_span_emitted(self, setup):
        net, rpc = setup
        st = net.install_station("server", workers=1)
        st.complete(st.admit(net.clock.now), 5.0)
        with net.obs.tracer.trace("test") as root:
            rpc.call("client", "server", "svc", "echo", text="x")
        spans = root.find("srb.queue.wait")
        assert len(spans) == 1
        assert spans[0].attrs["host"] == "server"
        assert spans[0].attrs["wait_s"] > 0


class TestDependentItemsOnAGrid:
    """``SrbClient.batch`` through the servers' op plans, with the bytes
    riding the request or (``direct_io``) a channel of their own."""

    #: span names of the batch below, in walk order, recorded before
    #: items could need each other
    SPANS = {
        False: ["rpc.call_batch", "net.transfer", "srb.data.ingest",
                "storage.create", "srb.data.get", "storage.read",
                "srb.metadata.get_metadata", "srb.namespace.stat",
                "net.transfer"],
        True: ["rpc.call_batch", "net.transfer", "srb.data.ingest",
               "srb.redirect", "net.transfer", "net.transfer",
               "storage.create", "srb.data.get", "storage.read",
               "srb.metadata.get_metadata", "srb.namespace.stat",
               "net.transfer", "srb.redirect", "net.transfer",
               "net.transfer"]}

    @staticmethod
    def grid(direct_io):
        from repro.core import Federation, SrbClient
        fed = Federation(zone="demozone", direct_io=direct_io)
        fed.add_host("sdsc")
        fed.add_host("laptop")
        fed.add_server("srb1", "sdsc", mcat=True)
        fed.add_fs_resource("unix-sdsc", "sdsc")
        fed.default_resource = "unix-sdsc"
        fed.bootstrap_admin()
        client = SrbClient(fed, "laptop", "srb1", "srbadmin@sdsc", "hunter2")
        client.login()
        client.mkcoll("/demozone/c")
        client.ingest("/demozone/c/a", b"\x5a" * 4096)
        return fed, client

    @staticmethod
    def traced(fed, client, *items):
        sent = []
        inner = fed.rpc._exchange

        def keep(*args):
            sent.append(args[6])
            return inner(*args)

        fed.rpc._exchange = keep
        try:
            with fed.obs.tracer.trace("t") as root:
                results = client.batch(*items)
        finally:
            del fed.rpc._exchange
        (request,) = sent
        (batch,) = root.children
        return results, request, batch

    @pytest.mark.parametrize("direct_io", [False, True])
    def test_a_batch_that_needs_nothing_is_sent_and_traced_as_before(
            self, direct_io):
        fed, client = self.grid(direct_io)
        results, request, batch = self.traced(
            fed, client,
            ("ingest", {"path": "/demozone/c/b", "data": b"\x5a" * 4096}),
            ("get", {"path": "/demozone/c/a"}),
            ("get_metadata", {"path": "/demozone/c/a"}),
            ("stat", {"path": "/demozone/c/nope"}))
        assert [r.ok for r in results] == [True, True, True, False]
        assert [sorted(item) for item in request["batch"]] == \
            [["kwargs", "method"]] * 4
        assert batch.counters["request_bytes"] == message_size(request)
        assert [s.name for s in batch.walk()] == self.SPANS[direct_io]

    @pytest.mark.parametrize("direct_io", [False, True])
    def test_a_skipped_item_has_no_plan_no_span_no_audit_row(
            self, direct_io):
        fed, client = self.grid(direct_io)
        audited = len(fed.mcat.audit_query())
        results, request, batch = self.traced(
            fed, client,
            ("stat", {"path": "/demozone/c/nope"}),
            ("ingest", {"path": "/demozone/c/b", "data": b"\x5a" * 4096},
             (0,)),
            ("get", {"path": "/demozone/c/a"}, (1,)))
        assert [r.ok for r in results] == [False, False, False]
        assert [r.error.needed for r in results[1:]] == [0, 1]
        assert request["batch"][2]["after"] == [1]
        assert [s.name for s in batch.walk() if s.name.startswith("srb.")] \
            == ["srb.namespace.stat"]
        assert len(fed.mcat.audit_query()) == audited
        with pytest.raises(NoSuchObject):
            client.stat("/demozone/c/b")
