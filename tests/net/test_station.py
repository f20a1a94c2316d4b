"""Unit tests for the per-host worker-pool station and admission."""

import pytest

from repro.errors import HostUnreachable, NetworkError, ServerBusy
from repro.net.simnet import DataChannel, Network, ServiceStation, \
    TransferGroup


class TestServiceStation:
    def test_validation(self):
        with pytest.raises(NetworkError):
            ServiceStation("h", workers=0)
        with pytest.raises(NetworkError):
            ServiceStation("h", workers=1, queue_depth=-1)

    def test_free_worker_no_wait(self):
        st = ServiceStation("h", workers=2)
        adm = st.admit(1.0)
        assert adm.start == 1.0
        assert adm.wait == 0.0
        assert adm.depth == 0
        assert adm.held

    def test_busy_worker_queues_fifo(self):
        st = ServiceStation("h", workers=1)
        a1 = st.admit(0.0)
        st.complete(a1, 5.0)
        a2 = st.admit(1.0)
        assert a2.start == 5.0
        assert a2.wait == 4.0

    def test_waits_stack_behind_each_other(self):
        st = ServiceStation("h", workers=1)
        st.complete(st.admit(0.0), 3.0)
        a2 = st.admit(0.0)
        st.complete(a2, a2.start + 3.0)     # served 3..6
        a3 = st.admit(0.0)
        assert a2.wait == 3.0
        assert a3.start == 6.0 and a3.wait == 6.0

    def test_parallel_workers_absorb_burst(self):
        st = ServiceStation("h", workers=3)
        adms = [st.admit(0.0) for _ in range(3)]
        assert all(a.wait == 0.0 for a in adms)

    def test_depth_counts_still_waiting_requests(self):
        st = ServiceStation("h", workers=1)
        st.complete(st.admit(0.0), 10.0)
        st.complete(st.admit(0.0), 20.0)    # waits until 10
        a3 = st.admit(0.0)                  # waits until 20
        assert a3.depth == 1                # one request still queued
        # by t=15 the 10-starter is in service; only the 20-starter waits
        assert st.queue_length(15.0) == 1
        assert st.queue_length(25.0) == 0

    def test_bounded_queue_sheds_with_retry_hint(self):
        st = ServiceStation("h", workers=1, queue_depth=1)
        st.complete(st.admit(0.0), 10.0)
        st.complete(st.admit(0.0), 20.0)    # occupies the one queue slot
        with pytest.raises(ServerBusy) as exc:
            st.admit(2.0)
        assert exc.value.host == "h"
        # the worker frees at 20 (after serving the queued request)
        assert exc.value.retry_after == pytest.approx(18.0)
        assert st.shed == 1
        assert st.admitted == 2

    def test_zero_depth_is_a_loss_system_not_shed_everything(self):
        """queue_depth=0 admits a request a free worker can take
        immediately and sheds only requests that would have to wait."""
        st = ServiceStation("h", workers=1, queue_depth=0)
        a1 = st.admit(0.0)
        assert a1.wait == 0.0
        st.complete(a1, 5.0)
        with pytest.raises(ServerBusy):
            st.admit(1.0)                   # worker busy until 5, no queue
        assert st.admit(5.0).wait == 0.0    # free again: admitted

    def test_reentrant_admission_is_contention_free(self):
        st = ServiceStation("h", workers=1)
        outer = st.admit(0.0)               # checks out the only worker
        inner = st.admit(0.0)               # handler calling back in
        assert inner.wait == 0.0
        assert not inner.held
        st.complete(inner, 1.0)             # held=False: no worker returned
        st.complete(outer, 2.0)
        assert st.admit(0.0).start == 2.0   # only the outer slot came back

    def test_reset_forgets_bookkeeping(self):
        st = ServiceStation("h", workers=1)
        st.complete(st.admit(0.0), 50.0)
        st.reset()
        assert st.admit(0.0).wait == 0.0


class TestNetworkStations:
    @pytest.fixture
    def net(self):
        n = Network()
        n.add_host("a")
        n.add_host("b")
        return n

    def test_install_and_lookup(self, net):
        assert net.station("b") is None
        st = net.install_station("b", workers=2, queue_depth=4)
        assert net.station("b") is st
        assert st.workers == 2 and st.queue_depth == 4

    def test_reinstall_replaces_bookkeeping(self, net):
        st = net.install_station("b", workers=1)
        st.complete(st.admit(0.0), 99.0)
        st2 = net.install_station("b", workers=1)
        assert st2.admit(0.0).wait == 0.0

    def test_set_down_resets_station(self, net):
        """Regression: a crashed server's in-flight work cannot complete,
        so its restarted worker pool must not charge phantom waits."""
        st = net.install_station("b", workers=1)
        st.complete(st.admit(0.0), 99.0)
        net.set_down("b")
        net.set_up("b")
        assert net.station("b").admit(0.0).wait == 0.0

    def test_reset_queues_resets_stations(self, net):
        st = net.install_station("b", workers=1)
        st.complete(st.admit(0.0), 99.0)
        net.reset_queues()
        assert st.admit(0.0).wait == 0.0


class TestChannelAdmission:
    """A data channel contends for its *source* host's worker pool
    through ``Network.admit_request`` — the same door an RPC uses."""

    @pytest.fixture
    def net(self):
        n = Network()
        n.add_host("src")
        n.add_host("sink")
        return n

    @staticmethod
    def holds_slot(st, at):
        # with the only worker checked out a probe is modelled as
        # re-entrant (holds nothing); with it back, the probe takes it
        probe = st.admit(at)
        st.complete(probe, at)
        return not probe.held

    def test_admitted_and_counted(self, net):
        st = net.install_station("src", workers=1)
        DataChannel(net, "src", "sink", 1000, label="get").open()
        assert st.admitted == 1
        m = net.obs.metrics
        assert m.get("srb.admission.admitted", host="src",
                     service="channel", method="get") == 1
        assert m.histogram("srb.queue.wait_s", host="src",
                           service="channel").count == 1
        assert m.histogram("srb.queue.depth", host="src").count == 1

    def test_queued_wait_advances_clock_and_emits_span(self, net):
        st = net.install_station("src", workers=1)
        st.complete(st.admit(0.0), 5.0)          # worker busy until 5
        with net.obs.tracer.trace("test") as root:
            DataChannel(net, "src", "sink", 1000, label="get").open()
        assert net.clock.now == pytest.approx(5.0)
        (span,) = root.find("srb.queue.wait")
        assert span.attrs["host"] == "src"
        assert span.attrs["service"] == "channel"
        assert span.attrs["wait_s"] == pytest.approx(
            5.0 - net.default_link.cost(DataChannel.HANDSHAKE_BYTES))
        assert span.duration == pytest.approx(span.attrs["wait_s"])

    def test_zero_depth_sheds_and_is_counted(self, net):
        st = net.install_station("src", workers=1, queue_depth=0)
        st.complete(st.admit(0.0), 5.0)
        with pytest.raises(ServerBusy) as exc:
            DataChannel(net, "src", "sink", 1000, label="get").open()
        assert exc.value.retry_after > 0
        assert st.shed == 1
        m = net.obs.metrics
        assert m.get("srb.admission.shed", host="src", service="channel",
                     method="get") == 1
        assert m.total("srb.admission.admitted") == 0

    def test_slot_returns_on_settle(self, net):
        st = net.install_station("src", workers=1)
        ch = DataChannel(net, "src", "sink", 1000)
        ch.open()
        assert self.holds_slot(st, net.clock.now)
        ch.settle()
        assert not self.holds_slot(st, net.clock.now)

    def test_slot_returns_on_failed_transfer(self, net):
        st = net.install_station("src", workers=1)
        ch = DataChannel(net, "src", "sink", 1000)
        ch.open()
        net.partition("src", "sink")
        with pytest.raises(HostUnreachable):
            ch.transfer()
        assert not self.holds_slot(st, net.clock.now)

    def test_slot_returns_on_grouped_finish(self, net):
        st = net.install_station("src", workers=1)
        ch = DataChannel(net, "src", "sink", 1_000_000)
        ch.open()
        group = TransferGroup(net)
        ch.add_to(group)
        (outcome,) = group.run()
        assert self.holds_slot(st, outcome.start)
        ch.finish(outcome)
        # the worker was busy for the member's own span of the group
        assert st.admit(outcome.start).wait == pytest.approx(
            outcome.done - outcome.start)
