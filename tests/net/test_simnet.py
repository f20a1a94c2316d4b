"""Unit tests for the simulated network."""

import pytest

from repro.errors import HostUnreachable, NetworkError
from repro.net.simnet import LAN, WAN, LinkSpec, Network


@pytest.fixture
def net():
    n = Network()
    n.add_host("a")
    n.add_host("b", site="remote")
    return n


class TestTopology:
    def test_add_and_get_host(self, net):
        assert net.host("a").name == "a"
        assert net.host("b").site == "remote"

    def test_duplicate_host_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_host("a")

    def test_unknown_host(self, net):
        with pytest.raises(HostUnreachable):
            net.host("nope")

    def test_default_link_used(self, net):
        assert net.link("a", "b") == WAN

    def test_loopback_link(self, net):
        assert net.link("a", "a").latency_s < WAN.latency_s

    def test_set_link_symmetric(self, net):
        net.set_link("a", "b", LAN)
        assert net.link("a", "b") == LAN
        assert net.link("b", "a") == LAN

    def test_set_link_asymmetric(self, net):
        slow = LinkSpec(latency_s=1.0, bandwidth_bps=1e3)
        net.set_link("a", "b", slow, symmetric=False)
        assert net.link("a", "b") == slow
        assert net.link("b", "a") == WAN


class TestTransfer:
    def test_latency_only_for_empty_message(self, net):
        cost = net.transfer("a", "b", 0)
        assert cost == pytest.approx(WAN.latency_s)

    def test_bandwidth_charged(self, net):
        nbytes = 5_000_000
        cost = net.transfer("a", "b", nbytes)
        assert cost == pytest.approx(WAN.latency_s + nbytes / WAN.bandwidth_bps)

    def test_clock_advances(self, net):
        t0 = net.clock.now
        net.transfer("a", "b", 1000)
        assert net.clock.now > t0

    def test_counters(self, net):
        net.transfer("a", "b", 10)
        net.transfer("b", "a", 20)
        assert net.messages_sent == 2
        assert net.bytes_sent == 30

    def test_negative_size_rejected(self, net):
        with pytest.raises(NetworkError):
            net.transfer("a", "b", -1)


class TestFailures:
    def test_down_host_unreachable(self, net):
        net.set_down("b")
        with pytest.raises(HostUnreachable):
            net.transfer("a", "b", 0)

    def test_failed_attempt_charges_timeout(self, net):
        net.set_down("b")
        t0 = net.clock.now
        with pytest.raises(HostUnreachable):
            net.transfer("a", "b", 0)
        # one RTT of timeout was charged
        assert net.clock.now - t0 == pytest.approx(2 * WAN.latency_s)

    def test_failed_attempt_counted(self, net):
        """Regression: a timed-out attempt is still a message the caller
        put on the wire — it used to vanish from ``messages_sent``."""
        net.set_down("b")
        with pytest.raises(HostUnreachable):
            net.transfer("a", "b", 10)
        assert net.messages_sent == 1
        assert net.failed_attempts == 1
        assert net.bytes_sent == 0      # the payload never arrived

    def test_recovery(self, net):
        net.set_down("b")
        net.set_up("b")
        net.transfer("a", "b", 0)   # no raise

    def test_partition_blocks_both_ways(self, net):
        net.partition("a", "b")
        with pytest.raises(HostUnreachable):
            net.transfer("a", "b", 0)
        with pytest.raises(HostUnreachable):
            net.transfer("b", "a", 0)

    def test_heal_partition(self, net):
        net.partition("a", "b")
        net.heal("a", "b")
        net.transfer("a", "b", 0)

    def test_reachable_predicate(self, net):
        assert net.reachable("a", "b")
        net.partition("a", "b")
        assert not net.reachable("a", "b")


class TestScheduledTransfers:
    def test_queueing_on_shared_endpoint(self, net):
        # two transfers into 'b' serialize on b
        done1 = net.schedule_transfer("a", "b", 5_000_000)
        done2 = net.schedule_transfer("a", "b", 5_000_000)
        assert done2 > done1
        assert done2 == pytest.approx(2 * done1, rel=0.01)

    def test_parallel_on_distinct_endpoints(self, net):
        net.add_host("c")
        done1 = net.schedule_transfer("a", "b", 5_000_000)
        net.reset_queues()
        done2 = net.schedule_transfer("a", "c", 5_000_000)
        assert done1 == pytest.approx(done2)

    def test_does_not_advance_clock(self, net):
        t0 = net.clock.now
        net.schedule_transfer("a", "b", 1_000_000)
        assert net.clock.now == t0

    def test_reset_queues(self, net):
        net.schedule_transfer("a", "b", 5_000_000)
        net.reset_queues()
        assert net.host("b").busy_until == 0.0

    def test_schedule_accepts_streams(self, net):
        """Regression: queued transfers ignored ``streams``, so E12-style
        benchmarks silently ran parallel I/O at single-stream speed."""
        net.set_link("a", "b", LinkSpec(latency_s=0.0, bandwidth_bps=8e6,
                                        per_stream_bps=1e6))
        slow = net.schedule_transfer("a", "b", 1_000_000)
        net.reset_queues()
        fast = net.schedule_transfer("a", "b", 1_000_000, streams=4)
        assert slow == pytest.approx(4 * fast)

    def test_unreachable_charges_timeout(self, net):
        """Regression: an unreachable destination used to raise without
        charging the timeout that ``transfer()`` charges, so queued-mode
        benchmarks under-reported failure cost."""
        net.set_down("b")
        t0 = net.clock.now
        with pytest.raises(HostUnreachable):
            net.schedule_transfer("a", "b", 1000)
        assert net.clock.now - t0 == pytest.approx(2 * WAN.latency_s)

    def test_unreachable_counted(self, net):
        """Failure accounting matches transfer(): the attempt counts as a
        message and a failed attempt, with no bytes delivered."""
        net.set_down("b")
        with pytest.raises(HostUnreachable):
            net.schedule_transfer("a", "b", 1000)
        assert net.messages_sent == 1
        assert net.failed_attempts == 1
        assert net.bytes_sent == 0

    def test_unreachable_emits_span_and_metrics(self, net):
        net.set_down("b")
        with net.obs.tracer.trace("test") as root:
            with pytest.raises(HostUnreachable):
                net.schedule_transfer("a", "b", 1000)
        spans = root.find("net.transfer")
        assert spans and spans[0].error
        assert net.obs.metrics.get("net.failed_attempts",
                                   src="a", dst="b") == 1

    def test_unreachable_leaves_queues_untouched(self, net):
        net.set_down("b")
        with pytest.raises(HostUnreachable):
            net.schedule_transfer("a", "b", 1000)
        assert net.host("a").busy_until == 0.0
        assert net.host("b").busy_until == 0.0


class TestParallelStreams:
    def test_uncapped_link_ignores_streams(self, net):
        from repro.net.simnet import WAN
        assert WAN.cost(1_000_000, streams=8) == WAN.cost(1_000_000)

    def test_capped_link_scales_until_capacity(self):
        from repro.net.simnet import LinkSpec
        lfn = LinkSpec(latency_s=0.0, bandwidth_bps=10e6, per_stream_bps=1e6)
        assert lfn.effective_bps(1) == 1e6
        assert lfn.effective_bps(5) == 5e6
        assert lfn.effective_bps(50) == 10e6    # capacity cap

    def test_zero_streams_rejected(self):
        from repro.net.simnet import LinkSpec, NetworkError
        with pytest.raises(NetworkError):
            LinkSpec().cost(10, streams=0)

    def test_transfer_accepts_streams(self, net):
        from repro.net.simnet import LinkSpec
        net.set_link("a", "b", LinkSpec(latency_s=0.0, bandwidth_bps=8e6,
                                        per_stream_bps=1e6))
        slow = net.transfer("a", "b", 1_000_000, streams=1)
        fast = net.transfer("a", "b", 1_000_000, streams=4)
        assert slow == pytest.approx(4 * fast)

    def test_latency_unaffected_by_streams(self):
        from repro.net.simnet import LinkSpec
        lfn = LinkSpec(latency_s=0.05, bandwidth_bps=1e6, per_stream_bps=1e5)
        assert lfn.cost(0, streams=1) == lfn.cost(0, streams=9) == 0.05


class TestScheduleTransferAccounting:
    """Regression: the queued success path must be as observable as the
    blocking one — same ``net.transfer`` span, same ``net.transfer_s``
    observation (it used to emit neither)."""

    def test_success_emits_span(self, net):
        with net.obs.tracer.trace("test") as root:
            net.schedule_transfer("a", "b", 1000)
        spans = root.find("net.transfer")
        assert len(spans) == 1
        assert spans[0].attrs.get("queued") is True
        assert spans[0].attrs["done"] > spans[0].attrs["start"]

    def test_success_observes_latency_histogram(self, net):
        net.schedule_transfer("a", "b", 1000)
        hist = net.obs.metrics.histogram("net.transfer_s", src="a", dst="b")
        assert hist is not None and hist.count == 1
        assert hist.sum == pytest.approx(WAN.cost(1000))

    def test_span_does_not_advance_clock(self, net):
        t0 = net.clock.now
        net.schedule_transfer("a", "b", 1000)
        assert net.clock.now == t0


class TestTransferGroup:
    @pytest.fixture
    def fan_net(self):
        n = Network()
        n.add_host("src")
        for i in range(4):
            n.add_host(f"dst{i}")
        return n

    @staticmethod
    def run_group(net, members, label="parallel"):
        from repro.net.simnet import TransferGroup
        group = TransferGroup(net, label=label)
        for member in members:
            group.add(*member)
        return group.run()

    def test_empty_group_is_free(self, fan_net):
        from repro.net.simnet import TransferGroup
        t0 = fan_net.clock.now
        assert TransferGroup(fan_net).run() == []
        assert fan_net.clock.now == t0

    def test_fanout_charges_makespan_not_sum(self, fan_net):
        one = WAN.cost(1_000_000)
        t0 = fan_net.clock.now
        outcomes = self.run_group(
            fan_net, [("src", f"dst{i}", 1_000_000) for i in range(4)])
        assert all(o.ok for o in outcomes)
        elapsed = fan_net.clock.now - t0
        assert elapsed == pytest.approx(one)          # max, not 4x
        assert fan_net.bytes_sent == 4_000_000
        assert fan_net.messages_sent == 4

    def test_same_path_members_serialize(self, fan_net):
        one = WAN.cost(1_000_000)
        t0 = fan_net.clock.now
        self.run_group(
            fan_net, [("src", "dst0", 1_000_000), ("src", "dst0", 1_000_000)])
        assert fan_net.clock.now - t0 == pytest.approx(2 * one)

    def test_failed_member_does_not_poison_siblings(self, fan_net):
        from repro.net.simnet import TransferGroup
        fan_net.set_down("dst1")
        group = TransferGroup(fan_net, label="t")
        for i in range(3):
            group.add("src", f"dst{i}", 1_000_000, key=i)
        outcomes = group.run()
        assert [o.ok for o in outcomes] == [True, False, True]
        assert isinstance(outcomes[1].error, HostUnreachable)
        assert outcomes[1].done - outcomes[1].start == \
            pytest.approx(2 * WAN.latency_s)
        assert fan_net.failed_attempts == 1
        assert fan_net.bytes_sent == 2_000_000

    def test_group_respects_prior_busy_until(self, fan_net):
        fan_net.host("src").busy_until = 5.0
        outcomes = self.run_group(fan_net, [("src", "dst0", 0)])
        assert outcomes[0].start == pytest.approx(5.0)

    def test_group_updates_busy_until(self, fan_net):
        outcomes = self.run_group(
            fan_net, [("src", "dst0", 1_000_000), ("src", "dst1", 2_000_000)])
        assert fan_net.host("src").busy_until == \
            pytest.approx(max(o.done for o in outcomes))
        assert fan_net.host("dst0").busy_until == \
            pytest.approx(outcomes[0].done)

    def test_group_emits_span_and_metrics(self, fan_net):
        with fan_net.obs.tracer.trace("test") as root:
            self.run_group(
                fan_net, [("src", "dst0", 1000), ("src", "dst1", 1000)],
                label="unit")
        gspans = root.find("net.parallel.group")
        assert len(gspans) == 1
        assert gspans[0].counters["members"] == 2
        assert len(gspans[0].find("net.transfer")) == 2
        m = fan_net.obs.metrics
        assert m.get("net.parallel.groups", label="unit") == 1
        assert m.get("net.parallel.members", label="unit") == 2
        hist = m.histogram("net.parallel.makespan_s", label="unit")
        assert hist is not None and hist.count == 1
        saved = m.histogram("net.parallel.saved_s", label="unit")
        assert saved.sum == pytest.approx(WAN.cost(1000))  # 2 cost - 1 max

    def test_group_runs_once(self, fan_net):
        from repro.net.simnet import TransferGroup
        group = TransferGroup(fan_net)
        group.add("src", "dst0", 10)
        group.run()
        with pytest.raises(NetworkError):
            group.run()

    def test_negative_size_rejected_at_add(self, fan_net):
        from repro.net.simnet import TransferGroup
        with pytest.raises(NetworkError):
            TransferGroup(fan_net).add("src", "dst0", -1)


class TestTopologyEpoch:
    def test_mutations_bump_epoch(self, net):
        e0 = net.topology_epoch
        net.set_down("b")
        net.set_up("b")
        net.partition("a", "b")
        net.heal("a", "b")
        assert net.topology_epoch == e0 + 4


class TestFailedMemberAccounting:
    """Regression: a failed TransferGroup member never advanced
    ``path_busy``/``host_done``, so its timeout occupied neither its
    path nor its endpoints — later members (and later queued transfers)
    started as if the dead attempt had been free."""

    @pytest.fixture
    def fan_net(self):
        n = Network()
        n.add_host("src")
        for i in range(3):
            n.add_host(f"dst{i}")
        return n

    def test_failed_members_serialize_on_their_path(self, fan_net):
        from repro.net.simnet import TransferGroup
        fan_net.set_down("dst1")
        timeout = 2 * WAN.latency_s
        t0 = fan_net.clock.now
        group = TransferGroup(fan_net)
        group.add("src", "dst1", 1_000_000)
        group.add("src", "dst1", 1_000_000)   # same dead path
        outcomes = group.run()
        # the second attempt holds until the first one's timeout expires
        assert outcomes[1].start == pytest.approx(outcomes[0].done)
        assert outcomes[1].done == pytest.approx(t0 + 2 * timeout)
        assert fan_net.clock.now == pytest.approx(t0 + 2 * timeout)

    def test_failed_member_occupies_endpoints(self, fan_net):
        from repro.net.simnet import TransferGroup
        fan_net.set_down("dst1")
        timeout = 2 * WAN.latency_s
        t0 = fan_net.clock.now
        group = TransferGroup(fan_net)
        group.add("src", "dst1", 1_000_000)
        group.run()
        # the charged timeout shows up in both endpoints' busy floors
        # (never *binding* for the dead host: the clock already passed
        # it when the group charged its makespan)
        assert fan_net.host("src").busy_until == pytest.approx(t0 + timeout)
        assert fan_net.host("dst1").busy_until == pytest.approx(t0 + timeout)
        assert fan_net.clock.now >= fan_net.host("dst1").busy_until

    def test_mixed_group_makespan_covers_failed_tail(self, fan_net):
        from repro.net.simnet import TransferGroup
        fan_net.set_down("dst1")
        timeout = 2 * WAN.latency_s
        t0 = fan_net.clock.now
        group = TransferGroup(fan_net)
        group.add("src", "dst0", 100)          # quick success
        group.add("src", "dst1", 100)          # timeout
        group.add("src", "dst1", 100)          # serialized second timeout
        group.run()
        assert fan_net.clock.now == pytest.approx(t0 + 2 * timeout)
        assert fan_net.failed_attempts == 2


class TestSetDownClearsQueues:
    """Regression: ``set_down`` left ``busy_until`` standing, so a
    restarted host was charged phantom queueing delay from transfers
    that died with the crash."""

    def test_restarted_host_starts_fresh(self, net):
        net.add_host("c")
        done = net.schedule_transfer("a", "b", 5_000_000)
        assert net.host("b").busy_until == pytest.approx(done)
        net.set_down("b")
        assert net.host("b").busy_until == 0.0
        net.set_up("b")
        # a queued transfer from an idle host sees no leftover backlog
        d2 = net.schedule_transfer("c", "b", 0)
        assert d2 == pytest.approx(net.clock.now + WAN.latency_s)

    def test_up_host_keeps_its_queue(self, net):
        """Only the *crashed* host forgets: its peer still has its own
        side of the queued work."""
        done = net.schedule_transfer("a", "b", 5_000_000)
        net.set_down("b")
        assert net.host("a").busy_until == pytest.approx(done)
