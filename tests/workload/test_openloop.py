"""Unit tests for the open-loop workload generator."""

import pytest

from repro.net.rpc import ServiceRegistry
from repro.net.simnet import Network
from repro.workload import (
    LoadReport,
    RequestOutcome,
    percentile,
    poisson_arrivals,
    run_open_loop,
)


class TestPoissonArrivals:
    def test_deterministic_for_seed(self):
        assert poisson_arrivals(10.0, 20, seed=7) == \
            poisson_arrivals(10.0, 20, seed=7)
        assert poisson_arrivals(10.0, 20, seed=7) != \
            poisson_arrivals(10.0, 20, seed=8)

    def test_sorted_and_after_start(self):
        ts = poisson_arrivals(5.0, 50, start=100.0)
        assert ts == sorted(ts)
        assert all(t > 100.0 for t in ts)

    def test_mean_gap_matches_rate(self):
        ts = poisson_arrivals(10.0, 5000, seed=3)
        mean_gap = ts[-1] / len(ts)
        assert mean_gap == pytest.approx(0.1, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 5)
        with pytest.raises(ValueError):
            poisson_arrivals(1.0, -1)
        assert poisson_arrivals(1.0, 0) == []


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile(values, 0) == 1

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLoadReport:
    def _report(self):
        rep = LoadReport(offered_rate_hz=10.0)
        rep.outcomes = [
            RequestOutcome(index=0, arrival=0.0, wait=0.0, latency=1.0),
            RequestOutcome(index=1, arrival=1.0, wait=0.5, latency=2.0),
            RequestOutcome(index=2, arrival=2.0, shed=True,
                           retry_after=0.3, error="ServerBusy"),
            RequestOutcome(index=3, arrival=3.0, error="NoSuchObject"),
        ]
        return rep

    def test_counts(self):
        rep = self._report()
        assert rep.issued == 4
        assert len(rep.completed) == 2
        assert rep.shed_count == 1
        assert rep.error_count == 1
        assert rep.shed_fraction == 0.25

    def test_latencies_exclude_failures(self):
        rep = self._report()
        assert rep.latencies() == [1.0, 2.0]
        assert rep.p50 == 1.0
        assert rep.p99 == 2.0

    def test_goodput_over_makespan(self):
        rep = self._report()
        # first arrival 0.0, last completion 1.0 + 2.0 = 3.0
        assert rep.makespan_s == pytest.approx(3.0)
        assert rep.goodput_hz == pytest.approx(2 / 3.0)

    def test_empty_report(self):
        rep = LoadReport(offered_rate_hz=1.0)
        assert rep.goodput_hz == 0.0
        assert rep.latencies() == []


class SlowEcho:
    SERVICE_S = 0.1

    def __init__(self, net):
        self.net = net

    def work(self, text: str) -> str:
        self.net.clock.advance(self.SERVICE_S)
        return text


class TestRunOpenLoop:
    @pytest.fixture
    def grid(self):
        net = Network()
        net.add_host("client")
        net.add_host("server")
        rpc = ServiceRegistry(net)
        rpc.register("server", "svc", SlowEcho(net))
        return net, rpc

    def test_underloaded_run_sees_no_queueing(self, grid):
        net, rpc = grid
        net.install_station("server", workers=1)
        # offered rate 1/s against capacity ~10/s
        arrivals = poisson_arrivals(1.0, 30, seed=1)
        rep = run_open_loop(rpc, arrivals,
                            lambda i: rpc.call("client", "server", "svc",
                                               "work", text=f"m{i}"),
                            offered_rate_hz=1.0)
        assert rep.issued == 30
        assert len(rep.completed) == 30
        # a Poisson gap occasionally undercuts the service time, so a
        # few requests brush the previous one -- but queueing stays
        # negligible and the typical request sees none at all
        base = SlowEcho.SERVICE_S + 2 * net.default_link.latency_s
        zero_wait = sum(1 for o in rep.outcomes if o.wait == 0.0)
        assert zero_wait >= 0.8 * rep.issued
        waits = [o.wait for o in rep.completed]
        assert sum(waits) / len(waits) < SlowEcho.SERVICE_S / 2
        assert rep.p50 == pytest.approx(base, rel=1e-3)

    def test_overloaded_run_accumulates_wait(self, grid):
        net, rpc = grid
        net.install_station("server", workers=1)
        # 30/s against ~10/s capacity: waits must grow with the backlog
        arrivals = poisson_arrivals(30.0, 60, seed=1)
        rep = run_open_loop(rpc, arrivals,
                            lambda i: rpc.call("client", "server", "svc",
                                               "work", text="x"),
                            offered_rate_hz=30.0)
        assert len(rep.completed) == 60
        assert rep.p99 > 3 * rep.p50 or rep.p50 > 5 * SlowEcho.SERVICE_S
        waits = [o.wait for o in rep.outcomes]
        assert waits[-1] > waits[len(waits) // 2] > 0.0
        # goodput saturates at the service rate, not the offered rate
        assert rep.goodput_hz == pytest.approx(1 / SlowEcho.SERVICE_S,
                                               rel=0.1)

    def test_bounded_queue_sheds_and_records(self, grid):
        net, rpc = grid
        net.install_station("server", workers=1, queue_depth=2)
        arrivals = poisson_arrivals(30.0, 60, seed=1)
        rep = run_open_loop(rpc, arrivals,
                            lambda i: rpc.call("client", "server", "svc",
                                               "work", text="x"),
                            offered_rate_hz=30.0)
        assert rep.shed_count > 0
        assert len(rep.completed) + rep.shed_count == 60
        shed = [o for o in rep.outcomes if o.shed]
        assert all(o.retry_after is not None for o in shed)
        # accepted requests wait at most ~queue_depth service times
        max_wait = max(o.wait for o in rep.outcomes if o.ok)
        assert max_wait <= 3.5 * SlowEcho.SERVICE_S

    def test_non_monotone_arrivals_rejected(self, grid):
        _, rpc = grid
        with pytest.raises(ValueError):
            run_open_loop(rpc, [1.0, 0.5], lambda i: None)

    def test_error_recorded_not_raised(self, grid):
        net, rpc = grid
        arrivals = poisson_arrivals(1.0, 3, seed=1)
        rep = run_open_loop(rpc, arrivals,
                            lambda i: rpc.call("client", "server", "svc",
                                               "missing_method"))
        # RpcError derives from SrbError: recorded per request
        assert rep.issued == 3
        assert rep.error_count == 3
        assert len(rep.completed) == 0

    def test_unresolvable_call_does_not_replay_previous_outcome(self, grid):
        """Regression: a call failing resolution (no such method) left
        ``last_timing`` holding the *previous* call's timing, so the
        report recorded that request's arrival and latency a second
        time as the bad request's outcome."""
        net, rpc = grid
        methods = ["work", "missing_method", "work"]
        rep = run_open_loop(rpc, [1.0, 2.0, 3.0],
                            lambda i: rpc.call("client", "server", "svc",
                                               methods[i], text="x"))
        good, bad, after = rep.outcomes
        assert [o.arrival for o in rep.outcomes] == [1.0, 2.0, 3.0]
        assert good.ok and after.ok
        # it never reached the wire: an error, and no latency to report
        assert bad.error == "RpcError" and bad.latency is None
        assert len(rep.latencies()) == 2
