"""Unit tests for hierarchical virtual-time trace spans."""

import pytest

from repro.obs.trace import Tracer
from repro.util.clock import SimClock


@pytest.fixture
def tracer():
    return Tracer(SimClock())


class TestNesting:
    def test_children_nest_under_parent(self, tracer):
        with tracer.trace("root"):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("c"):
                pass
        root = tracer.last()
        assert [c.name for c in root.children] == ["a", "c"]
        assert [c.name for c in root.children[0].children] == ["b"]

    def test_durations_track_the_clock(self, tracer):
        clock = tracer.clock
        with tracer.trace("root"):
            clock.advance(1.0)
            with tracer.span("child"):
                clock.advance(2.0)
            clock.advance(0.5)
        root = tracer.last()
        assert root.duration == pytest.approx(3.5)
        assert root.children[0].duration == pytest.approx(2.0)
        assert root.self_duration == pytest.approx(1.5)

    def test_find_and_walk(self, tracer):
        with tracer.trace("root"):
            with tracer.span("x"):
                with tracer.span("x"):
                    pass
        root = tracer.last()
        assert len(root.find("x")) == 2
        assert len(list(root.walk())) == 3


class TestDemandDriven:
    def test_span_is_noop_outside_a_trace(self, tracer):
        with tracer.span("orphan") as sp:
            assert sp is None
        tracer.add("messages", 5)
        assert tracer.traces == []
        assert not tracer.active

    def test_active_only_inside_trace(self, tracer):
        assert not tracer.active
        with tracer.trace("root"):
            assert tracer.active
            assert tracer.current.name == "root"
        assert not tracer.active


class TestCounters:
    def test_add_hits_innermost_span(self, tracer):
        with tracer.trace("root"):
            tracer.add("messages")
            with tracer.span("child"):
                tracer.add("messages")
                tracer.add("bytes", 100)
        root = tracer.last()
        assert root.counters == {"messages": 1}
        assert root.total("messages") == 2
        assert root.total("bytes") == 100


class TestErrors:
    def test_exception_recorded_and_propagated(self, tracer):
        with pytest.raises(ValueError):
            with tracer.trace("root"):
                with tracer.span("child"):
                    raise ValueError("boom")
        root = tracer.last()
        assert "boom" in root.children[0].error
        assert "boom" in root.error


class TestBoundedKeep:
    def test_old_traces_dropped(self):
        tracer = Tracer(SimClock(), keep=3)
        for i in range(5):
            with tracer.trace(f"t{i}"):
                pass
        assert len(tracer.traces) == 3
        assert tracer.dropped == 2
        assert tracer.last().name == "t4"


class TestExport:
    def test_events_flatten_with_depth(self, tracer):
        with tracer.trace("root", path="/z/f"):
            with tracer.span("child"):
                pass
        events = tracer.events(tracer.last())
        assert [(e["name"], e["depth"]) for e in events] == [
            ("root", 0), ("child", 1)]
        assert events[0]["attrs"] == {"path": "/z/f"}

    def test_render_shows_tree(self, tracer):
        with tracer.trace("root"):
            with tracer.span("child", host="h0"):
                tracer.add("bytes", 7)
        text = tracer.render()
        assert "root" in text
        assert "  child host=h0" in text
        assert "bytes=7" in text

    def test_render_without_traces(self, tracer):
        assert "no trace" in tracer.render()

    def test_render_keeps_every_digit_of_a_counter(self, tracer):
        # a 4 MiB leg: ``:g`` printed bytes=4.1943e+06
        with tracer.trace("root"):
            tracer.add("bytes", 4 * 1024 * 1024)
            tracer.add("catalog_s", 0.000214)
        text = tracer.render()
        assert "bytes=4194304" in text
        assert "catalog_s=0.000214" in text


class TestHotSiteProtocol:
    """A site that runs on every op reads ``stack`` and skips the call;
    when something records it pairs ``open`` with ``close``."""

    def test_stack_is_empty_exactly_when_nothing_records(self, tracer):
        assert tracer.stack == []
        with tracer.trace("root") as root:
            assert tracer.stack == [root]
            with tracer.span("child") as child:
                assert tracer.stack == [root, child]
        assert tracer.stack == []

    def test_open_close_is_what_the_with_form_does(self, tracer):
        with tracer.trace("root") as root:
            span = tracer.open("manual", {"k": "v"})
            tracer.add("n", 2)
            tracer.clock.advance(1.5)
            tracer.close(span)
            failed = tracer.open("failed", {})
            tracer.close(failed, ValueError("boom"))
        assert [c.name for c in root.children] == ["manual", "failed"]
        assert span.attrs == {"k": "v"} and span.counters == {"n": 2}
        assert span.duration == 1.5
        assert failed.error == "ValueError: boom"
        assert tracer.stack == []


class TestBreakdown:
    def test_self_times_are_filed_by_span_name(self, tracer):
        clock = tracer.clock
        with tracer.trace("client.get") as root:
            with tracer.span("rpc.call"):
                with tracer.span("net.transfer"):
                    clock.advance(0.04)
                with tracer.span("srb.queue.wait"):
                    clock.advance(0.5)
                with tracer.span("srb.data.get"):
                    clock.advance(0.001)          # a catalog op, in the op span
                    tracer.add("catalog_s", 0.001)
                    with tracer.span("storage.read"):
                        clock.advance(0.25)
                    with tracer.span("net.parallel.group"):
                        with tracer.span("net.transfer"):
                            pass                  # grouped: bookkeeping only
                        clock.advance(2.0)        # the makespan
                    clock.advance(0.125)          # the handler's own time
        parts = root.breakdown()
        assert list(parts) == ["admission", "wan", "storage", "catalog",
                               "other"]
        assert parts["admission"] == pytest.approx(0.5)
        assert parts["wan"] == pytest.approx(2.04)
        assert parts["storage"] == pytest.approx(0.25)
        assert parts["catalog"] == pytest.approx(0.001)
        assert parts["other"] == pytest.approx(0.125)

    def test_other_is_the_exact_remainder(self, tracer):
        clock = tracer.clock
        with tracer.trace("root") as root:
            for cost in (0.1, 0.2, 0.3, 1e-9, 1 / 3):
                with tracer.span("net.transfer"):
                    clock.advance(cost)
                with tracer.span("storage.read"):
                    clock.advance(cost / 7)
        parts = root.breakdown()
        known = parts["admission"] + parts["wan"] + parts["storage"] \
            + parts["catalog"]
        assert parts["other"] == root.duration - known
        assert parts["other"] == pytest.approx(0.0, abs=1e-12)

    def test_catalog_time_inside_a_storage_span_is_catalog(self, tracer):
        with tracer.trace("root") as root:
            with tracer.span("storage.write"):
                tracer.clock.advance(1.0)
                tracer.add("catalog_s", 0.25)
        parts = root.breakdown()
        assert (parts["storage"], parts["catalog"]) == (0.75, 0.25)
