"""Unit tests for the virtual clock."""

import pytest

from repro.util.clock import SimClock


class TestAdvance:
    def test_starts_at_start(self):
        assert SimClock().now == 0.0
        assert SimClock(start=100.0).now == 100.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == 4.0

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(3.0) == 3.0

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_advance_to_absolute(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_past_rejected(self):
        clock = SimClock()
        clock.advance(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)


class TestTimers:
    def test_timer_fires_when_crossed(self):
        clock = SimClock()
        fired = []
        clock.call_at(5.0, lambda: fired.append(clock.now))
        clock.advance(4.0)
        assert fired == []
        clock.advance(2.0)
        assert fired == [5.0]

    def test_timers_fire_in_deadline_order(self):
        clock = SimClock()
        fired = []
        clock.call_at(7.0, lambda: fired.append("b"))
        clock.call_at(3.0, lambda: fired.append("a"))
        clock.advance(10.0)
        assert fired == ["a", "b"]

    def test_past_deadline_fires_on_next_advance(self):
        clock = SimClock()
        clock.advance(10.0)
        fired = []
        clock.call_at(5.0, lambda: fired.append(True))
        clock.advance(0.0)
        assert fired == [True]

    def test_timer_at_exact_boundary_fires(self):
        clock = SimClock()
        fired = []
        clock.call_at(2.0, lambda: fired.append(True))
        clock.advance(2.0)
        assert fired == [True]


class TestTimersNeverTurnTheClockBack:
    def test_callback_that_advances_past_the_outer_target(self):
        # the outer advance used to overwrite the clock with its own
        # target after the callback had moved it further
        clock = SimClock()
        seen = []
        clock.call_at(1.0, lambda: seen.append(clock.advance(10.0)))
        assert clock.advance(2.0) == 11.0
        assert seen == [11.0]
        assert clock.now == 11.0

    def test_equal_deadlines_fire_in_registration_order(self):
        clock = SimClock()
        fired = []

        class Callback:             # would raise if the heap compared it
            def __init__(self, tag):
                self.tag = tag

            def __call__(self):
                fired.append(self.tag)

        for tag in "cab":
            clock.call_at(3.0, Callback(tag))
        clock.call_at(1.0, Callback("first"))
        clock.advance(3.0)
        assert fired == ["first", "c", "a", "b"]

    def test_callback_registers_a_timer_inside_the_window(self):
        clock = SimClock()
        fired = []

        def first():
            fired.append(("first", clock.now))
            clock.call_at(4.0, lambda: fired.append(("second", clock.now)))
            clock.call_at(9.0, lambda: fired.append(("late", clock.now)))

        clock.call_at(2.0, first)
        clock.advance(5.0)
        assert fired == [("first", 2.0), ("second", 4.0)]
        assert clock.now == 5.0
        clock.advance(4.0)
        assert fired[-1] == ("late", 9.0)

    def test_no_timer_walk_without_a_timer(self, monkeypatch):
        clock = SimClock()
        walks = []
        monkeypatch.setattr(SimClock, "_run_timers",
                            lambda self, upto: walks.append(upto))
        clock.advance(1.0)
        clock.advance_to(3.0)
        assert walks == [] and clock.now == 3.0
