"""Unit tests for the virtual clock."""

import pytest
from hypothesis import given, settings, strategies as st

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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.floats(-1e6, 1e6, allow_nan=False)),
                max_size=30))
def test_the_clock_never_moves_backwards(steps):
    """Neither ``advance`` nor ``advance_to`` turns the clock back, and a
    refused step leaves it where it was."""
    clock = SimClock()
    for absolute, value in steps:
        before = clock.now
        try:
            now = clock.advance_to(value) if absolute \
                else clock.advance(value)
        except ValueError:
            assert value < (before if absolute else 0)
            assert clock.now == before
        else:
            assert now == clock.now >= before
