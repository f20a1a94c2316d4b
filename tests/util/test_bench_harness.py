"""Tests for the benchmark harness itself."""

import pytest

from repro.bench import (
    ResultTable,
    assert_monotone,
    timed,
)
from repro.util.clock import SimClock


class TestResultTable:
    def test_render_contains_title_and_rows(self):
        t = ResultTable("demo", ["a", "b"])
        t.add_row([1, 2.5])
        out = t.render()
        assert "== demo ==" in out
        assert "2.50" in out

    def test_row_arity_enforced(self):
        t = ResultTable("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_float_formatting(self):
        t = ResultTable("demo", ["v"])
        for v in (0.0, 0.00012, 3.14159, 12345.6):
            t.add_row([v])
        out = t.render()
        assert "0.0001" in out          # small values keep precision
        assert "3.14" in out
        assert "12,346" in out          # big values get separators

    def test_alignment(self):
        t = ResultTable("demo", ["name", "n"])
        t.add_row(["longer-name-than-header", 1])
        lines = t.render().splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1         # all rows padded to equal width


class TestTimed:
    def test_measures_virtual_time(self):
        clock = SimClock()
        m = timed(clock, lambda: clock.advance(2.5), label="op")
        assert m.virtual_s == 2.5
        assert m.label == "op"


class TestShapeHelpers:
    def test_assert_monotone_increasing(self):
        assert_monotone([1, 2, 3])
        with pytest.raises(AssertionError):
            assert_monotone([1, 3, 2])

    def test_assert_monotone_decreasing(self):
        assert_monotone([3, 2, 1], increasing=False)
        with pytest.raises(AssertionError):
            assert_monotone([1, 2], increasing=False)

    def test_tolerance_allows_noise(self):
        assert_monotone([1.0, 0.99, 1.5], increasing=True, tolerance=0.05)
        with pytest.raises(AssertionError):
            assert_monotone([1.0, 0.80, 1.5], increasing=True,
                            tolerance=0.05)
