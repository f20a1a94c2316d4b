"""Experiment harness: virtual-clock measurement + paper-style tables.

Every benchmark in ``benchmarks/`` builds a grid, runs a parameter sweep,
and prints a table of virtual-clock results with this module, then
asserts the *shape* the paper claims (who wins, roughly by how much).
Absolute values are virtual seconds from the deterministic cost models —
stable across machines and runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.util.clock import SimClock


@dataclass
class Measurement:
    """One timed region of virtual time (plus optional counters).

    ``metrics`` holds what the grid's metrics registry counted *during*
    the region (a :meth:`MetricsRegistry.delta` dict), so tables can
    print explanatory columns — messages, rows scanned — next to the
    virtual seconds they explain.
    """

    label: str
    virtual_s: float
    extra: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def metric(self, name: str) -> float:
        """Sum of one metric across label sets in this region."""
        return sum(v for k, v in self.metrics.items()
                   if k == name or k.startswith(name + "{"))


def timed(clock: SimClock, fn: Callable[[], Any],
          label: str = "", metrics: Any = None) -> Measurement:
    """Run ``fn`` and measure the virtual time it consumed.

    Pass a :class:`~repro.obs.metrics.MetricsRegistry` (e.g.
    ``fed.obs.metrics``) as ``metrics`` to also capture the counter
    deltas for the region.
    """
    before = metrics.snapshot() if metrics is not None else None
    t0 = clock.now
    fn()
    m = Measurement(label=label, virtual_s=clock.now - t0)
    if before is not None:
        m.metrics = metrics.delta(before)
    return m


class ResultTable:
    """Fixed-width result table, printed like the rows a paper reports.

    >>> t = ResultTable("E1 containers", ["files", "per-file (s)", "container (s)", "speedup"])
    >>> t.add_row([100, 2150.0, 61.2, "35.1x"])
    >>> t.show()
    """

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[Any]] = []

    def add_row(self, values: Sequence[Any]) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append(list(values))

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    def render(self) -> str:
        cells = [[self._fmt(v) for v in row] for row in self.rows]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        out = [f"== {self.title} ==",
               " | ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
               sep]
        for row in cells:
            out.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(out)

    def show(self, file=None) -> None:
        print("\n" + self.render() + "\n", file=file or sys.stdout)


def assert_monotone(values: Sequence[float], increasing: bool = True,
                    tolerance: float = 0.0) -> None:
    """Shape check: a sweep should move in one direction (within tolerance)."""
    for a, b in zip(values, values[1:]):
        if increasing and b < a * (1 - tolerance):
            raise AssertionError(f"expected increasing series, got {a} -> {b}")
        if not increasing and b > a * (1 + tolerance):
            raise AssertionError(f"expected decreasing series, got {a} -> {b}")
