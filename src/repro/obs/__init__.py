"""repro.obs — grid-wide observability: tracing + metrics.

One :class:`Observability` object travels with the simulated network
(every federation sharing a network shares it) and carries two views of
the same activity:

* :class:`~repro.obs.trace.Tracer` — hierarchical spans on the virtual
  clock, recorded on demand (``obs.tracer.trace("client.get")``) to
  explain *one* operation's cost end to end;
* :class:`~repro.obs.metrics.MetricsRegistry` — always-on labeled
  counters and virtual-time histograms aggregating *all* operations,
  surfaced by MySRB's ``/status`` page, the ``Sstat`` Scommand, and the
  benchmark harness's per-measurement snapshots.

Instrumented layers: ``net.simnet`` (every transfer, including failed
attempts), ``net.rpc`` (every call with request/response bytes),
``core.dispatch`` (top-level operation spans), ``storage`` drivers
(per-op counters, archive cache hits/misses/stages) and ``mcat``
(catalog ops, query rows scanned vs matched).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import Histogram, MetricsRegistry, format_value
from repro.obs.trace import Span, Tracer
from repro.util.clock import SimClock


class Observability:
    """Tracer + metrics registry bound to one virtual clock."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock
        self.tracer = Tracer(clock)
        self.metrics = MetricsRegistry()


__all__ = ["Observability", "Tracer", "Span", "MetricsRegistry", "Histogram",
           "format_value"]
