"""Hierarchical tracing on the virtual clock.

The paper's claims are *cost-shape* claims: who pays how many messages,
bytes and device seconds for an operation.  A benchmark that can only
read two global counters cannot explain a latency; a trace can.  This
module provides spans — named, nested regions of virtual time — that the
instrumented stack (RPC layer, network, SRB server, storage drivers)
opens around its work:

    with fed.obs.tracer.trace("client.get", path=path) as root:
        client.get(path)
    print(fed.obs.tracer.render(root))

yields the full causal tree::

    client.get path=/z/f  (0.4301s)  [messages=6 bytes=13021]
      rpc.call service=srb:s0 method=get  (0.4301s)
        net.transfer src=laptop dst=h0  (0.0401s)
        srb.get server=s0  (0.3498s)
          storage.read driver=memfs  (0.0067s)
          net.transfer src=h1 dst=h0  (0.2930s)
        net.transfer src=h0 dst=laptop  (0.0402s)

Recording is *demand-driven*: instrumentation points call
:meth:`Tracer.span`, which records only while a root span opened with
:meth:`Tracer.trace` is active.  Outside a trace every hook is a no-op,
so steady-state memory cost is zero and benchmarks opt in per region.
A site that runs on every op does not even make the call: it reads
:attr:`Tracer.stack` (the open spans, empty when nothing is recording)
and skips its ``span``/``add`` on that plain attribute read.

:meth:`Span.breakdown` answers "where did the time go" for a finished
tree — admission wait, WAN, storage, catalog, other — and ``Strace``
prints it under the tree.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.obs.metrics import format_value
from repro.util.clock import SimClock

#: :meth:`Span.breakdown` parts a span's own time is filed under, by the
#: prefix of its name; ``catalog`` is taken out of whichever span the
#: catalog op ran in, ``other`` is what remains of the root's duration
_BREAKDOWN_PREFIXES = (("srb.queue.wait", "admission"), ("net.", "wan"),
                       ("storage.", "storage"))


class Span:
    """One named region of virtual time with attributes and counters."""

    __slots__ = ("name", "attrs", "t0", "t1", "parent", "children",
                 "counters", "error")

    def __init__(self, name: str, attrs: Dict[str, Any], t0: float,
                 parent: Optional["Span"] = None):
        self.name = name
        self.attrs = attrs
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.children: List["Span"] = []
        self.counters: Dict[str, float] = {}
        self.error: Optional[str] = None
        if parent is not None:
            parent.children.append(self)

    # -- accounting ---------------------------------------------------------

    def incr(self, key: str, value: float = 1) -> None:
        """Add to a per-span counter (bytes, messages, cache hits, ...)."""
        self.counters[key] = self.counters.get(key, 0) + value

    @property
    def duration(self) -> float:
        """Virtual seconds between open and close."""
        return self.t1 - self.t0

    @property
    def self_duration(self) -> float:
        """Duration not covered by child spans (own work only)."""
        return self.duration - sum(c.duration for c in self.children)

    # -- traversal ----------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """All spans named ``name`` in this subtree."""
        return [s for s in self.walk() if s.name == name]

    def breakdown(self) -> Dict[str, float]:
        """Where this tree's virtual time went: ``admission`` (queue wait
        at a worker pool), ``wan`` (``net.*`` spans), ``storage``
        (``storage.*`` spans), ``catalog`` (the ``catalog_s`` every
        charged catalog op adds to the span it ran in) and ``other``.

        Each span's *self* time is filed under its name's part, less the
        catalog seconds spent inside it.  ``other`` is *defined* as what
        remains of :attr:`duration` after the four named parts, added in
        the order above — so no time is lost or counted twice, and the
        statement is exact in float arithmetic rather than approximate
        (summing ``other`` from the unfiled spans instead would differ
        in the last digits by addition order).
        """
        parts = {"admission": 0.0, "wan": 0.0, "storage": 0.0,
                 "catalog": 0.0}
        for span in self.walk():
            catalog = span.counters.get("catalog_s", 0.0)
            parts["catalog"] += catalog
            for prefix, part in _BREAKDOWN_PREFIXES:
                if span.name.startswith(prefix):
                    parts[part] += span.self_duration - catalog
                    break
        parts["other"] = self.duration - (
            parts["admission"] + parts["wan"] + parts["storage"]
            + parts["catalog"])
        return parts


class _SpanContext:
    """Context manager binding a span's lifetime to a ``with`` block."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Optional[Span]):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Optional[Span]:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is not None:
            self._tracer.close(self._span, exc)
        return None


#: what Tracer.span hands out outside a trace: one shared, stateless no-op
_NO_SPAN = _SpanContext(None, None)


class Tracer:
    """Span factory bound to one virtual clock.

    ``trace()`` opens a *root* span and turns recording on; ``span()`` is
    the instrumentation hook — it nests under the current span while a
    trace is active and costs nothing otherwise.  Finished roots are kept
    in :attr:`traces` (bounded by ``keep``) for later inspection.
    """

    def __init__(self, clock: Optional[SimClock] = None, keep: int = 64):
        self.clock = clock
        self.keep = keep
        self.traces: List[Span] = []
        self.dropped = 0
        #: the open spans, innermost last; empty when nothing records.
        #: Public so a hot site can test it before calling span()/add()
        self.stack: List[Span] = []

    # -- plumbing -----------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    @property
    def current(self) -> Optional[Span]:
        """Innermost open span, or None outside a trace."""
        return self.stack[-1] if self.stack else None

    def open(self, name: str, attrs: Dict[str, Any]) -> Span:
        """Open a span under the current one.  :meth:`trace` and
        :meth:`span` wrap this in a ``with``; a site that must not pay
        for a context manager when nothing records pairs it with
        :meth:`close` itself, behind ``if tracer.stack``."""
        span = Span(name, attrs, self._now(), parent=self.current)
        self.stack.append(span)
        return span

    def close(self, span: Span, exc: Optional[BaseException] = None) -> None:
        """Close ``span`` (as failed, if ``exc`` ended it)."""
        if exc is not None and span.error is None:
            span.error = f"{type(exc).__name__}: {exc}"
        span.t1 = self._now()
        # unwind to (and including) the span; tolerates missed closes
        while self.stack:
            top = self.stack.pop()
            if top is span:
                break
        if span.parent is None:
            self.traces.append(span)
            if len(self.traces) > self.keep:
                self.traces.pop(0)
                self.dropped += 1

    # -- public API ---------------------------------------------------------

    def trace(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a root span: recording is on until the block exits."""
        return _SpanContext(self, self.open(name, attrs))

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Instrumentation hook: a child span while tracing, else no-op."""
        if not self.stack:
            return _NO_SPAN
        return _SpanContext(self, self.open(name, attrs))

    def add(self, key: str, value: float = 1) -> None:
        """Add to the current span's counters (no-op outside a trace)."""
        if self.stack:
            self.stack[-1].incr(key, value)

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration child span (point event) under the current span."""
        if self.stack:
            Span(name, attrs, self._now(), parent=self.stack[-1])

    # -- export -------------------------------------------------------------

    def render(self, root: Optional[Span] = None) -> str:
        """Human-readable tree of one trace (default: the last one)."""
        if root is None and self.traces:
            root = self.traces[-1]
        if root is None:
            return "(no trace recorded)"
        lines: List[str] = []

        def fmt(span: Span, depth: int) -> None:
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            counters = " ".join(f"{k}={format_value(v)}" for k, v in
                                sorted(span.counters.items()))
            line = "  " * depth + span.name
            if attrs:
                line += " " + attrs
            line += f"  ({span.duration:.4f}s)"
            if counters:
                line += f"  [{counters}]"
            if span.error:
                line += f"  !{span.error}"
            lines.append(line)
            for child in span.children:
                fmt(child, depth + 1)

        fmt(root, 0)
        return "\n".join(lines)
