"""Labeled counters and virtual-time histograms.

Where a trace explains *one* operation, the metrics registry aggregates
*all* of them: named counters and histograms, each carrying labeled
dimensions (per-host, per-resource, per-operation), always on and cheap
(a dict increment per observation).  Benchmarks diff two snapshots to
print explanatory columns next to virtual seconds; MySRB renders the
whole registry on its ``/status`` page; ``Sstat`` prints it.

Naming convention: dotted metric names by layer (``net.messages``,
``rpc.calls``, ``storage.ops``, ``mcat.query_rows_scanned``); label sets
are small and bounded by topology (hosts, resources, services, methods).

Two ways in, one store.  ``inc(name, **labels)`` / ``observe`` resolve the
series on every call — the cold-path API, for sites that emit once in a
while.  A site that emits on every op resolves its series *once*:
``bind_counter(name, **labels)`` / ``bind_histogram`` hand back a
:class:`BoundCounter` / :class:`BoundHistogram` holding the series' dict
and its label key, so an increment is one call and one dict update.
Binding is not an observation (a series exists once something was
counted into it), a handle outlives :meth:`MetricsRegistry.clear`, and a
handle and ``inc`` with the same labels are the same series.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: histogram bucket upper bounds, virtual seconds (log-spaced; +inf last)
DEFAULT_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0, float("inf"))


def _label_str(key: LabelKey) -> str:
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}" if key else ""


def format_value(value: float) -> str:
    """A metric or span-counter value as operators read it: integers in
    full (``net.bytes`` 6292135, not 6.29214e+06), anything else as the
    shortest text that reads back to the same float."""
    if not isinstance(value, float):
        return str(value)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


@dataclass
class Histogram:
    """Distribution of virtual-time observations for one label set."""

    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = 0.0
    bucket_counts: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            self.bucket_counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        buckets = self.buckets
        i = bisect_left(buckets, value)
        # first bound with value <= bound; NaN and anything past a finite
        # last bound fall in no bucket
        if i < len(buckets) and value <= buckets[i]:
            self.bucket_counts[i] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class BoundCounter:
    """One counter series, resolved once (see
    :meth:`MetricsRegistry.bind_counter`)."""

    __slots__ = ("_series", "_key")

    def __init__(self, series: Dict[LabelKey, float], key: LabelKey):
        self._series = series
        self._key = key

    def inc(self, value: float = 1) -> None:
        try:
            self._series[self._key] += value
        except KeyError:
            self._series[self._key] = 0 + value   # numbers: True is 1


class BoundHistogram:
    """One histogram series, resolved once (see
    :meth:`MetricsRegistry.bind_histogram`)."""

    __slots__ = ("_series", "_key")

    def __init__(self, series: Dict[LabelKey, Histogram], key: LabelKey):
        self._series = series
        self._key = key

    def observe(self, value: float) -> None:
        try:
            hist = self._series[self._key]
        except KeyError:
            hist = self._series[self._key] = Histogram()
        hist.observe(value)


class BoundFamily(dict):
    """The handles a site needs, per label values, bound on first use
    (see :meth:`MetricsRegistry.bind_family`).  A plain ``dict`` to its
    reader: ``family[src, dst]`` is a subscript, and only a label
    combination never seen before reaches :meth:`__missing__`."""

    def __init__(self, registry: "MetricsRegistry", labels: Tuple[str, ...],
                 instruments: Tuple[tuple, ...]):
        super().__init__()
        self._registry = registry
        self._labels = labels
        self._instruments = instruments

    def __missing__(self, key):
        values = key if len(self._labels) > 1 else (key,)
        given = dict(zip(self._labels, values))
        registry, handles = self._registry, []
        for kind, name, *subset in self._instruments:
            bind = registry.bind_counter if kind == "counter" \
                else registry.bind_histogram
            handles.append(bind(name, **{
                k: given[k] for k in (subset[0] if subset else self._labels)}))
        self[key] = bound = tuple(handles)
        return bound


class MetricsRegistry:
    """Registry of named counters and histograms with labeled dimensions.

    A name's series dict is created by the first ``inc``/``observe`` *or*
    bind and then lives as long as the registry (handles hold it), so
    "has this been counted" is "is the dict non-empty", never "is the
    name present".
    """

    def __init__(self):
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}

    @staticmethod
    def _key(labels: Dict[str, object]) -> LabelKey:
        """The series key of one label set: sorted, values as they
        render — so ``1``, ``True``, ``1.0`` and a str-like enum, which
        compare equal to each other (or to a str), stay apart."""
        return tuple(sorted([(k, str(v)) for k, v in labels.items()]))

    # -- counters -----------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        """Increment counter ``name`` for one label combination."""
        try:
            series = self._counters[name]
        except KeyError:
            series = self._counters[name] = {}
        key = self._key(labels) if labels else ()
        try:
            series[key] += value
        except KeyError:
            series[key] = 0 + value     # counters are numbers: True is 1

    def bind_counter(self, name: str, **labels: object) -> BoundCounter:
        """The handle of one labeled series of counter ``name``, for a
        site that increments it on every op."""
        return BoundCounter(self._counters.setdefault(name, {}),
                            self._key(labels))

    def bind_family(self, labels: Tuple[str, ...],
                    *instruments: tuple) -> BoundFamily:
        """Handles for a site whose series differ only in label values
        (a network link, an RPC method): ``family[values]`` is the tuple
        of handles, in the order given, for that combination of
        ``labels``.  Each instrument is ``("counter" | "histogram",
        name)``, plus the subset of ``labels`` it carries when not all."""
        return BoundFamily(self, labels, instruments)

    def get(self, name: str, **labels: object) -> float:
        """Value of one labeled series (0 if never incremented)."""
        return self._counters.get(name, {}).get(self._key(labels), 0)

    def total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        return sum(self._counters.get(name, {}).values())

    def series(self, name: str) -> Dict[str, float]:
        """All labeled series of one counter, keyed by rendered labels."""
        return {_label_str(k): v
                for k, v in sorted(self._counters.get(name, {}).items())}

    def counter_names(self) -> List[str]:
        return sorted(n for n, series in self._counters.items() if series)

    # -- histograms ---------------------------------------------------------

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one virtual-time observation into histogram ``name``."""
        try:
            series = self._histograms[name]
        except KeyError:
            series = self._histograms[name] = {}
        key = self._key(labels) if labels else ()
        try:
            hist = series[key]
        except KeyError:
            hist = series[key] = Histogram()
        hist.observe(value)

    def bind_histogram(self, name: str, **labels: object) -> BoundHistogram:
        """The handle of one labeled series of histogram ``name``."""
        return BoundHistogram(self._histograms.setdefault(name, {}),
                              self._key(labels))

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        return self._histograms.get(name, {}).get(self._key(labels))

    def histogram_names(self) -> List[str]:
        return sorted(n for n, series in self._histograms.items() if series)

    def histogram_series(self, name: str) -> Dict[str, Histogram]:
        """All labeled histograms of one name, keyed by rendered labels."""
        return {_label_str(k): h
                for k, h in sorted(self._histograms.get(name, {}).items())}

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{labels} -> value`` dict of every counter series,
        plus ``name{labels}:count``/``:sum`` for histograms.  Snapshots
        are plain dicts: diff two with :meth:`delta`."""
        out: Dict[str, float] = {}
        for name, series in self._counters.items():
            for key, value in series.items():
                out[name + _label_str(key)] = value
        for name, series in self._histograms.items():
            for key, hist in series.items():
                out[name + _label_str(key) + ":count"] = hist.count
                out[name + _label_str(key) + ":sum"] = hist.sum
        return out

    def delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """What changed since ``before`` (a prior :meth:`snapshot`);
        unchanged series are omitted."""
        now = self.snapshot()
        return {k: v - before.get(k, 0) for k, v in now.items()
                if v != before.get(k, 0)}

    @staticmethod
    def sum_matching(snap: Dict[str, float], name: str) -> float:
        """Sum every series of counter ``name`` in a snapshot/delta."""
        return sum(v for k, v in snap.items()
                   if k == name or k.startswith(name + "{"))

    # -- rendering ----------------------------------------------------------

    def render(self, prefixes: Optional[Iterable[str]] = None) -> str:
        """Plain-text listing, one ``name{labels} value`` per line."""
        wanted = tuple(prefixes) if prefixes else None
        lines: List[str] = []
        for key, value in sorted(self.snapshot().items()):
            if wanted is not None and not key.startswith(wanted):
                continue
            lines.append(f"{key} {format_value(value)}")
        return "\n".join(lines)

    def clear(self) -> None:
        """Forget every observation; bound handles keep counting into
        the emptied series."""
        for series in (*self._counters.values(),
                       *self._histograms.values()):
            series.clear()
