"""Labeled counters and virtual-time histograms.

Where a trace explains *one* operation, the metrics registry aggregates
*all* of them: named counters and histograms, each carrying labeled
dimensions (per-host, per-resource, per-operation), always on and cheap.
Benchmarks diff two snapshots to print explanatory columns next to
virtual seconds; MySRB renders the whole registry on its ``/status``
page; ``Sstat`` prints it.

Naming convention: dotted metric names by layer (``net.messages``,
``rpc.calls``, ``storage.ops``, ``mcat.query_rows_scanned``); label sets
are small and bounded by topology (hosts, resources, services, methods).

A counter is read when asked, not pushed per event.  The object that
sees an event keeps the count of it as its own int (a link its messages
and bytes, a method its calls, a driver its ops) and registers a
*collector* once (:meth:`MetricsRegistry.add_collector`): a callable
yielding ``(name, labels, value)`` per series it keeps.  Every read —
``snapshot``, ``delta``, ``total``, ``series``, ``counter_names``,
``render`` — asks every collector, and samples of one series from
several collectors add up (the catalogs of a sharded MCAT, the zones
sharing a network).  ``inc(name, **labels)`` pushes a count into the
registry itself, for an event no object keeps a count of (a failure, a
rare path).

Histograms are pushed.  ``observe(name, value, **labels)`` resolves the
series per call; a site that observes on every op holds the
:class:`Histogram` itself (:meth:`MetricsRegistry.histogram`), so an
observation is one call.  A histogram nothing was observed into is not
read: holding one is not an observation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]
#: what a collector yields per series: name, labels, value
Sample = Tuple[str, Dict[str, object], float]

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
        i = bisect_left(self.buckets, value)
        # first bound with value <= bound; NaN and anything past a finite
        # last bound (no bound left to index) fall in no bucket
        try:
            if value <= self.buckets[i]:
                self.bucket_counts[i] += 1
        except IndexError:
            pass

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Tally(dict):
    """An owner's counts by label values: ``tally[key]`` is the key's
    record, made by ``make(key)`` the first time the key is used and a
    plain ``dict`` lookup after that."""

    def __init__(self, make: Callable[[tuple], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        record = self[key] = self.make(key)
        return record


class MetricsRegistry:
    """Registry of named counters and histograms with labeled dimensions:
    pushed counters and histograms, and the collectors of the counters
    their owners keep."""

    def __init__(self):
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}
        self._collectors: List[Callable[[], Iterable[Sample]]] = []

    @staticmethod
    def _key(labels: Dict[str, object]) -> LabelKey:
        """The series key of one label set: sorted, values as they
        render — so ``1``, ``True``, ``1.0`` and a str-like enum, which
        compare equal to each other (or to a str), stay apart."""
        return tuple(sorted([(k, str(v)) for k, v in labels.items()]))

    # -- counters -----------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        """Push an increment of counter ``name`` for one label set."""
        try:
            series = self._counters[name]
        except KeyError:
            series = self._counters[name] = {}
        key = self._key(labels) if labels else ()
        try:
            series[key] += value
        except KeyError:
            series[key] = 0 + value     # counters are numbers: True is 1

    def add_collector(self, collector: Callable[[], Iterable[Sample]]
                      ) -> None:
        """Read ``collector()``'s ``(name, labels, value)`` samples at
        every read of the registry, from now on.  A series an owner has
        not counted into yet is one it does not yield."""
        self._collectors.append(collector)

    def _read(self) -> Dict[str, Dict[LabelKey, float]]:
        """Every counter series: the pushed ones plus every collector's
        samples, summed per series."""
        out = {name: dict(series) for name, series in self._counters.items()}
        for collect in self._collectors:
            for name, labels, value in collect():
                series = out.setdefault(name, {})
                key = self._key(labels) if labels else ()
                series[key] = series.get(key, 0) + value
        return out

    def total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        return sum(self._read().get(name, {}).values())

    def series(self, name: str) -> Dict[str, float]:
        """All labeled series of one counter, keyed by rendered labels."""
        return {_label_str(k): v
                for k, v in sorted(self._read().get(name, {}).items())}

    def counter_names(self) -> List[str]:
        return sorted(self._read())

    # -- histograms ---------------------------------------------------------

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram of one label set of ``name``, made on first use,
        for a site that observes into it on every op."""
        series = self._histograms.setdefault(name, {})
        key = self._key(labels) if labels else ()
        try:
            return series[key]
        except KeyError:
            hist = series[key] = Histogram()
            return hist

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one virtual-time observation into histogram ``name``."""
        self.histogram(name, **labels).observe(value)

    def histogram_names(self) -> List[str]:
        return sorted(n for n, series in self._histograms.items()
                      if any(h.count for h in series.values()))

    def histogram_series(self, name: str) -> Dict[str, Histogram]:
        """All labeled histograms of one name, keyed by rendered labels."""
        return {_label_str(k): h
                for k, h in sorted(self._histograms.get(name, {}).items())
                if h.count}

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{labels} -> value`` dict of every counter series,
        plus ``name{labels}:count``/``:sum`` for histograms.  Snapshots
        are plain dicts: diff two with :meth:`delta`."""
        out: Dict[str, float] = {}
        for name, series in self._read().items():
            for key, value in series.items():
                out[name + _label_str(key)] = value
        for name, series in self._histograms.items():
            for key, hist in series.items():
                if hist.count:
                    out[name + _label_str(key) + ":count"] = hist.count
                    out[name + _label_str(key) + ":sum"] = hist.sum
        return out

    def delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """What changed since ``before`` (a prior :meth:`snapshot`);
        unchanged series are omitted."""
        now = self.snapshot()
        return {k: v - before.get(k, 0) for k, v in now.items()
                if v != before.get(k, 0)}

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
