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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: histogram bucket upper bounds, virtual seconds (log-spaced; +inf last)
DEFAULT_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0, float("inf"))


#: label-key memo entries kept per registry before it starts over
_KEY_MEMO_CAP = 4096


def _label_str(key: LabelKey) -> str:
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}" if key else ""


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


class MetricsRegistry:
    """Registry of named counters and histograms with labeled dimensions."""

    def __init__(self):
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}
        # raw tuple(labels.items()) -> sorted, stringified key
        self._keys: Dict[tuple, LabelKey] = {}

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        # Only all-str label sets are memoised: 1, True, 1.0 and str-like
        # enums compare equal to each other (or to a str) yet render
        # differently, so they are stringified every time.
        for value in labels.values():
            if type(value) is not str:
                return tuple(sorted((k, str(v)) for k, v in labels.items()))
        raw = tuple(labels.items())
        try:
            return self._keys[raw]
        except KeyError:
            if len(self._keys) >= _KEY_MEMO_CAP:
                self._keys.clear()
            key = self._keys[raw] = tuple(sorted(raw))
            return key

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
        return sorted(self._counters)

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

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        return self._histograms.get(name, {}).get(self._key(labels))

    def histogram_names(self) -> List[str]:
        return sorted(self._histograms)

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
            lines.append(f"{key} {value:g}")
        return "\n".join(lines)

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()
        self._keys.clear()
