"""Reads of one counter, histogram or span total, and of a span tree as
a flat list, for assertions.

The grid itself reads its metrics as a whole (``snapshot``, ``series``,
``render``) and its spans as a tree (``render``, ``breakdown``); a test
asks for one value, or compares a tree with a recording.
"""

from repro.obs.metrics import MetricsRegistry, _label_str


def counter(metrics, name, **labels):
    """Value of one labeled series of counter ``name`` (0 if never
    incremented)."""
    return metrics.series(name).get(
        _label_str(MetricsRegistry._key(labels)), 0)


def histogram(metrics, name, **labels):
    """One labeled series of histogram ``name``, or None."""
    return metrics.histogram_series(name).get(
        _label_str(MetricsRegistry._key(labels)))


def sum_matching(snap, name):
    """Sum of every series of counter ``name`` in a snapshot or delta."""
    return sum(v for k, v in snap.items()
               if k == name or k.startswith(name + "{"))


def span_total(span, key):
    """Sum of counter ``key`` over a span and its whole subtree."""
    return sum(s.counters.get(key, 0) for s in span.walk())


def span_events(span, depth=0):
    """A span tree, depth first, one dict per span: its name, ``depth``
    (0 at ``span``), attrs, counters and error."""
    yield {"name": span.name, "depth": depth, "attrs": dict(span.attrs),
           "counters": dict(span.counters), "error": span.error}
    for child in span.children:
        yield from span_events(child, depth + 1)
