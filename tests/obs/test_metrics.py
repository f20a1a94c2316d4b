"""Unit tests for the labeled counter/histogram metrics registry."""

import math
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import metrics
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounters:
    def test_inc_and_get(self, reg):
        reg.inc("net.messages", src="a", dst="b")
        reg.inc("net.messages", src="a", dst="b")
        reg.inc("net.messages", src="b", dst="a")
        assert reg.get("net.messages", src="a", dst="b") == 2
        assert reg.get("net.messages", src="b", dst="a") == 1

    def test_label_order_irrelevant(self, reg):
        reg.inc("m", src="a", dst="b")
        assert reg.get("m", dst="b", src="a") == 1

    def test_unknown_series_is_zero(self, reg):
        assert reg.get("nope", x="y") == 0
        assert reg.total("nope") == 0

    def test_total_sums_label_sets(self, reg):
        reg.inc("m", k="a")
        reg.inc("m", 5, k="b")
        assert reg.total("m") == 6

    def test_series_keys_render_labels(self, reg):
        reg.inc("m", op="read", driver="fs")
        assert reg.series("m") == {"{driver=fs,op=read}": 1}

    def test_counter_names_sorted(self, reg):
        reg.inc("b")
        reg.inc("a")
        assert reg.counter_names() == ["a", "b"]


class TestHistograms:
    def test_observe_statistics(self, reg):
        for v in (0.1, 0.2, 0.3):
            reg.observe("rpc.call_s", v, method="get")
        h = reg.histogram("rpc.call_s", method="get")
        assert h.count == 3
        assert h.mean == pytest.approx(0.2)
        assert h.min == pytest.approx(0.1)
        assert h.max == pytest.approx(0.3)

    def test_bucket_counts(self, reg):
        reg.observe("h", 0.005)
        reg.observe("h", 0.005)
        reg.observe("h", 50.0)
        h = reg.histogram("h")
        assert sum(h.bucket_counts) == 3

    def test_histogram_series(self, reg):
        reg.observe("h", 1.0, method="a")
        reg.observe("h", 2.0, method="b")
        series = reg.histogram_series("h")
        assert set(series) == {"{method=a}", "{method=b}"}


class TestSnapshots:
    def test_snapshot_includes_histogram_count_sum(self, reg):
        reg.inc("c", host="h0")
        reg.observe("h", 0.5)
        snap = reg.snapshot()
        assert snap["c{host=h0}"] == 1
        assert snap["h:count"] == 1
        assert snap["h:sum"] == 0.5

    def test_delta_reports_only_changes(self, reg):
        reg.inc("stable")
        reg.inc("moving")
        before = reg.snapshot()
        reg.inc("moving", 4)
        reg.inc("fresh")
        assert reg.delta(before) == {"moving": 4, "fresh": 1}

    def test_sum_matching_crosses_label_sets(self, reg):
        reg.inc("net.messages", src="a")
        reg.inc("net.messages", 2, src="b")
        reg.inc("net.messages_other")
        snap = reg.snapshot()
        assert MetricsRegistry.sum_matching(snap, "net.messages") == 3


class TestRender:
    def test_render_lines(self, reg):
        reg.inc("rpc.calls", method="get")
        reg.inc("net.bytes", 10)
        text = reg.render()
        assert "rpc.calls{method=get} 1" in text
        assert "net.bytes 10" in text

    def test_render_prefix_filter(self, reg):
        reg.inc("rpc.calls")
        reg.inc("net.bytes")
        assert "net.bytes" not in reg.render(prefixes=["rpc"])

    def test_clear(self, reg):
        reg.inc("m")
        reg.observe("h", 1.0)
        reg.clear()
        assert reg.snapshot() == {}


# -- equivalence with the implementations these replaced ---------------------
# The oracles are the former code, kept here so the memo and the bisect
# can never drift from it.

def model_key(labels):
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class ModelHistogram:
    def __init__(self, buckets=DEFAULT_BUCKETS):
        self.buckets = buckets
        self.count, self.sum = 0, 0.0
        self.min, self.max = float("inf"), 0.0
        self.bucket_counts = [0] * len(buckets)

    def observe(self, value):
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break


class Tier(str, Enum):
    """Equal to (and hashed like) "gold", but str() says Tier.GOLD."""
    GOLD = "gold"


label_values = st.one_of(
    st.sampled_from([1, True, 1.0, "1", "True", "1.0", 0, False, "",
                     None, Tier.GOLD, "gold"]),
    st.text(max_size=4), st.integers(-3, 3))
label_sets = st.dictionaries(st.sampled_from(["n", "op", "host"]),
                             label_values, max_size=3)


class TestKeyMemo:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(label_sets, max_size=12))
    def test_key_matches_model_whatever_was_memoised_before(self, calls):
        reg = MetricsRegistry()
        for labels in calls:
            assert reg._key(labels) == model_key(labels)
            backwards = dict(reversed(list(labels.items())))
            assert reg._key(backwards) == model_key(labels)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(label_sets, st.integers(1, 5)), max_size=12))
    def test_counters_match_a_model_registry(self, calls):
        reg, model = MetricsRegistry(), {}
        for labels, amount in calls:
            reg.inc("m", amount, **labels)
            key = model_key(labels)
            model[key] = model.get(key, 0) + amount
        for labels, _ in calls:
            assert reg.get("m", **labels) == model[model_key(labels)]
        assert reg.total("m") == sum(model.values())

    def test_equal_but_differently_rendered_values_stay_apart(self, reg):
        for value in (1, True, 1.0, "1"):
            reg.inc("m", n=value)
        assert reg.series("m") == {"{n=1}": 2, "{n=1.0}": 1, "{n=True}": 1}
        reg.inc("t", tier="gold")
        reg.inc("t", tier=Tier.GOLD)
        assert reg.series("t") == {"{tier=gold}": 1, "{tier=Tier.GOLD}": 1}

    def test_kwarg_order_is_irrelevant_with_a_warm_memo(self, reg):
        for _ in range(2):
            reg.inc("m", src="a", dst="b")
            reg.inc("m", dst="b", src="a")
        assert reg.series("m") == {"{dst=b,src=a}": 4}

    def test_memo_is_capped(self, reg, monkeypatch):
        monkeypatch.setattr(metrics, "_KEY_MEMO_CAP", 8)
        for i in range(50):
            reg.inc("m", host=f"h{i}")
            assert len(reg._keys) <= 8
        assert reg.total("m") == 50
        assert reg.get("m", host="h0") == 1


class TestHistogramMatchesModel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(DEFAULT_BUCKETS), st.integers(-2, 200)), max_size=30),
        st.sampled_from([DEFAULT_BUCKETS, (0.5, 1.0, 2.0), (1.0,)]))
    def test_observe(self, values, buckets):
        hist, model = Histogram(buckets=buckets), ModelHistogram(buckets)
        for value in values:
            hist.observe(value)
            model.observe(value)
        assert hist.bucket_counts == model.bucket_counts
        assert hist.count == model.count
        assert (hist.min, hist.max) == (model.min, model.max)
        assert hist.sum == model.sum or (math.isnan(hist.sum)
                                         and math.isnan(model.sum))
