"""Unit tests for the labeled counter/histogram metrics registry."""

import math
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry, \
    Tally, format_value
from tests.probes import counter, histogram, sum_matching


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounters:
    def test_inc_and_get(self, reg):
        reg.inc("net.messages", src="a", dst="b")
        reg.inc("net.messages", src="a", dst="b")
        reg.inc("net.messages", src="b", dst="a")
        assert counter(reg, "net.messages", src="a", dst="b") == 2
        assert counter(reg, "net.messages", src="b", dst="a") == 1

    def test_label_order_irrelevant(self, reg):
        reg.inc("m", src="a", dst="b")
        assert counter(reg, "m", dst="b", src="a") == 1

    def test_unknown_series_is_zero(self, reg):
        assert counter(reg, "nope", x="y") == 0
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
        h = histogram(reg, "rpc.call_s", method="get")
        assert h.count == 3
        assert h.mean == pytest.approx(0.2)
        assert h.min == pytest.approx(0.1)
        assert h.max == pytest.approx(0.3)

    def test_bucket_counts(self, reg):
        reg.observe("h", 0.005)
        reg.observe("h", 0.005)
        reg.observe("h", 50.0)
        h = histogram(reg, "h")
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
        assert sum_matching(snap, "net.messages") == 3


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

    def test_render_keeps_every_digit(self, reg):
        # ``:g`` printed these as 6.29214e+06 and 4.1943e+06
        reg.inc("net.bytes", 6_292_135, src="a", dst="b")
        reg.inc("net.bytes", 4 * 1024 * 1024, src="b", dst="a")
        reg.observe("rpc.call_s", 0.1 + 0.2)
        text = reg.render()
        assert "net.bytes{dst=b,src=a} 6292135" in text
        assert "net.bytes{dst=a,src=b} 4194304" in text
        assert "rpc.call_s:sum 0.30000000000000004" in text
        assert "e+" not in text

    @pytest.mark.parametrize("value, text", [
        (0, "0"), (1, "1"), (6_292_135, "6292135"),
        (10 ** 20, "100000000000000000000"), (4194304.0, "4194304"),
        (-3.0, "-3"), (0.5, "0.5"), (0.1 + 0.2, "0.30000000000000004"),
        (1e-7, "1e-07"), (1e22, "1e+22"), (float("inf"), "inf")])
    def test_format_value(self, value, text):
        assert format_value(value) == text

    @given(st.floats(allow_nan=False))
    def test_format_value_reads_back(self, value):
        assert float(format_value(value)) == value


# -- equivalence with the implementations these replaced ---------------------
# The oracles are the former code, kept here so the key rule and the
# bisect can never drift from it.  (The class is still called TestKeyMemo:
# the per-registry key memo it was written against is gone — hot sites
# hold their histograms and keep their own counts instead — and these
# are the properties any replacement, memoised or not, has to keep.)

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
            assert counter(reg, "m", **labels) == model[model_key(labels)]
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


class TestCollectors:
    """Counters an owner keeps, read when the registry is read."""

    def test_samples_of_one_series_add_up(self, reg):
        counts = {"a": 2, "b": 3}
        reg.add_collector(lambda: [("net.messages", {"src": "a", "dst": "b"},
                                    counts["a"])])
        reg.add_collector(lambda: [("net.messages", {"dst": "b", "src": "a"},
                                    counts["b"])])
        reg.inc("net.messages", dst="b", src="a")
        assert reg.series("net.messages") == {"{dst=b,src=a}": 6}
        counts["a"] += 4                   # read when asked, not pushed
        assert reg.snapshot() == {"net.messages{dst=b,src=a}": 10}
        assert isinstance(reg.total("net.messages"), int)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(label_sets, st.integers(1, 5), st.booleans()),
                    max_size=12))
    def test_collectors_and_inc_match_a_model_registry(self, calls):
        reg, model, kept = MetricsRegistry(), {}, []
        reg.add_collector(lambda: kept)
        for labels, amount, collected in calls:
            if collected:
                kept.append(("m", dict(reversed(list(labels.items()))),
                             amount))
            else:
                reg.inc("m", amount, **labels)
            key = model_key(labels)
            model[key] = model.get(key, 0) + amount
        for labels, _amount, _collected in calls:
            assert counter(reg, "m", **labels) == model[model_key(labels)]
        assert reg.total("m") == sum(model.values())


class TestBoundInstruments:
    """What a handle a hot site holds must do that a naive one would not:
    the handle is the :class:`Histogram` ``histogram()`` returns, or an
    owner's :class:`Tally` record of counts and such histograms."""

    def test_binding_is_not_an_observation(self, reg):
        reg.histogram("net.transfer_s", src="a", dst="b")
        family = Tally(lambda key: [0, reg.histogram("storage.op_s",
                                                     op=key)])
        family["read"]
        reg.add_collector(lambda: ())
        assert reg.counter_names() == reg.histogram_names() == []
        assert reg.snapshot() == {} and reg.render() == ""
        assert reg.series("net.messages") == {}
        assert reg.histogram_series("net.transfer_s") == {}
        assert histogram(reg, "net.transfer_s", src="a", dst="b") is None
        assert reg.total("net.messages") == 0
        assert reg.delta({}) == {}

    def test_handle_counts_into_the_series_inc_counts_into(self, reg):
        seconds = reg.histogram("net.transfer_s", dst="b", src="a")
        seconds.observe(0.25)
        reg.observe("net.transfer_s", 0.75, src="a", dst="b")
        seconds.observe(1.0)
        hist = histogram(reg, "net.transfer_s", src="a", dst="b")
        assert hist is seconds and (hist.count, hist.sum) == (3, 2.0)
        assert reg.histogram("net.transfer_s", src="a", dst="b") is seconds
        assert reg.histogram_names() == ["net.transfer_s"]

    def test_unlabelled_handle(self, reg):
        seconds = reg.histogram("mcat.query_s")
        seconds.observe(2.0)
        reg.observe("mcat.query_s", 1.0)
        assert reg.snapshot() == {"mcat.query_s:count": 2,
                                  "mcat.query_s:sum": 3.0}

    def test_equal_but_differently_rendered_labels_stay_apart(self, reg):
        # 1 == True == 1.0 and Tier.GOLD == "gold", hash included: a
        # handle table keyed on the raw values would fold them together
        values = (1, True, 1.0, "1", Tier.GOLD, "gold")
        handles = [reg.histogram("m", n=value) for value in values]
        for handle in handles:
            handle.observe(1.0)
        for value in values:
            reg.observe("m", 1.0, n=value)
        assert {k: h.count for k, h in reg.histogram_series("m").items()} \
            == {"{n=1}": 4, "{n=1.0}": 2, "{n=True}": 2,
                "{n=Tier.GOLD}": 2, "{n=gold}": 2}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(label_sets, st.integers(1, 5), st.booleans()),
                    max_size=12))
    def test_handles_and_inc_match_a_model_registry(self, calls):
        reg, model = MetricsRegistry(), {}
        for labels, amount, bound in calls:
            if bound:
                backwards = dict(reversed(list(labels.items())))
                reg.histogram("m", **backwards).observe(amount)
            else:
                reg.observe("m", amount, **labels)
            key = model_key(labels)
            model[key] = model.get(key, 0) + amount
        for labels, _amount, _bound in calls:
            assert histogram(reg, "m", **labels).sum \
                == model[model_key(labels)]
        assert sum(h.count for h in reg.histogram_series("m").values()) \
            == len(calls)

    def test_family_binds_each_combination_once(self, reg):
        made = []

        def make(key):
            made.append(key)
            host, _service = key
            return [0, reg.histogram("srb.queue.depth", host=host)]

        family = Tally(make)
        admitted = family["sdsc", "srb"]
        assert family["sdsc", "srb"] is admitted            # the same record
        admitted[0] += 1
        admitted[1].observe(3)
        family["sdsc", "mcat"][1].observe(1)
        family["caltech", "srb"][0] += 2
        assert made == [("sdsc", "srb"), ("sdsc", "mcat"), ("caltech", "srb")]
        assert family["sdsc", "mcat"][1] is admitted[1]     # labelled by host
        reg.add_collector(lambda: [
            ("srb.admission.admitted", {"host": h, "service": s}, n)
            for (h, s), (n, _depth) in family.items() if n])
        assert reg.snapshot() == {
            "srb.admission.admitted{host=sdsc,service=srb}": 1,
            "srb.admission.admitted{host=caltech,service=srb}": 2,
            "srb.queue.depth{host=sdsc}:count": 2,
            "srb.queue.depth{host=sdsc}:sum": 4.0}


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
