"""Unit + property tests for index structures."""

import pytest
from hypothesis import given, strategies as st

from repro.db.index import HashIndex, SortedIndex
from repro.errors import DatabaseError


class TestHashIndex:
    def test_add_get(self):
        idx = HashIndex()
        idx.add("x", 1)
        idx.add("x", 2)
        assert idx.get("x") == [1, 2]

    def test_remove(self):
        idx = HashIndex()
        idx.add("x", 1)
        idx.remove("x", 1)
        assert idx.get("x") == []

    def test_remove_missing_is_noop(self):
        HashIndex().remove("x", 1)

    def test_unique_violation(self):
        idx = HashIndex(unique=True)
        idx.add("x", 1)
        with pytest.raises(DatabaseError):
            idx.add("x", 2)

    def test_null_values_indexable(self):
        idx = HashIndex()
        idx.add(None, 5)
        assert idx.get(None) == [5]

    def test_bytearray_coerced(self):
        idx = HashIndex()
        idx.add(bytearray(b"ab"), 1)
        assert idx.get(b"ab") == [1]

    def test_bytearray_probe_finds_bytes_key(self):
        idx = HashIndex()
        idx.add(b"ab", 1)
        assert idx.get(bytearray(b"ab")) == [1]
        assert idx.get(bytearray(b"zz")) == []

    def test_unhashable_probe_finds_nothing(self):
        idx = HashIndex()
        idx.add("x", 1)
        assert idx.get(["x"]) == []
        assert idx.get({"x": 1}) == []

    def test_a_value_filed_once_is_its_bare_rid(self):
        idx = HashIndex()
        idx.add("x", 1)
        assert idx._map == {"x": 1}
        idx.add("x", 2)
        assert idx._map == {"x": [1, 2]}
        idx.remove("x", 2)
        assert idx._map == {"x": [1]}          # a list stays a list
        idx.remove("x", 7)
        idx.remove("x", 1)
        assert idx._map == {}

    def test_removing_another_rid_keeps_an_int_bucket(self):
        idx = HashIndex()
        idx.add("x", 1)
        idx.remove("x", 2)
        assert idx.get("x") == [1] and idx._map == {"x": 1}
        idx.remove("x", 1)
        assert idx.get("x") == [] and idx._map == {}

    def test_get_returns_a_copy(self):
        idx = HashIndex()
        idx.add("x", 1)
        idx.get("x").append(2)
        assert idx.get("x") == [1]
        idx.add("x", 3)
        idx.get("x").append(4)
        assert idx.get("x") == [1, 3]

    def test_rids_come_back_ascending_whatever_order_they_arrive(self):
        idx = HashIndex()
        for rid in (7, 3, 9, 1, 5):
            idx.add("x", rid)
        assert idx._map == {"x": [1, 3, 5, 7, 9]}
        idx.remove("x", 4)                     # not there: nothing moves
        idx.remove("x", 5)
        idx.add("x", 4)
        assert idx.get("x") == [1, 3, 4, 7, 9]

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 20),
                              st.booleans()), max_size=60))
    def test_buckets_are_ascending_lists_of_the_model(self, ops):
        """Random adds and removes: each value's rids are the model's,
        ascending, and a bucket is a bare rid or a non-empty, strictly
        ascending list."""
        idx, model = HashIndex(), {}
        for value, rid, is_add in ops:
            rids = model.setdefault(value, set())
            if is_add and rid not in rids:
                idx.add(value, rid)
                rids.add(rid)
            elif not is_add:
                idx.remove(value, rid)
                rids.discard(rid)
        for value, rids in model.items():
            assert idx.get(value) == sorted(rids)
        for bucket in idx._map.values():
            assert type(bucket) is int or (
                type(bucket) is list and bucket
                and bucket == sorted(set(bucket)))
        assert sum(len(idx.get(value)) for value in idx._map) \
            == sum(map(len, model.values()))


class TestSortedIndex:
    def test_range_inclusive(self):
        idx = SortedIndex()
        for rid, v in enumerate([10, 20, 30]):
            idx.add(v, rid)
        assert sorted(idx.range(10, 20)) == [0, 1]

    def test_range_exclusive(self):
        idx = SortedIndex()
        for rid, v in enumerate([10, 20, 30]):
            idx.add(v, rid)
        assert idx.range(10, 30, lo_incl=False, hi_incl=False) == [1]

    def test_open_bounds(self):
        idx = SortedIndex()
        for rid, v in enumerate([1, 2, 3]):
            idx.add(v, rid)
        assert sorted(idx.range(lo=2)) == [1, 2]
        assert sorted(idx.range(hi=2)) == [0, 1]
        assert sorted(idx.range()) == [0, 1, 2]

    def test_duplicates(self):
        idx = SortedIndex()
        idx.add(5, 1); idx.add(5, 2)
        assert sorted(idx.range(5, 5)) == [1, 2]

    def test_remove(self):
        idx = SortedIndex()
        idx.add(5, 1); idx.add(5, 2)
        idx.remove(5, 1)
        assert idx.range(5, 5) == [2]

    def test_len_follows_add_and_remove(self):
        idx = SortedIndex()
        idx.add(5, 1); idx.add(6, 2); idx.add(None, 3)
        idx.remove(5, 1); idx.remove(7, 9)
        assert idx.range() == [2]

    def test_nulls_ignored(self):
        idx = SortedIndex()
        idx.add(None, 1)
        assert idx.range() == []

    def test_mixed_types_do_not_crash(self):
        idx = SortedIndex()
        idx.add(1, 0)
        idx.add("a", 1)
        # type-segregated: numeric range only returns numerics
        assert idx.range(0, 5) == [0]

    @given(st.lists(st.integers(-100, 100), max_size=50))
    def test_range_matches_bruteforce(self, values):
        idx = SortedIndex()
        for rid, v in enumerate(values):
            idx.add(v, rid)
        lo, hi = -10, 10
        expected = sorted(r for r, v in enumerate(values) if lo <= v <= hi)
        assert sorted(idx.range(lo, hi)) == expected

    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=40))
    def test_add_remove_consistency(self, ops):
        """Random add/remove sequences keep the index equal to a model."""
        idx = SortedIndex()
        model = set()
        for i, (value, is_add) in enumerate(ops):
            if is_add:
                idx.add(value, i)
                model.add((value, i))
            else:
                for (v, rid) in sorted(model):
                    if v == value:
                        idx.remove(v, rid)
                        model.discard((v, rid))
                        break
        assert sorted(idx.range()) == sorted(r for _, r in model)
