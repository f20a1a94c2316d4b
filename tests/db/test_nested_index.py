"""A hash index over a pair of columns (``create_index((first, second))``,
:class:`~repro.db.index.NestedIndex`): after any sequence of mutations —
``insert``, ``insert_many``, ``update_row`` moving a row to another
first or second value, ``delete_row``, ``restore_rows``, and the same
log replayed onto a twin by ``apply_entry`` — it answers by first value
(``lookup_eq``) and by pairs (``lookup_pairs``) exactly as reading every
row does, and charges exactly the rows it returns."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.engine import Database
from repro.db.index import NestedIndex
from repro.db.table import Column, Table
from repro.errors import DatabaseError

COLUMNS = [Column("tid", "INT", nullable=False),
           Column("attr", "TEXT", nullable=False), Column("value", "TEXT")]
KEY = ("tid", "attr")
TIDS = [0, 1, 2, 3]
ATTRS = ["a", "b", "c"]
ROW = st.fixed_dictionaries({"tid": st.sampled_from(TIDS),
                             "attr": st.sampled_from(ATTRS),
                             "value": st.sampled_from([None, "x", "y"])})


def scanned(t: Table, tids, attrs):
    """The rids a lookup has to return, read off every live row."""
    return [rid for rid, row in enumerate(t._rows) if row is not None
            and row[0] in tids and row[1] in attrs]


def charged(t: Table, read):
    before = t.scan_counter.total
    got = read()
    return got, t.scan_counter.total - before


def check(t: Table, draw) -> None:
    idx = t._hash_indexes[KEY]
    assert all(idx._map.values())               # no inner map is empty
    for tid in TIDS + [9]:
        want = scanned(t, {tid}, ATTRS)
        assert charged(t, lambda: t.lookup_eq("tid", tid)) == \
            (want, len(want))                   # rid order, as a scan
    tids = draw(st.lists(st.sampled_from(TIDS + [9]), unique=True))
    attrs = draw(st.sets(st.sampled_from(ATTRS + ["z"])))
    got, rows = charged(t, lambda: t.lookup_pairs(KEY, tids, attrs))
    assert sorted(got) == scanned(t, set(tids), attrs) and rows == len(got)
    for tid in tids:                            # the firsts in order given
        mine = sorted(rid for rid in got if t._rows[rid][0] == tid)
        assert sorted(got[:len(mine)]) == mine
        got = got[len(mine):]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_answers_as_a_scan_after_any_mutations(data):
    draw = data.draw
    log = []
    source_db, twin_db = Database("source"), Database("twin")
    source = source_db.create_table("t", COLUMNS)
    twin = twin_db.create_table("t", COLUMNS)
    source_db.watch(lambda _table, *entry: log.append(entry))
    early = draw(st.booleans())          # built before any row, or backfilled
    for t in (source, twin) if early else ():
        t.create_index(KEY)
    steps = draw(st.lists(st.sampled_from(
        ["insert", "insert_many", "update", "update", "delete", "restore"]),
        max_size=25))
    for step in steps:
        live = [rid for rid, row in enumerate(source._rows)
                if row is not None]
        if step == "insert":
            source.insert(draw(ROW))
        elif step == "insert_many":
            source.insert_many(draw(st.lists(ROW, max_size=6)))
        elif step == "update" and live:
            source.update_row(draw(st.sampled_from(live)), draw(
                st.fixed_dictionaries({}, optional={
                    "tid": st.sampled_from(TIDS),
                    "attr": st.sampled_from(ATTRS),
                    "value": st.just("u")})))
        elif step == "delete" and live:
            source.delete_row(draw(st.sampled_from(live)))
        elif step == "restore":
            source.restore_rows(source.snapshot_rows())
        if not early and KEY not in source._hash_indexes:
            for t in (source, twin):
                t.create_index(KEY)
        while log:
            twin.apply_entry(*log.pop(0))
        check(source, draw)
        check(twin, draw)


def test_without_the_index_the_same_rows_cost_a_scan_per_first_value():
    t = Table("t", COLUMNS)
    t.create_index(KEY)
    t.insert_many([{"tid": tid, "attr": attr} for tid in TIDS
                   for attr in ATTRS])
    indexed, rows = charged(t, lambda: t.lookup_pairs(KEY, [2, 0], {"b"}))
    assert indexed == [7, 1] and rows == 2
    t.drop_index(KEY)
    assert t.indexed_columns() == []
    assert charged(t, lambda: t.lookup_pairs(KEY, [2, 0], {"b"})) == \
        ([7, 1], 2 * len(t))
    assert charged(t, lambda: t.lookup_eq("tid", 1)) == ([3, 4, 5], len(t))


def test_a_pair_index_is_neither_unique_nor_sorted():
    t = Table("t", COLUMNS)
    for flag in ({"unique": True}, {"sorted_index": True}):
        with pytest.raises(DatabaseError, match="neither unique nor sorted"):
            t.create_index(KEY, **flag)
    with pytest.raises(DatabaseError, match="no column"):
        t.create_index(("tid", "nope"))
    t.create_index(KEY)
    assert t.indexed_columns() == [KEY]
    assert type(t._hash_indexes[KEY]) is NestedIndex


def test_a_first_value_is_filed_once():
    idx = NestedIndex()
    for rid, pair in enumerate([(1, "a"), (1, "b"), (1, "a"), (2, "a")]):
        idx.add(pair, rid)
    assert idx._map == {1: {"a": [0, 2], "b": 1}, 2: {"a": 3}}
    assert idx.first(1) == [0, 1, 2] and idx.first(7) == []
    for rid, pair in enumerate([(1, "a"), (1, "b"), (1, "a")]):
        idx.remove(pair, rid)
    idx.remove((5, "a"), 9)                      # nothing filed: a no-op
    assert idx._map == {2: {"a": 3}}


def test_lookup_eq_of_a_pair_answers_its_one_key_with_or_without_the_index():
    """``lookup_eq`` accepts a pair of columns as ``lookup_range``,
    ``count_range``, ``create_index`` and ``drop_index`` do: the rows
    whose pair is ``value``, ascending, charged as those rows through the
    index and as a scan of the first value's rows without it."""
    t = Table("t", COLUMNS)
    t.insert_many([{"tid": tid, "attr": attr} for tid in TIDS
                   for attr in ATTRS] + [{"tid": 2, "attr": "b"}])
    unindexed = charged(t, lambda: t.lookup_eq(KEY, (2, "b")))
    assert unindexed == ([7, 12], len(t))
    t.create_index(KEY)
    assert charged(t, lambda: t.lookup_eq(KEY, (2, "b"))) == ([7, 12], 2)
    assert charged(t, lambda: t.lookup_eq(KEY, (9, "b"))) == ([], 0)
    assert t.lookup_eq(KEY, (2, "b")) == scanned(t, {2}, {"b"})
