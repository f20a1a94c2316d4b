"""``Table.insert_many`` against its oracle, one ``Table.insert`` per row.

A batch that every row-by-row insert accepts must leave the heap, every
index — its keys in the same order, each bucket the same — and the
observer's events exactly as those inserts do; a batch that one of them
refuses must raise the error the first refusal raised and leave no trace.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.table import Column, Table
from repro.errors import DatabaseError
from tests.db.test_table import BY_TYPE, COLUMN_NAMES, ANY_VALUE, NAN, \
    assert_bucket_shapes, outcome, typed

# FLOAT cells may be NaN, which no sorted or pair index may file
VALUES = dict(BY_TYPE, FLOAT=st.one_of(BY_TYPE["FLOAT"], st.just(NAN)))


@st.composite
def tables(draw):
    """A schema, its indexes (hash, unique, sorted, pair) and the rows
    already in it, as arguments for :func:`build`."""
    width = draw(st.integers(1, 4))
    columns = [Column(name, draw(st.sampled_from(sorted(VALUES))),
                      nullable=draw(st.booleans()))
               for name in COLUMN_NAMES[:width]]
    names = [c.name for c in columns]
    pk = draw(st.one_of(st.none(), st.sampled_from(names)))
    indexes = draw(st.lists(st.tuples(st.sampled_from(names), st.booleans(),
                                      st.booleans()), max_size=3))
    pairs = draw(st.lists(st.permutations(names).map(lambda p: tuple(p[:2])),
                          max_size=2)) if width > 1 else []
    existing = draw(st.lists(row_values(columns), max_size=8))
    return columns, pk, indexes, pairs, existing


@st.composite
def row_values(draw, columns):
    """Mostly a valid row; sometimes a wrong type, a NULL, a missing or an
    unknown column."""
    values = {}
    for col in columns:
        kind = draw(st.integers(0, 11))
        if kind == 0:
            continue
        values[col.name] = draw(ANY_VALUE if kind == 1 else VALUES[col.type])
    if draw(st.integers(0, 24)) == 0:
        values["zz"] = draw(ANY_VALUE)
    return values


def build(columns, pk, indexes, pairs, existing):
    t = Table("t", columns, pk)
    for name, unique, ranged in indexes:
        t.create_index(name, unique=unique, sorted_index=ranged)
    for pair in pairs:
        t.create_sorted_index(*pair)
    for values in existing:
        outcome(t.insert, values)
    log = []
    t.observer = lambda *event: log.append(event)
    return t, log


def state(t: Table):
    """The heap, the row count, scan accounting, and every index with its
    keys in order and each bucket as it is stored."""
    return typed((t._rows, len(t), t.scan_counter.total,
                  [(c, list(idx._map.items()))
                   for c, idx in t._hash_indexes.items()],
                  [(str(k), list(s._keys))
                   for k, s in t._sorted_indexes.items()]))


def one_by_one(t: Table, batch):
    """What one ``insert`` per row returns: every rid, or the first
    refusal."""
    rids = []
    for values in batch:
        got = outcome(t.insert, values)
        if got[0] != "ok":
            return got
        rids.append(got[1])
    return ("ok", rids)


class TestAgainstRowByRow:
    @settings(max_examples=300, deadline=None)
    @given(tables(), st.data())
    def test_a_batch_lands_as_one_insert_per_row(self, table_args, data):
        columns = table_args[0]
        batch = data.draw(st.lists(row_values(columns), max_size=10))
        (table, heard), (oracle, oracle_heard) = build(*table_args), \
            build(*table_args)
        before = state(table)
        got = outcome(table.insert_many, batch)
        want = one_by_one(oracle, batch)
        assert typed(got) == typed(want)
        if want[0] == "ok":
            assert state(table) == state(oracle)
            assert typed(heard) == typed(oracle_heard)
        else:                           # all or nothing
            assert state(table) == before
            assert heard == []
        assert_bucket_shapes(table)


def keyed(*indexes, pk=None, columns=None):
    t = Table("t", columns or [Column("k", "TEXT"), Column("n", "FLOAT"),
                               Column("b", "BLOB"), Column("i", "INT")],
              primary_key=pk)
    for name, unique in indexes:
        t.create_index(name, unique=unique)
    return t


class TestCases:
    def test_equal_keys_share_one_bucket_in_rid_order(self):
        t = keyed(("k", False))
        t.insert({"k": "a"})
        assert t.insert_many([{"k": "a"}, {"k": "b"}, {"k": "a"},
                              {"k": "c"}, {"k": "c"}]) == [1, 2, 3, 4, 5]
        assert t._hash_indexes["k"]._map == {"a": [0, 1, 3], "b": 2,
                                             "c": [4, 5]}

    def test_a_unique_clash_inside_the_batch_refuses_it_all(self):
        t = keyed(("k", True))
        with pytest.raises(DatabaseError,
                           match="unique index violation for value 'a'"):
            t.insert_many([{"k": "a"}, {"k": "b"}, {"k": "a"}])
        assert len(t) == 0 and t._hash_indexes["k"]._map == {}

    def test_a_clash_with_a_stored_row_names_the_primary_key(self):
        t = keyed(pk="i")
        t.insert({"i": 7})
        with pytest.raises(DatabaseError,
                           match="duplicate primary key 7 in table 't'"):
            t.insert_many([{"i": 8}, {"i": 7}])
        assert len(t) == 1

    def test_the_first_refusal_wins_not_the_first_bad_column(self):
        """Row 1 clashes, row 2 has a bad type: one by one, row 1's
        clash is what stops the inserts."""
        t = keyed(("k", True))
        t.insert({"k": "a"})
        with pytest.raises(DatabaseError, match="unique index violation"):
            t.insert_many([{"k": "b"}, {"k": "a"}, {"k": 5}])

    def test_bytes_and_a_bytearray_of_them_are_one_key(self):
        t = keyed(("b", True))
        with pytest.raises(DatabaseError, match=r"value b'x'"):
            t.insert_many([{"b": b"x"}, {"b": bytearray(b"x")}])
        held = bytearray(b"y")
        t.insert_many([{"b": held}, {"b": b"z"}])
        held[:] = b"q"
        assert t.lookup_eq("b", b"y") == [0] and t.row_dict(0)["b"] == b"y"
        assert type(t.row_dict(0)["b"]) is bytes

    def test_an_int_is_stored_as_float_and_a_bool_is_no_int(self):
        t = keyed(("n", False))
        t.create_index("n", sorted_index=True)
        assert t.insert_many([{"n": 2}, {"n": 1.5}]) == [0, 1]
        assert [type(t.value(r, "n")) for r in (0, 1)] == [float, float]
        assert t.lookup_range("n", lo=1.0) == [1, 0]
        with pytest.raises(DatabaseError, match="expects INT, got bool"):
            t.insert_many([{"i": 1}, {"i": True}])
        assert len(t) == 2

    def test_null_and_nan_stay_out_of_sorted_and_pair_indexes(self):
        t = keyed()
        t.create_index("n", sorted_index=True)
        t.create_sorted_index("k", "n")
        t.insert_many([{"k": "a", "n": NAN}, {"k": None, "n": 1.0},
                       {"k": "a", "n": 2.0}, {"k": "b"}])
        assert t._sorted_indexes["n"]._keys == [
            ((1, "float"), 1.0, 1), ((1, "float"), 2.0, 2)]
        assert t._sorted_indexes[("k", "n")]._keys == [("a", 2.0, 2)]

    def test_one_int_per_row_id_shared_by_every_index(self):
        t = keyed(("k", False), ("i", True))
        t.create_index("n", sorted_index=True)
        t.insert_many([{"k": f"k{r}", "i": r, "n": float(r)}
                       for r in range(400)])
        for rid in (3, 257, 399):
            by_k = t._hash_indexes["k"]._map[f"k{rid}"]
            assert by_k is t._hash_indexes["i"]._map[rid]
            assert by_k is t._sorted_indexes["n"]._keys[rid][-1]

    def test_the_observer_hears_each_row_after_the_batch_is_in(self):
        t = keyed(("k", False))
        heard = []
        t.observer = lambda name, kind, rid, values: heard.append(
            (kind, rid, values["k"], len(t)))
        t.insert_many([{"k": "a"}, {"k": "b"}])
        assert heard == [("insert", 0, "a", 2), ("insert", 1, "b", 2)]
        heard.clear()
        with pytest.raises(DatabaseError):
            t.insert_many([{"k": "c"}, {"k": 1}])
        assert heard == []

    def test_an_empty_batch_is_nothing(self):
        t = keyed(("k", True))
        assert t.insert_many([]) == []
        assert len(t) == 0
