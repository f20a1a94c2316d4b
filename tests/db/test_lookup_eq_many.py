"""``Table.lookup_eq_many``: one call for the rids of many values, the
same answer and the same charge as one ``lookup_eq`` per value."""

from hypothesis import given, settings, strategies as st

from repro.db.engine import Database
from repro.db.table import Column, Table

COLUMNS = [Column("id", "INT", nullable=False), Column("tag", "TEXT"),
           Column("blob", "BLOB")]


def make(db=None, indexed=True):
    t = Table("t", COLUMNS, primary_key="id") if db is None \
        else db.create_table("t", COLUMNS, primary_key="id")
    if indexed:
        t.create_index("tag")
        t.create_index("blob")
    return t


def charged(t, lookup):
    """``lookup``'s answer and what it charged the table and its
    counter."""
    total0 = t.scan_counter.total
    got = lookup()
    return got, t.scan_counter.total - total0


def one_by_one(t, column, values):
    """What ``lookup_eq`` answers value by value, and its charges
    summed."""
    return charged(t, lambda: [rid for value in values
                               for rid in t.lookup_eq(column, value)])


tags = st.sampled_from(["a", "b", "c", None])
mutations = st.lists(st.one_of(
    st.tuples(st.just("insert"), tags),
    st.tuples(st.just("update"), st.integers(0, 30), tags),
    st.tuples(st.just("delete"), st.integers(0, 30))), max_size=30)


def apply(t, ops):
    for n, op in enumerate(ops):
        live = [rid for rid, row in enumerate(t._rows) if row is not None]
        if op[0] == "insert":
            t.insert({"id": n, "tag": op[1]})
        elif live and op[0] == "update":
            t.update_row(live[op[1] % len(live)], {"tag": op[2]})
        elif live:
            t.delete_row(live[op[1] % len(live)])


@settings(max_examples=150, deadline=None)
@given(ops=mutations, values=st.lists(st.sampled_from(["a", "b", "z", None]),
                                      max_size=6),
       indexed=st.booleans())
def test_same_rids_and_charges_as_one_lookup_per_value(ops, values, indexed):
    t = make(indexed=indexed)
    apply(t, ops)
    assert charged(t, lambda: t.lookup_eq_many("tag", values)) \
        == one_by_one(t, "tag", values)


def test_each_values_rids_ascending_in_the_order_the_values_came():
    t = make()
    for i, tag in enumerate("abab"):
        t.insert({"id": i, "tag": tag})
    t.update_row(0, {"tag": "b"})               # an old rid joins late
    assert t.lookup_eq("tag", "b") == [0, 1, 3]
    assert t.lookup_eq_many("tag", ["b", "a", "z", "b"]) \
        == [0, 1, 3, 2, 0, 1, 3]


def test_an_unindexed_column_is_one_charged_scan_per_value():
    t = make(indexed=False)
    for i, tag in enumerate("abc"):
        t.insert({"id": i, "tag": tag})
    got, total = charged(t, lambda: t.lookup_eq_many("tag", ["c", "a"]))
    assert (got, total) == ([2, 0], 6)


def test_bytearray_and_unhashable_values_behave_like_hash_index_get():
    t = make()
    t.insert({"id": 0, "blob": b"ab"})
    t.insert({"id": 1, "blob": bytearray(b"ab")})   # filed as bytes
    t.insert({"id": 2, "blob": b"zz"})
    idx = t._hash_indexes["blob"]
    values = [bytearray(b"ab"), [1, 2], b"zz", bytearray(b"no")]
    expected = [rid for value in values for rid in idx.get(value)]
    assert expected == [0, 1, 2]
    assert charged(t, lambda: t.lookup_eq_many("blob", values)) \
        == (expected, 3) == one_by_one(t, "blob", values)


def test_a_replica_answers_as_its_source():
    """Rebuilt by replaying the watch log (``apply_entry``) or by
    ``restore_rows``, a copy answers every value as the source does."""
    log = []
    source_db = Database("source")
    source = make(source_db)
    source_db.watch(lambda _table, *entry: log.append(entry))
    twin = make(Database("twin"))
    apply(source, [("insert", "a"), ("insert", "b"), ("insert", "a"),
                   ("update", 0, "b"), ("delete", 1), ("insert", "a")])
    for entry in log:
        twin.apply_entry(*entry)
    restored = make()
    restored.restore_rows(source.snapshot_rows())
    values = ["a", "b", "c", "a"]
    answer = charged(source, lambda: source.lookup_eq_many("tag", values))
    assert answer[0] == [2, 3, 0, 2, 3]
    for copy in (twin, restored):
        assert charged(copy, lambda: copy.lookup_eq_many("tag", values)) \
            == answer
