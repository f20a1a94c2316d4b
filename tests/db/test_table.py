"""Unit tests for typed tables and indexing, and the row plan's oracle."""

import bisect
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.engine import Database
from repro.db.index import _hashable
from repro.db.table import Column, ScanCounter, Table
from repro.errors import DatabaseError


def make_users() -> Table:
    return Table("users", [Column("id", "INT", nullable=False),
                           Column("name", "TEXT"),
                           Column("age", "INT")], primary_key="id")


class TestSchema:
    def test_bad_type_rejected(self):
        with pytest.raises(DatabaseError):
            Column("x", "VARCHAR")

    def test_bad_column_name_rejected(self):
        with pytest.raises(DatabaseError):
            Column("bad name", "TEXT")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(DatabaseError):
            Table("t", [Column("a"), Column("a")])

    def test_empty_table_rejected(self):
        with pytest.raises(DatabaseError):
            Table("t", [])

    def test_missing_pk_column_rejected(self):
        with pytest.raises(DatabaseError):
            Table("t", [Column("a")], primary_key="b")


class TestTypeChecking:
    def test_type_enforced_on_insert(self):
        t = make_users()
        with pytest.raises(DatabaseError):
            t.insert({"id": 1, "age": "not an int"})

    def test_bool_not_accepted_as_int(self):
        t = make_users()
        with pytest.raises(DatabaseError):
            t.insert({"id": 1, "age": True})

    def test_float_column_coerces_int(self):
        t = Table("m", [Column("v", "FLOAT")])
        rid = t.insert({"v": 3})
        assert t.value(rid, "v") == 3.0
        assert isinstance(t.value(rid, "v"), float)

    @pytest.mark.parametrize("how", ["insert", "insert_many", "update_row"])
    def test_a_blob_is_a_snapshot_of_the_callers_bytearray(self, how):
        """The caller may change its bytearray after the write; the row
        and the index keep the bytes as they were written."""
        t = Table("m", [Column("k", "BLOB"), Column("n", "INT")])
        t.create_index("k")
        held = bytearray(b"abc")
        if how == "insert":
            rid = t.insert({"k": held})
        elif how == "insert_many":
            rid, = t.insert_many([{"k": held}])
        else:
            rid = t.insert({"k": b"old"})
            t.update_row(rid, {"k": held})
        held[:] = b"zzz"
        assert t.row_dict(rid)["k"] == b"abc"
        assert type(t.value(rid, "k")) is bytes
        assert t.lookup_eq("k", b"abc") == [rid]
        assert t.lookup_eq("k", b"zzz") == []

    def test_not_null_enforced(self):
        t = Table("m", [Column("v", "TEXT", nullable=False)])
        with pytest.raises(DatabaseError):
            t.insert({"v": None})

    def test_unknown_column_rejected(self):
        t = make_users()
        with pytest.raises(DatabaseError):
            t.insert({"id": 1, "nope": 2})


class TestPrimaryKey:
    def test_duplicate_pk_rejected(self):
        t = make_users()
        t.insert({"id": 1})
        with pytest.raises(DatabaseError):
            t.insert({"id": 1})

    def test_null_pk_rejected(self):
        t = make_users()
        with pytest.raises(DatabaseError):
            t.insert({"id": None})

    def test_pk_update_to_existing_rejected(self):
        t = make_users()
        r1 = t.insert({"id": 1})
        t.insert({"id": 2})
        with pytest.raises(DatabaseError):
            t.update_row(r1, {"id": 2})

    def test_pk_reusable_after_delete(self):
        t = make_users()
        rid = t.insert({"id": 1})
        t.delete_row(rid)
        t.insert({"id": 1})
        assert len(t) == 1


class TestCrud:
    def test_insert_and_read(self):
        t = make_users()
        rid = t.insert({"id": 1, "name": "ann", "age": 30})
        assert t.row_dict(rid) == {"id": 1, "name": "ann", "age": 30}

    def test_missing_values_become_null(self):
        t = make_users()
        rid = t.insert({"id": 1})
        assert t.value(rid, "name") is None

    def test_update(self):
        t = make_users()
        rid = t.insert({"id": 1, "age": 30})
        t.update_row(rid, {"age": 31})
        assert t.value(rid, "age") == 31

    def test_delete_removes_row(self):
        t = make_users()
        rid = t.insert({"id": 1})
        t.delete_row(rid)
        assert len(t) == 0
        with pytest.raises(DatabaseError):
            t.row_dict(rid)

    def test_scan_skips_tombstones(self):
        t = make_users()
        r1 = t.insert({"id": 1})
        t.insert({"id": 2})
        t.delete_row(r1)
        assert [t.value(r, "id") for r in t.scan()] == [2]


class TestIndexes:
    def test_lookup_eq_with_index(self):
        t = make_users()
        t.create_index("name")
        rid = t.insert({"id": 1, "name": "ann"})
        t.insert({"id": 2, "name": "bob"})
        assert t.lookup_eq("name", "ann") == [rid]

    def test_lookup_eq_without_index_scans(self):
        t = make_users()
        rid = t.insert({"id": 1, "name": "ann"})
        before = t.scan_counter.total
        assert t.lookup_eq("name", "ann") == [rid]
        assert t.scan_counter.total > before

    def test_index_created_after_inserts_backfills(self):
        t = make_users()
        rid = t.insert({"id": 1, "name": "ann"})
        t.create_index("name")
        assert t.lookup_eq("name", "ann") == [rid]

    def test_index_follows_updates(self):
        t = make_users()
        t.create_index("name")
        rid = t.insert({"id": 1, "name": "ann"})
        t.update_row(rid, {"name": "anna"})
        assert t.lookup_eq("name", "ann") == []
        assert t.lookup_eq("name", "anna") == [rid]

    def test_index_follows_deletes(self):
        t = make_users()
        t.create_index("name")
        rid = t.insert({"id": 1, "name": "ann"})
        t.delete_row(rid)
        assert t.lookup_eq("name", "ann") == []

    def test_sorted_index_range(self):
        t = make_users()
        t.create_index("age", sorted_index=True)
        for i, age in enumerate([25, 30, 35, 40], start=1):
            t.insert({"id": i, "age": age})
        rids = t.lookup_range("age", lo=30, hi=35)
        assert sorted(t.value(r, "age") for r in rids) == [30, 35]

    def test_range_exclusive_bounds(self):
        t = make_users()
        t.create_index("age", sorted_index=True)
        for i, age in enumerate([25, 30, 35], start=1):
            t.insert({"id": i, "age": age})
        rids = t.lookup_range("age", lo=25, hi=35, lo_incl=False,
                              hi_incl=False)
        assert [t.value(r, "age") for r in rids] == [30]

    def test_range_without_index(self):
        t = make_users()
        for i, age in enumerate([25, 30, 35], start=1):
            t.insert({"id": i, "age": age})
        rids = t.lookup_range("age", lo=28)
        assert sorted(t.value(r, "age") for r in rids) == [30, 35]

    def test_null_excluded_from_ranges(self):
        t = make_users()
        t.create_index("age", sorted_index=True)
        t.insert({"id": 1, "age": None})
        t.insert({"id": 2, "age": 10})
        assert len(t.lookup_range("age", lo=0)) == 1

    def test_drop_index(self):
        t = make_users()
        t.create_index("name")
        t.drop_index("name")
        assert "name" not in t.indexed_columns()

    def test_cannot_drop_pk_index(self):
        t = make_users()
        with pytest.raises(DatabaseError):
            t.drop_index("id")


def index_state(t: Table):
    """Everything the indexes hold, key order included; a bucket reads as
    its row ids in ascending order (a Table's list bucket already holds
    them so, which :func:`assert_bucket_shapes` checks)."""
    return ({c: [(k, [b] if type(b) is int else sorted(b))
                 for k, b in idx._map.items()]
             for c, idx in t._hash_indexes.items()},
            {c: list(sidx._keys) for c, sidx in t._sorted_indexes.items()})


def rids_held(idx) -> int:
    """How many row ids a hash index holds, over all its values."""
    return sum(1 if type(b) is int else len(b) for b in idx._map.values())


def assert_bucket_shapes(t: Table, filed=()) -> None:
    """Every hash bucket is a bare row id or a non-empty, strictly
    ascending list of them, and each ``(column, value)`` in ``filed`` —
    values just filed — whose bucket holds one row id holds it bare: it
    was filed once."""
    for idx in t._hash_indexes.values():
        for bucket in idx._map.values():
            assert type(bucket) is int or (
                type(bucket) is list and bucket
                and all(a < b for a, b in zip(bucket, bucket[1:]))), bucket
    for column, value in filed:
        bucket = t._hash_indexes[column]._map[value]
        assert type(bucket) is int or len(bucket) > 1, (column, value)


class TestAllOrNothing:
    """A rejected insert or update leaves no trace: heap, every index and
    the observer see either the whole mutation or none of it."""

    COLUMNS = [Column("cid", "INT", nullable=False),
               Column("path", "TEXT", nullable=False),
               Column("owner", "TEXT")]

    @staticmethod
    def index(t: Table) -> Table:
        t.create_index("path", unique=True)
        t.create_index("owner", sorted_index=True)
        return t

    def make_collections(self) -> Table:
        t = self.index(Table("collections", self.COLUMNS, primary_key="cid"))
        t.insert({"cid": 1, "path": "/a", "owner": "ann"})
        t.insert({"cid": 2, "path": "/b", "owner": "bob"})
        return t

    def test_secondary_unique_violation_leaves_no_ghost_row(self):
        t = self.make_collections()
        heap, indexes = t.snapshot_rows(), index_state(t)
        with pytest.raises(DatabaseError, match="unique index violation"):
            t.insert({"cid": 3, "path": "/a", "owner": "eve"})
        assert len(t) == 2
        assert [t.row_dict(rid) for rid in t.scan()] == [
            {"cid": 1, "path": "/a", "owner": "ann"},
            {"cid": 2, "path": "/b", "owner": "bob"}]
        assert t.lookup_eq("cid", 3) == []
        assert t.lookup_eq("path", "/a") == [0]
        assert (t.snapshot_rows(), index_state(t)) == (heap, indexes)
        assert t.insert({"cid": 3, "path": "/c"}) == 2     # no rid was burnt

    @pytest.mark.parametrize("changes, message", [
        ({"owner": "eve", "path": 7}, "expects TEXT"),
        ({"owner": "eve", "path": "/b"}, "unique index violation"),
        ({"owner": "eve", "cid": 2}, "duplicate primary key"),
        ({"owner": "eve", "nope": 1}, "no column"),
        ({"path": "/z", "owner": None, "cid": None}, "NOT NULL"),
    ])
    def test_failed_update_changes_nothing_and_tells_nobody(self, changes,
                                                            message):
        t = self.make_collections()
        events = []
        t.observer = lambda *event: events.append(event)
        heap, indexes = t.snapshot_rows(), index_state(t)
        with pytest.raises(DatabaseError, match=message):
            t.update_row(0, changes)
        assert (t.snapshot_rows(), index_state(t)) == (heap, indexes)
        assert t.lookup_eq("owner", "ann") == [0]
        assert t.lookup_range("owner", lo="a", hi="b") == [0]
        assert events == []

    def test_update_to_own_unique_value_is_not_a_violation(self):
        t = self.make_collections()
        t.update_row(0, {"cid": 1, "path": "/a", "owner": "ann2"})
        assert t.row_dict(0) == {"cid": 1, "path": "/a", "owner": "ann2"}

    def test_watch_log_replay_survives_failed_mutations(self):
        """The sharded catalog's replicas are fed by ``Database.watch``:
        the log must describe exactly what the source table holds."""
        def make(db):
            return self.index(db.create_table("collections", self.COLUMNS,
                                              primary_key="cid"))

        log = []
        source_db = Database("source")
        source = make(source_db)
        source_db.watch(lambda _table, *entry: log.append(entry))
        twin = make(Database("twin"))
        steps = [
            lambda: source.insert({"cid": 1, "path": "/a", "owner": "ann"}),
            lambda: source.insert({"cid": 2, "path": "/b", "owner": "bob"}),
            lambda: source.update_row(0, {"owner": "eve", "path": "/b"}),
            lambda: source.update_row(1, {"owner": "eve", "cid": 1}),
            lambda: source.update_row(1, {"path": "/c", "owner": 5}),
            lambda: source.update_row(0, {"owner": "zed"}),
            lambda: source.delete_row(1),
            lambda: source.insert({"cid": 2, "path": "/b"}),
            lambda: source.insert({"cid": 3, "path": "/a"}),
        ]
        failed = 0
        for step in steps:
            try:
                step()
            except DatabaseError:
                failed += 1
            while log:
                twin.apply_entry(*log.pop(0))
            assert twin.snapshot_rows() == source.snapshot_rows()
            assert index_state(twin) == index_state(source)
        assert failed == 4


# -- the insert path before row plans, kept as the oracle ----------------------
#
# Table.insert, HashIndex and SortedIndex as they stood before the row
# plan (per-column Column.check, one HashIndex.add / SortedIndex.add per
# entry, reads through _get_live), verbatim but for one line: every
# unique index is asked *before* the heap is touched — the ghost-row fix
# that shipped with the plan.  Column is shared: its check() is still the
# one definition of what a column accepts.


class OracleHashIndex:
    def __init__(self, unique=False):
        self.unique = unique
        self._map = defaultdict(set)

    def add(self, value, rid):
        value = _hashable(value)
        bucket = self._map[value]
        if self.unique and bucket:
            raise DatabaseError(f"unique index violation for value {value!r}")
        bucket.add(rid)

    def remove(self, value, rid):
        value = _hashable(value)
        bucket = self._map.get(value)
        if bucket is not None:
            bucket.discard(rid)
            if not bucket:
                del self._map[value]

    def get(self, value):
        return set(self._map.get(_hashable(value), ()))

    def __len__(self):
        return sum(len(b) for b in self._map.values())


class OracleNullFirst:
    def __init__(self, value):
        self.value = value

    def _key(self):
        if self.value is None:
            return (0, "", None)
        return (1, type(self.value).__name__, self.value)


class OracleSortedIndex:
    def __init__(self):
        self._keys = []

    @staticmethod
    def _entry(value, rid):
        nf = OracleNullFirst(value)
        return (nf._key()[:2], nf._key()[2] if value is not None else 0, rid)

    def add(self, value, rid):
        if value is None:
            return
        bisect.insort(self._keys, self._entry(value, rid))

    def remove(self, value, rid):
        if value is None:
            return
        entry = self._entry(value, rid)
        pos = bisect.bisect_left(self._keys, entry)
        if pos < len(self._keys) and self._keys[pos] == entry:
            self._keys.pop(pos)

    def range(self, lo=None, hi=None, lo_incl=True, hi_incl=True, limit=None):
        if lo is not None:
            lo_entry = self._entry(lo, -1 if lo_incl else 2**62)
            start = (bisect.bisect_left if lo_incl else bisect.bisect_right)(
                self._keys, lo_entry)
        else:
            start = 0
        if hi is not None:
            hi_entry = self._entry(hi, 2**62 if hi_incl else -1)
            stop = (bisect.bisect_right if hi_incl else bisect.bisect_left)(
                self._keys, hi_entry)
        else:
            stop = len(self._keys)
        if limit is not None:
            stop = min(stop, start + max(0, int(limit)))
        return [rid for *_k, rid in self._keys[start:stop]]


class OracleTable:
    def __init__(self, name, columns, primary_key=None):
        self.name = name
        self.columns = tuple(columns)
        self._offset = {c.name: i for i, c in enumerate(columns)}
        self.primary_key = primary_key
        self._rows = []
        self._live = 0
        self._hash_indexes = {}
        self._sorted_indexes = {}
        self.scan_counter = ScanCounter()
        self.observer = None
        if primary_key is not None:
            self.create_index(primary_key, unique=True)

    def __len__(self):
        return self._live

    def create_index(self, column, unique=False, sorted_index=False):
        if column not in self._hash_indexes:
            idx = OracleHashIndex(unique=unique)
            off = self._offset[column]
            for rid, row in enumerate(self._rows):
                if row is not None:
                    idx.add(row[off], rid)
            self._hash_indexes[column] = idx
        if sorted_index and column not in self._sorted_indexes:
            sidx = OracleSortedIndex()
            off = self._offset[column]
            for rid, row in enumerate(self._rows):
                if row is not None:
                    sidx.add(row[off], rid)
            self._sorted_indexes[column] = sidx

    def drop_index(self, column):
        if self.primary_key == column:
            raise DatabaseError("cannot drop primary-key index")
        self._hash_indexes.pop(column, None)
        self._sorted_indexes.pop(column, None)

    def insert(self, values):
        unknown = set(values) - set(self._offset)
        if unknown:
            raise DatabaseError(f"unknown columns {sorted(unknown)} for {self.name!r}")
        row = [None] * len(self.columns)
        for col in self.columns:
            row[self._offset[col.name]] = col.check(values.get(col.name))
        if self.primary_key is not None:
            pk = row[self._offset[self.primary_key]]
            if pk is None:
                raise DatabaseError(f"primary key {self.primary_key!r} may not be NULL")
            if self._hash_indexes[self.primary_key].get(pk):
                raise DatabaseError(
                    f"duplicate primary key {pk!r} in table {self.name!r}"
                )
        for cname, idx in self._hash_indexes.items():     # the one new line
            if idx.unique and idx.get(row[self._offset[cname]]):
                raise DatabaseError("unique index violation for value "
                                    f"{_hashable(row[self._offset[cname]])!r}")
        rid = len(self._rows)
        self._rows.append(row)
        self._live += 1
        for cname, idx in self._hash_indexes.items():
            idx.add(row[self._offset[cname]], rid)
        for cname, sidx in self._sorted_indexes.items():
            sidx.add(row[self._offset[cname]], rid)
        if self.observer is not None:
            self.observer(self.name, "insert", rid,
                          {c.name: row[i] for i, c in enumerate(self.columns)})
        return rid

    def delete_row(self, rid):
        row = self._get_live(rid)
        values = {c.name: row[i] for i, c in enumerate(self.columns)}
        for cname, idx in self._hash_indexes.items():
            idx.remove(row[self._offset[cname]], rid)
        for cname, sidx in self._sorted_indexes.items():
            sidx.remove(row[self._offset[cname]], rid)
        self._rows[rid] = None
        self._live -= 1
        if self.observer is not None:
            self.observer(self.name, "delete", rid, values)

    # update_row, apply_entry and distinct as they stood when every hash
    # bucket was a set, over the oracle's own indexes (no pair indexes)

    def update_row(self, rid, changes):
        row = self._get_live(rid)
        applied = {}
        for cname, value in changes.items():
            if cname not in self._offset:
                raise DatabaseError(
                    f"no column {cname!r} in table {self.name!r}")
            new = self.columns[self._offset[cname]].check(value)
            idx = self._hash_indexes.get(cname)
            if idx is not None and idx.unique and idx.get(new) - {rid}:
                if cname == self.primary_key:
                    raise DatabaseError(f"duplicate primary key {new!r}")
                raise DatabaseError(
                    f"unique index violation for value {_hashable(new)!r}")
            applied[cname] = new
        for cname, new in applied.items():
            off = self._offset[cname]
            old, row[off] = row[off], new
            if cname in self._hash_indexes:
                self._hash_indexes[cname].remove(old, rid)
                self._hash_indexes[cname].add(new, rid)
            if cname in self._sorted_indexes:
                self._sorted_indexes[cname].remove(old, rid)
                self._sorted_indexes[cname].add(new, rid)
        if self.observer is not None:
            self.observer(self.name, "update", rid, applied)

    def apply_entry(self, kind, rid, values):
        if kind == "insert":
            if rid != len(self._rows):
                raise DatabaseError(
                    f"replication divergence in {self.name!r}: "
                    f"insert expected rid {len(self._rows)}, log says {rid}")
            self.insert(values)
        elif kind == "update":
            self.update_row(rid, values)
        elif kind == "delete":
            self.delete_row(rid)
        else:
            raise DatabaseError(f"unknown mutation kind {kind!r}")

    def distinct(self, column):
        return list(self._hash_indexes[column]._map)

    def _get_live(self, rid):
        if not (0 <= rid < len(self._rows)) or self._rows[rid] is None:
            raise DatabaseError(f"no row {rid} in table {self.name!r}")
        return self._rows[rid]

    def row_dict(self, rid):
        row = self._get_live(rid)
        return {c.name: row[i] for i, c in enumerate(self.columns)}

    def value(self, rid, column):
        return self._get_live(rid)[self._offset[column]]

    def scan(self):
        for rid, row in enumerate(self._rows):
            if row is not None:
                self.scan_counter.total += 1
                yield rid

    def lookup_eq(self, column, value):
        if column in self._hash_indexes:
            rids = self._hash_indexes[column].get(value)
            n = len(rids)
            self.scan_counter.total += n
            return sorted(rids)         # the contract: ascending rid order
        off = self._offset[column]
        out = []
        for rid in self.scan():
            if self._rows[rid][off] == value:
                out.append(rid)
        return out

    def lookup_range(self, column, lo=None, hi=None, lo_incl=True,
                     hi_incl=True, limit=None):
        if column in self._sorted_indexes:
            rids = self._sorted_indexes[column].range(lo, hi, lo_incl,
                                                      hi_incl, limit=limit)
            n = len(rids)
            self.scan_counter.total += n
            return rids
        off = self._offset[column]
        out = []
        for rid in self.scan():
            v = self._rows[rid][off]
            if v is None:
                continue
            if lo is not None and (v < lo or (v == lo and not lo_incl)):
                continue
            if hi is not None and (v > hi or (v == hi and not hi_incl)):
                continue
            out.append(rid)
            if limit is not None and len(out) >= limit:
                break
        return out

    def snapshot_rows(self):
        return [None if row is None else list(row) for row in self._rows]

    def restore_rows(self, rows):
        self._rows = [None if row is None else list(row) for row in rows]
        self._live = sum(1 for row in self._rows if row is not None)
        for cname in list(self._hash_indexes):
            idx = OracleHashIndex(unique=self._hash_indexes[cname].unique)
            off = self._offset[cname]
            for rid, row in enumerate(self._rows):
                if row is not None:
                    idx.add(row[off], rid)
            self._hash_indexes[cname] = idx
        for cname in list(self._sorted_indexes):
            sidx = OracleSortedIndex()
            off = self._offset[cname]
            for rid, row in enumerate(self._rows):
                if row is not None:
                    sidx.add(row[off], rid)
            self._sorted_indexes[cname] = sidx


class Text(str):
    """A str subclass: valid TEXT, but not the column's exact type."""


class Level(int):
    """An int subclass: valid INT, sorts under its own type name."""


# few distinct values, so duplicate keys and shared buckets are the norm
BY_TYPE = {
    "INT": st.one_of(st.integers(-2, 3), st.builds(Level, st.integers(0, 2))),
    "FLOAT": st.one_of(st.sampled_from([-1.5, 0.0, 1.0, 2.5]),
                       st.integers(-1, 2)),
    "TEXT": st.one_of(st.sampled_from(["", "a", "b", "é"]),
                      st.builds(Text, st.sampled_from(["a", "c"]))),
    "BLOB": st.one_of(st.sampled_from([b"", b"x", b"y"]),
                      st.builds(bytearray, st.sampled_from([b"x", b"z"]))),
    "BOOL": st.booleans(),
}
ANY_VALUE = st.one_of(st.none(), *BY_TYPE.values())
COLUMN_NAMES = ["c0", "c1", "c2", "c3", "c4"]


@st.composite
def schemas(draw):
    width = draw(st.integers(1, 5))
    columns = [Column(name, draw(st.sampled_from(sorted(BY_TYPE))),
                      nullable=draw(st.booleans()))
               for name in COLUMN_NAMES[:width]]
    pk = draw(st.one_of(st.none(), st.sampled_from(COLUMN_NAMES[:width])))
    return columns, pk


@st.composite
def rows(draw, columns):
    """Mostly a valid row; sometimes a wrong type, a NULL, a missing or an
    unknown column — several at once, to pin which error wins."""
    values = {}
    for col in columns:
        kind = draw(st.integers(0, 9))
        if kind == 0:
            continue                                   # column left out
        values[col.name] = draw(ANY_VALUE if kind == 1 else BY_TYPE[col.type])
    if draw(st.integers(0, 14)) == 0:
        values[draw(st.sampled_from(["zz", "c9"]))] = draw(ANY_VALUE)
    return values


def outcome(fn, *args, **kwargs):
    """What a call did, exceptions included, in a comparable form."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def typed(value):
    """1, 1.0 and True are equal, as are dicts in any order: compare
    leaves with their type and dicts as ordered item lists."""
    if isinstance(value, dict):
        return [(typed(k), typed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    return (type(value).__name__, value)


def in_step(table, oracle):
    """``both(method, ...)``: call it on each side, require one outcome,
    and return it."""
    def both(method, *args, **kwargs):
        got = outcome(getattr(table, method), *args, **kwargs)
        want = outcome(getattr(oracle, method), *args, **kwargs)
        assert typed(got) == typed(want), (method, args, kwargs)
        return got
    return both


class TestRowPlanMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(["a", "b"]),
                              st.integers(0, 150)),
                    min_size=40, max_size=160))
    def test_rid_order_out_of_grown_buckets(self, ops):
        """After buckets grow and shrink, ``lookup_eq`` returns the
        oracle's members in ascending rid order (minting order) — not the
        iteration order of a set that has grown and shrunk."""
        columns = [Column("k", "TEXT"), Column("n", "INT")]
        table, oracle = Table("t", columns), OracleTable("t", columns)
        both = in_step(table, oracle)
        both("create_index", "k")
        both("create_index", "n", sorted_index=True)
        for op in ops:
            if isinstance(op, str):
                both("insert", {"k": op, "n": len(op) % 3})
            else:
                both("delete_row", op)
        for key in ("a", "b", "c"):
            assert table.lookup_eq("k", key) == \
                sorted(oracle._hash_indexes["k"].get(key))
            both("lookup_eq", "k", key)
        both("lookup_range", "n", lo=0)
        assert typed(index_state(table)) == typed(index_state(oracle))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_sequence_leaves_identical_tables(self, data):
        columns, pk = data.draw(schemas())
        names = [c.name for c in columns]
        table, oracle = Table("t", columns, pk), OracleTable("t", columns, pk)
        both = in_step(table, oracle)
        logs = ([], [])
        table.observer = lambda *event: logs[0].append(event)
        oracle.observer = lambda *event: logs[1].append(event)

        steps = data.draw(st.lists(st.sampled_from(
            ["insert"] * 6 + ["delete", "create", "drop", "restore",
                              "probe"]), max_size=30))
        for step in steps + ["probe"]:
            if step == "insert":
                both("insert", data.draw(rows(columns)))
            elif step == "delete":
                both("delete_row", data.draw(st.integers(-1, 12)))
            elif step == "create":
                both("create_index", data.draw(st.sampled_from(names)),
                     unique=data.draw(st.booleans()),
                     sorted_index=data.draw(st.booleans()))
            elif step == "drop":
                both("drop_index", data.draw(st.sampled_from(names)))
            elif step == "restore":
                snap = table.snapshot_rows()
                assert typed(snap) == typed(oracle.snapshot_rows())
                both("restore_rows", snap)
            else:
                column = data.draw(st.sampled_from(names))
                rid = data.draw(st.integers(-1, 12))
                lo, hi = data.draw(ANY_VALUE), data.draw(ANY_VALUE)
                both("lookup_eq", column, lo)
                both("lookup_range", column, lo=lo, hi=hi,
                     lo_incl=data.draw(st.booleans()),
                     limit=data.draw(st.one_of(st.none(), st.integers(0, 3))))
                both("value", rid, column)
                both("row_dict", rid)
                assert [table.row_dict(r) for r in table.scan()] == \
                    [oracle.row_dict(r) for r in oracle.scan()]
            assert typed(table._rows) == typed(oracle._rows)
            assert len(table) == len(oracle)
            assert typed(index_state(table)) == typed(index_state(oracle))
            assert_bucket_shapes(table)
            assert {c: i.unique for c, i in table._hash_indexes.items()} == \
                {c: i.unique for c, i in oracle._hash_indexes.items()}
            assert table.scan_counter.total == oracle.scan_counter.total
            assert typed(logs[0]) == typed(logs[1])


class TestHashBucketsMatchOracle:
    """A value filed once is kept as its bare row id, not a one-element
    list; every answer read off the buckets is the oracle's, ascending,
    after any mix of inserts, updates, deletes and restores, and on a twin
    fed only the source's log through ``apply_entry``."""

    COLUMNS = [Column("u", "INT", nullable=False), Column("k", "TEXT"),
               Column("n", "INT")]
    VALUES = {"u": st.integers(0, 9), "k": st.sampled_from([None, "a", "b"]),
              "n": st.integers(0, 2)}
    PROBES = {"u": range(-1, 11), "k": [None, "a", "b", "c"],
              "n": range(-1, 4)}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_sequence_of_mutations(self, data):
        draw = data.draw
        tables = [Table("t", self.COLUMNS, "u"),
                  OracleTable("t", self.COLUMNS, "u"),
                  Table("t", self.COLUMNS, "u")]        # the twin
        table, oracle, twin = tables
        for t in tables:
            t.create_index("k")
            t.create_index("n", sorted_index=True)
        log = []
        table.observer = lambda _name, *entry: log.append(entry)
        both = in_step(table, oracle)
        steps = draw(st.lists(st.sampled_from(
            ["insert"] * 5 + ["update"] * 3 + ["delete"] * 2 + ["restore"]),
            max_size=40))
        for step in steps:
            rid, columns = draw(st.integers(-1, 12)), ()
            if step == "insert":
                values = {c: draw(self.VALUES[c]) for c in draw(
                    st.sets(st.sampled_from("kn"))) | {"u"}}
                rid = len(table._rows)
                if both("insert", values)[0] == "ok":
                    columns = "ukn"                 # a missing one is NULL
            elif step == "update":
                values = {c: draw(self.VALUES[c]) for c in draw(
                    st.sets(st.sampled_from("ukn"), min_size=1))}
                if both("update_row", rid, values)[0] == "ok":
                    columns = values.keys()
            elif step == "delete":
                both("delete_row", rid)
            else:
                for t in tables:
                    t.restore_rows(t.snapshot_rows())
            while log:
                twin.apply_entry(*log.pop(0))
            filed = [(c, table.value(rid, c)) for c in columns]
            if step == "restore":                   # every value refiled
                filed = [(c, value) for c, idx in table._hash_indexes.items()
                         for value in idx._map]
            assert_bucket_shapes(table, filed)
            assert index_state(twin) == index_state(table)
            assert typed(index_state(table)) == typed(index_state(oracle))
            for column, probes in self.PROBES.items():
                idx, want = table._hash_indexes[column], \
                    oracle._hash_indexes[column]
                assert rids_held(idx) == len(want) \
                    == rids_held(twin._hash_indexes[column])
                both("distinct", column)
                for value in probes:
                    assert idx.get(value) == sorted(want.get(value))
                    both("lookup_eq", column, value)
                    assert twin.lookup_eq(column, value) == \
                        table.lookup_eq(column, value)
            assert twin.snapshot_rows() == table.snapshot_rows()


# -- sorted indexes over a pair of columns -------------------------------------
#
# The oracle is the definition: after any sequence of mutations a pair
# index holds exactly what one built from scratch over the live rows
# holds, and a range probe returns what reading every row returns.

NAN = float("nan")
PAIR_COLUMNS = [Column("k", "TEXT"), Column("n", "FLOAT"), Column("t", "TEXT")]
PAIR_KEYS = [("k", "n"), ("k", "t")]
PAIR_VALUES = {
    "k": st.one_of(st.none(), st.sampled_from(["a", "b", "b\0", "c"]),
                   st.builds(Text, st.just("a"))),
    "n": st.one_of(st.none(), st.integers(-1, 2), st.sampled_from(
        [-1.5, -0.0, 0.0, 1.0, 2.5, float("inf"), float("-inf"), NAN])),
    "t": st.one_of(st.none(), st.sampled_from(["", "a", "b", "é"])),
}


def rebuilt_keys(t: Table, key):
    """The entries a pair index over ``key`` has to hold, in order."""
    offs = [t._offset[c] for c in key]
    entries = []
    for rid, row in enumerate(t._rows):
        if row is None:
            continue
        pair = tuple(row[o] for o in offs)
        if all(v is not None and v == v for v in pair):
            entries.append(pair + (rid,))
    return sorted(entries)


def brute_range(t: Table, key, lo, hi, lo_incl, hi_incl):
    """Rids a probe of [lo, hi] has to return, from the rebuilt entries
    alone: a bound compares with an entry's pair, or with its first
    member only when the bound is a one-member prefix."""
    out = []
    for entry in rebuilt_keys(t, key):
        pair, rid = entry[:2], entry[2]
        if lo is not None:
            head = pair[:len(lo)]
            if head < lo or (head == lo and len(lo) == 2 and not lo_incl):
                continue
        if hi is not None:
            head = pair[:len(hi)]
            if head > hi or (head == hi and (len(hi) == 1 or not hi_incl)):
                continue
        out.append(rid)
    return out


class TestPairIndexMatchesARebuiltOne:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_sequence_of_mutations(self, data):
        draw = data.draw
        log = []
        source_db, twin_db = Database("source"), Database("twin")
        source = source_db.create_table("t", PAIR_COLUMNS)
        twin = twin_db.create_table("t", PAIR_COLUMNS)
        source_db.watch(lambda _table, *entry: log.append(entry))
        if draw(st.booleans()):               # indexes before any row ...
            for t in (source, twin):
                for key in PAIR_KEYS:
                    t.create_sorted_index(*key)
        steps = draw(st.lists(st.sampled_from(
            ["insert"] * 5 + ["update"] * 3 + ["delete", "restore", "drop",
                                               "create"]), max_size=30))
        for step in steps + ["create"]:       # ... or backfilled later
            live = [rid for rid, row in enumerate(source._rows)
                    if row is not None]
            if step == "insert":
                source.insert({c: draw(PAIR_VALUES[c])
                               for c in draw(st.sets(st.sampled_from("knt")))})
            elif step == "update" and live:
                source.update_row(
                    draw(st.sampled_from(live)),
                    {c: draw(PAIR_VALUES[c]) for c in draw(
                        st.sets(st.sampled_from("knt"), min_size=1))})
            elif step == "delete" and live:
                source.delete_row(draw(st.sampled_from(live)))
            elif step == "restore":
                source.restore_rows(source.snapshot_rows())
            elif step == "drop":
                key = draw(st.sampled_from(PAIR_KEYS))
                for t in (source, twin):
                    t.drop_index(key)
            elif step == "create":
                for t in (source, twin):
                    for key in PAIR_KEYS:
                        t.create_sorted_index(*key)
            while log:
                twin.apply_entry(*log.pop(0))
            for key, sidx in source._sorted_indexes.items():
                want = rebuilt_keys(source, key)
                assert typed(sidx._keys) == typed(want)
                assert typed(twin._sorted_indexes[key]._keys) == typed(want)
        for key in PAIR_KEYS * 3:
            self.probe(source, key, draw)

    def probe(self, t, key, draw):
        second = PAIR_VALUES[key[1]].filter(
            lambda v: v is not None and v == v)
        first = st.sampled_from(["a", "b", "b\0", "c", "d"])
        bound = st.one_of(st.none(), st.tuples(first),
                          st.tuples(first, second))
        stored = [entry[:2] for entry in rebuilt_keys(t, key)]
        if stored:                      # a bound that is some row's pair
            bound = st.one_of(bound, st.sampled_from(stored))
        lo, hi = draw(bound), draw(bound)
        # a one-member bound opens a range; it cannot close one
        lo_incl = True if lo is not None and len(lo) == 1 \
            else draw(st.booleans())
        hi_incl = False if hi is not None and len(hi) == 1 \
            else draw(st.booleans())
        want = brute_range(t, key, lo, hi, lo_incl, hi_incl)
        scanned = t.scan_counter.total
        assert t.count_range(key, lo, hi, lo_incl, hi_incl) == len(want)
        assert t.scan_counter.total == scanned          # a count reads no row
        assert t.lookup_range(key, lo, hi, lo_incl, hi_incl) == want
        assert t.scan_counter.total == scanned + len(want)
        limit = draw(st.integers(0, 3))
        assert t.lookup_range(key, lo, hi, lo_incl, hi_incl,
                              limit=limit) == want[:limit]
        # with the index dropped the same probe reads every row instead
        t.drop_index(key)
        assert sorted(t.lookup_range(key, lo, hi, lo_incl, hi_incl)) == \
            sorted(want)
        assert t.count_range(key, lo, hi, lo_incl, hi_incl) == len(want)
        t.create_sorted_index(*key)

    def test_a_prefix_bound_cannot_close_a_range(self):
        t = Table("t", PAIR_COLUMNS)
        t.create_sorted_index("k", "n")
        t.insert({"k": "a", "n": 1.0})
        with pytest.raises(DatabaseError, match="one-member bound"):
            t.lookup_range(("k", "n"), hi=("a",))
        with pytest.raises(DatabaseError, match="one-member bound"):
            t.count_range(("k", "n"), lo=("a",), lo_incl=False)
        assert t.lookup_range(("k", "n"), lo=("a",), hi=("a\0",),
                              hi_incl=False) == [0]

    def test_named_beside_the_single_column_indexes(self):
        t = Table("t", PAIR_COLUMNS)
        t.create_index("k")
        t.create_sorted_index("k", "n")
        assert t.indexed_columns() == [("k", "n"), "k"]
        with pytest.raises(DatabaseError, match="no column"):
            t.create_sorted_index("k", "nope")
        t.drop_index(("k", "n"))
        assert t.indexed_columns() == ["k"]

    def test_nan_stays_out_of_a_single_column_index_too(self):
        t = Table("t", [Column("n", "FLOAT")])
        t.create_index("n", sorted_index=True)
        for value in (2.0, NAN, 1.0):
            t.insert({"n": value})
        assert t.lookup_range("n") == [2, 0]
        t.update_row(0, {"n": NAN})
        assert t.lookup_range("n") == [2]
        t.drop_index("n")
        assert t.lookup_range("n", lo=0.0) == [2]


class TestColumnReads:
    def test_iter_values_reads_the_named_columns_lazily(self):
        t = make_users()
        for i, name in enumerate(["ann", "bob", "cy"]):
            t.insert({"id": i, "name": name, "age": 30 + i})
        scanned = t.scan_counter.total
        rows = t.iter_values([2, 0], ("name", "id"))
        assert next(rows) == ("cy", 2)
        assert list(rows) == [("ann", 0)]
        assert t.scan_counter.total == scanned

    def test_distinct_off_the_hash_index_or_a_scan(self):
        t = make_users()
        for i, name in enumerate(["ann", "bob", "ann", None]):
            t.insert({"id": i, "name": name})
        assert t.distinct("name") == ["ann", "bob", None]    # unindexed
        assert t.scan_counter.total == 4
        t.create_index("name")
        assert sorted(t.distinct("name"), key=str) == [None, "ann", "bob"]
        assert t.scan_counter.total == 4                           # no row read
