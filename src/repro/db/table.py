"""Typed tables for the minimal relational engine.

The engine plays two roles in the reproduction: it is the backing store
for MCAT (the paper's Metadata Catalog is implemented on Oracle/DB2), and
it is the "database resource" an SRB server brokers (LOB storage and
registered SQL-query objects).  Only the features those roles need exist:
typed columns, primary keys, secondary hash and sorted indexes, and
predicate scans.

Rows are stored as Python lists in insertion order with tombstones for
deletes; indexes map values to row ids.  This keeps point lookups O(1),
range scans O(log n + k) via the sorted index, and full scans cheap to
reason about — the E4 benchmark's index on/off ablation flips exactly one
flag here.

A table can carry one mutation *observer* — a callback invoked after
every successful insert/update/delete with the row id and its values.
This is the physical replication hook the sharded MCAT builds its write
log on: because row ids are positional and tombstoned, replaying the
observed mutations in order onto an empty table reproduces the source
table byte for byte, row ids included.

``insert`` is the catalog's hot path, so a table keeps a *row plan* — its
columns and indexes flattened into tuples (:meth:`Table._replan`) — and
runs inserts off it: a value of the column's exact Python type is stored
as is, a hash-index entry is the bare row id until a second row shares
the value, then one ``append`` to the bucket's ascending list — the new
rid is the largest yet (:class:`~repro.db.index.HashIndex`) — and a
sorted one is one ``insort``.  Every other value goes through
:meth:`Column.check`, which stays the one definition of what a column
accepts.

A sorted index may cover a *pair* of columns
(:meth:`Table.create_sorted_index`): its key is the tuple of the two
values, it is named by the tuple of the two column names wherever a
single-column index is named by its column (``lookup_range``,
``count_range``, ``drop_index``), and a row with a NULL or NaN in either
column has no entry in it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import DatabaseError
from repro.db.index import HashIndex, PairIndex, SortedIndex, _hashable, \
    sortable

# Supported column types and their Python representations.
_TYPES: Dict[str, tuple] = {
    "INT": (int,),
    "FLOAT": (int, float),
    "TEXT": (str,),
    "BLOB": (bytes, bytearray),
    "BOOL": (bool,),
}

# The one class per column type whose instances Column.check returns
# unchanged; the row plan stores those without calling it.
_EXACT: Dict[str, type] = {"INT": int, "FLOAT": float, "TEXT": str,
                           "BLOB": bytes, "BOOL": bool}

# What names an index: a column, or the pair of columns of a sorted index
# over both.
IndexKey = Union[str, Tuple[str, str]]


@dataclass(frozen=True)
class Column:
    """A typed column definition."""

    name: str
    type: str = "TEXT"
    nullable: bool = True

    def __post_init__(self):
        if self.type not in _TYPES:
            raise DatabaseError(f"unknown column type {self.type!r}")
        if not self.name.isidentifier():
            raise DatabaseError(f"bad column name {self.name!r}")

    def check(self, value: Any) -> Any:
        if value is None:
            if not self.nullable:
                raise DatabaseError(f"column {self.name!r} is NOT NULL")
            return None
        # bool is a subclass of int; keep INT columns honest
        if self.type == "INT" and isinstance(value, bool):
            raise DatabaseError(f"column {self.name!r} expects INT, got bool")
        if not isinstance(value, _TYPES[self.type]):
            raise DatabaseError(
                f"column {self.name!r} expects {self.type}, got {type(value).__name__}"
            )
        if self.type == "FLOAT":
            return float(value)
        return value


class ScanCounter:
    """Rows examined, summed over every table that shares the counter.

    A :class:`Table` on its own counts into a private one; a
    :class:`~repro.db.engine.Database` hands all its tables the same one,
    so the cost model reads one number instead of summing the tables.
    """

    __slots__ = ("total",)

    def __init__(self, total: int = 0):
        self.total = total


class Table:
    """A heap of typed rows with optional secondary indexes.

    ``primary_key`` (optional) names a column whose values must be unique;
    a hash index is maintained on it automatically.
    """

    def __init__(self, name: str, columns: Sequence[Column],
                 primary_key: Optional[str] = None):
        if not columns:
            raise DatabaseError("table needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise DatabaseError(f"duplicate column names in {name!r}")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._names: Tuple[str, ...] = tuple(names)
        self._offset: Dict[str, int] = {n: i for i, n in enumerate(names)}
        # read on every insert, so kept rather than derived each time
        self._known = self._offset.keys()
        self._width = len(names)
        # iter_values' readers, one per tuple of columns ever asked for
        self._pickers: Dict[Tuple[str, ...], itemgetter] = {}
        self.primary_key = primary_key
        self._rows: List[Optional[list]] = []
        self._live = 0
        self._hash_indexes: Dict[str, HashIndex] = {}
        self._sorted_indexes: Dict[IndexKey, SortedIndex] = {}
        # Scan accounting for the query-cost model (rows touched): this
        # table's own count, and the counter shared with its database.
        self.rows_scanned = 0
        self.scan_counter = ScanCounter()
        # Mutation observer: callable(table_name, kind, rid, values) fired
        # after each successful insert/update/delete.  See module docstring.
        self.observer = None
        if primary_key is not None:
            if primary_key not in self._offset:
                raise DatabaseError(f"primary key {primary_key!r} not a column")
            self._hash_indexes[primary_key] = HashIndex(unique=True)
        # The column half of the row plan: (offset, name, exact type,
        # nullable, check) per column.  The index half is _replan's.
        self._column_plan = tuple(
            (i, c.name, _EXACT[c.type], c.nullable, c.check)
            for i, c in enumerate(self.columns))
        self._replan()

    def _replan(self) -> None:
        """Flatten the current indexes into the tuples ``insert`` runs off.

        Must follow every change to the *set of index objects*:
        construction, ``create_index``, ``drop_index`` and ``restore_rows``
        (which rebuilds each index).  Entries hold the index's own dict or
        key list, so upkeep through the plan and through the index's
        methods (``update_row``, ``delete_row``) see one structure.
        """
        # (offset, value -> bucket dict, bytearray values possible?)
        hashed = [(idx.unique, (self._offset[n], idx._map,
                                self._col(n).type == "BLOB"))
                  for n, idx in self._hash_indexes.items()]
        self._hash_plan = tuple(entry for _unique, entry in hashed)
        self._unique_plan = tuple(entry for unique, entry in hashed if unique)
        # (offset, sorted key list, exact type, the sort tag of that type),
        # and for an index over a pair (both offsets, sorted key list)
        ranged = []
        self._pair_indexes = tuple(
            (n, sidx, self._offset[n[0]], self._offset[n[1]])
            for n, sidx in self._sorted_indexes.items() if type(n) is tuple)
        for n, sidx in self._sorted_indexes.items():
            if type(n) is str:
                exact = _EXACT[self._col(n).type]
                ranged.append((self._offset[n], sidx._keys, exact,
                               (1, exact.__name__)))
        self._sorted_plan = tuple(ranged)
        self._pair_plan = tuple((off, off2, sidx._keys) for _key, sidx, off,
                                off2 in self._pair_indexes)

    # -- schema helpers -------------------------------------------------------

    def column_names(self) -> List[str]:
        return list(self._names)

    def has_column(self, name: str) -> bool:
        return name in self._offset

    def _col(self, name: str) -> Column:
        try:
            return self.columns[self._offset[name]]
        except KeyError:
            raise DatabaseError(f"no column {name!r} in table {self.name!r}") from None

    def __len__(self) -> int:
        return self._live

    # -- indexing ----------------------------------------------------------

    def _indexed_value(self, row: list, key: IndexKey) -> Any:
        """What an index named ``key`` files ``row`` under."""
        if type(key) is tuple:
            return row[self._offset[key[0]]], row[self._offset[key[1]]]
        return row[self._offset[key]]

    def _backfill(self, index, key: IndexKey):
        """Feed every live row's ``key`` value to a fresh index."""
        for rid, row in enumerate(self._rows):
            if row is not None:
                index.add(self._indexed_value(row, key), rid)
        return index

    def create_index(self, column: str, unique: bool = False,
                     sorted_index: bool = False) -> None:
        """Create a secondary index on ``column``.

        A hash index accelerates equality; pass ``sorted_index=True`` to
        additionally maintain a sorted index for range predicates.
        """
        self._col(column)
        if column not in self._hash_indexes:
            self._hash_indexes[column] = self._backfill(
                HashIndex(unique=unique), column)
        if sorted_index and column not in self._sorted_indexes:
            self._sorted_indexes[column] = self._backfill(
                SortedIndex(), column)
        self._replan()

    def create_sorted_index(self, first: str, second: str) -> None:
        """Create a sorted index over the pair ``(first, second)`` — no
        hash index with it.  Rows sort by ``first``, then ``second``, so
        ``lookup_range((first, second), lo=(a,), hi=(a, x))`` is "``first``
        is ``a`` and ``second`` is at most ``x``" in one probe."""
        key = (self._col(first).name, self._col(second).name)
        if key not in self._sorted_indexes:
            self._sorted_indexes[key] = self._backfill(PairIndex(), key)
        self._replan()

    def drop_index(self, column: IndexKey) -> None:
        if self.primary_key == column:
            raise DatabaseError("cannot drop primary-key index")
        self._hash_indexes.pop(column, None)
        self._sorted_indexes.pop(column, None)
        self._replan()

    def indexed_columns(self) -> List[IndexKey]:
        """Every column, and every pair of columns, that has an index."""
        return sorted(set(self._hash_indexes) | set(self._sorted_indexes),
                      key=str)

    # -- mutation -----------------------------------------------------------

    def insert(self, values: Dict[str, Any]) -> int:
        """Insert one row given a column->value mapping; returns the row id.

        Nothing is touched — heap, index or observer — unless the whole
        row is acceptable: column types, NOT NULL, the primary key and
        every unique index are checked first.
        """
        if not values.keys() <= self._known:
            unknown = set(values) - set(self._offset)
            raise DatabaseError(f"unknown columns {sorted(unknown)} for {self.name!r}")
        row = [None] * self._width
        for off, name, exact, nullable, check in self._column_plan:
            if name in values:
                value = values[name]
                if type(value) is exact:
                    row[off] = value
                elif value is not None or not nullable:
                    row[off] = check(value)
            elif not nullable:
                check(None)
        pk = self.primary_key
        if pk is not None and row[self._offset[pk]] is None:
            raise DatabaseError(f"primary key {pk!r} may not be NULL")
        for off, hmap, blob in self._unique_plan:
            key = _hashable(row[off]) if blob else row[off]
            if key in hmap:
                if self._names[off] == pk:
                    raise DatabaseError(
                        f"duplicate primary key {row[off]!r} in table {self.name!r}"
                    )
                raise DatabaseError(f"unique index violation for value {key!r}")
        rid = len(self._rows)
        self._rows.append(row)
        self._live += 1
        for off, hmap, blob in self._hash_plan:
            key = _hashable(row[off]) if blob else row[off]
            if key not in hmap:
                hmap[key] = rid
            elif type(hmap[key]) is int:     # rid is the largest yet
                hmap[key] = [hmap[key], rid]
            else:
                hmap[key].append(rid)
        for off, keys, exact, tag in self._sorted_plan:
            value = row[off]
            # NULL and NaN never participate in range scans (index.sortable)
            if value is not None and value == value:
                insort(keys, (tag, value, rid) if type(value) is exact
                       else SortedIndex._entry(value, rid))
        for off, off2, keys in self._pair_plan:
            value, value2 = row[off], row[off2]
            if value is not None and value2 is not None \
                    and value == value and value2 == value2:
                insort(keys, (value, value2, rid))
        if self.observer is not None:
            self.observer(self.name, "insert", rid, dict(zip(self._names, row)))
        return rid

    def update_row(self, rid: int, changes: Dict[str, Any]) -> None:
        """Change columns of one live row: validate all, then apply all.

        A bad value or a key collision in any column raises before the
        row, an index or the observer has seen any of the changes.
        """
        row = self._get_live(rid)
        applied: Dict[str, Any] = {}
        for cname, value in changes.items():
            new = self._col(cname).check(value)
            idx = self._hash_indexes.get(cname)
            # a unique bucket holds one rid at most: no row's, or this one's
            if idx is not None and idx.unique \
                    and idx.get(new) not in ([], [rid]):
                if cname == self.primary_key:
                    raise DatabaseError(f"duplicate primary key {new!r}")
                raise DatabaseError(
                    f"unique index violation for value {_hashable(new)!r}")
            applied[cname] = new
        # an index over a pair moves the row if either column changed
        moved = [(sidx, off, off2, (row[off], row[off2]))
                 for key, sidx, off, off2 in self._pair_indexes
                 if not applied.keys().isdisjoint(key)] \
            if self._pair_indexes else ()
        for cname, new in applied.items():
            off = self._offset[cname]
            old, row[off] = row[off], new
            if cname in self._hash_indexes:
                self._hash_indexes[cname].remove(old, rid)
                self._hash_indexes[cname].add(new, rid)
            if cname in self._sorted_indexes:
                self._sorted_indexes[cname].remove(old, rid)
                self._sorted_indexes[cname].add(new, rid)
        for sidx, off, off2, old in moved:
            sidx.remove(old, rid)
            sidx.add((row[off], row[off2]), rid)
        if self.observer is not None:
            self.observer(self.name, "update", rid, applied)

    def delete_row(self, rid: int) -> None:
        row = self._get_live(rid)
        for cname, idx in self._hash_indexes.items():
            idx.remove(row[self._offset[cname]], rid)
        for key, sidx in self._sorted_indexes.items():
            if type(key) is str:
                sidx.remove(row[self._offset[key]], rid)
        for _key, sidx, off, off2 in self._pair_indexes:
            sidx.remove((row[off], row[off2]), rid)
        self._rows[rid] = None
        self._live -= 1
        if self.observer is not None:
            self.observer(self.name, "delete", rid, dict(zip(self._names, row)))

    def _get_live(self, rid: int) -> list:
        if not (0 <= rid < len(self._rows)) or self._rows[rid] is None:
            raise DatabaseError(f"no row {rid} in table {self.name!r}")
        return self._rows[rid]

    # -- access ------------------------------------------------------------

    def row_dict(self, rid: int) -> Dict[str, Any]:
        try:
            row = self._rows[rid] if rid >= 0 else None
        except IndexError:
            row = None
        if row is None:
            raise DatabaseError(f"no row {rid} in table {self.name!r}")
        return dict(zip(self._names, row))

    def row_dicts(self, rids: Sequence[int]) -> List[Dict[str, Any]]:
        """:meth:`row_dict` of each live row in ``rids``, in one call;
        charges nothing, as :meth:`iter_values`."""
        return [dict(zip(self._names, self._rows[rid])) for rid in rids]

    def value(self, rid: int, column: str) -> Any:
        try:
            row = self._rows[rid] if rid >= 0 else None
        except IndexError:
            row = None
        if row is None:
            raise DatabaseError(f"no row {rid} in table {self.name!r}")
        return row[self._offset[column]]

    def scan(self) -> Iterator[int]:
        """Iterate row ids of all live rows (charges scan accounting)."""
        for rid, row in enumerate(self._rows):
            if row is not None:
                self.rows_scanned += 1
                self.scan_counter.total += 1
                yield rid

    def lookup_eq(self, column: str, value: Any) -> List[int]:
        """Row ids where ``column == value``, via index if available;
        either way in ascending rid order, a fresh list."""
        if column in self._hash_indexes:
            rids = self._hash_indexes[column].get(value)
            n = len(rids)
            self.rows_scanned += n
            self.scan_counter.total += n
            return rids
        off = self._offset[column]
        out = []
        for rid in self.scan():
            if self._rows[rid][off] == value:
                out.append(rid)
        return out

    def lookup_eq_many(self, column: str, values: Sequence[Any]) -> List[int]:
        """What :meth:`lookup_eq` returns for each of ``values``, in one
        call and one list — each value's rids ascending, the values in
        the order given — charged exactly as one ``lookup_eq`` per value.
        With an index, no Python call is made per value."""
        found = getattr(self._hash_indexes.get(column), "_map", None)
        try:
            buckets = [found[value] for value in values if value in found]
        except TypeError:   # no index, or an unhashable value: one by one
            return [rid for value in values
                    for rid in self.lookup_eq(column, value)]
        rids = [rid for bucket in buckets for rid in (
            (bucket,) if type(bucket) is int else bucket)]
        n = len(rids)
        self.rows_scanned += n
        self.scan_counter.total += n
        return rids

    def lookup_range(self, column: IndexKey, lo: Any = None, hi: Any = None,
                     lo_incl: bool = True, hi_incl: bool = True,
                     limit: Optional[int] = None) -> List[int]:
        """Row ids where ``lo <(=) column <(=) hi``, via sorted index if any.

        With a sorted index and a ``limit``, only the returned entries are
        charged to scan accounting (keyset pages stay O(page), not
        O(range)); results come back in value order.  Without an index the
        fallback scan charges every row it examines, limit or not, and
        returns ids in heap order.  ``column`` may name a pair of columns
        (bounds are then tuples, compared member by member).
        """
        if column in self._sorted_indexes:
            rids = self._sorted_indexes[column].range(lo, hi, lo_incl,
                                                      hi_incl, limit=limit)
            n = len(rids)
            self.rows_scanned += n
            self.scan_counter.total += n
            return rids
        out = []
        for rid in self.scan():
            v = self._indexed_value(self._rows[rid], column)
            if not sortable(v):
                continue
            if lo is not None and (v < lo or (v == lo and not lo_incl)):
                continue
            if hi is not None and (v > hi or (v == hi and not hi_incl)):
                continue
            out.append(rid)
            if limit is not None and len(out) >= limit:
                break
        return out

    def count_range(self, column: IndexKey, lo: Any = None, hi: Any = None,
                    lo_incl: bool = True, hi_incl: bool = True) -> int:
        """How many rows :meth:`lookup_range` would return.  A sorted index
        answers from two bisects and charges nothing — no row is read;
        without one the rows have to be scanned, and are charged."""
        if column in self._sorted_indexes:
            return self._sorted_indexes[column].count(lo, hi, lo_incl,
                                                      hi_incl)
        return len(self.lookup_range(column, lo, hi, lo_incl, hi_incl))

    def distinct(self, column: str) -> List[Any]:
        """The distinct values of ``column``: the keys of its hash index
        (uncharged, no row is read), else a charged scan."""
        if column in self._hash_indexes:
            return list(self._hash_indexes[column]._map)
        off = self._offset[column]
        return list({_hashable(self._rows[rid][off]): None
                     for rid in self.scan()})

    def iter_values(self, rids: Sequence[int],
                    columns: Tuple[str, ...]) -> Iterator[tuple]:
        """``columns`` (two or more) of each live row in ``rids``, as
        tuples, read lazily — a whole probe's rows in one call, and a
        caller that stops early reads no further.  Charges nothing: the
        lookup that produced ``rids`` already did."""
        pick = self._pickers.get(columns)
        if pick is None:
            pick = self._pickers[columns] = itemgetter(
                *[self._offset[c] for c in columns])
        return map(pick, map(self._rows.__getitem__, rids))

    def all_rows(self) -> List[Dict[str, Any]]:
        return [self.row_dict(rid) for rid in self.scan()]

    # -- replication support -----------------------------------------------

    def apply_entry(self, kind: str, rid: int, values: Dict[str, Any]) -> None:
        """Replay one observed mutation onto this table.

        Valid only when this table is a faithful copy of the source at the
        moment the mutation was observed; positional row ids then line up
        exactly (an ``insert`` lands at the recorded rid).
        """
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

    def snapshot_rows(self) -> List[Optional[list]]:
        """Deep copy of the heap, tombstones included (rids preserved)."""
        return [None if row is None else list(row) for row in self._rows]

    def restore_rows(self, rows: List[Optional[list]]) -> None:
        """Replace the heap with a snapshot and rebuild every index.

        Scan accounting is deliberately untouched: a snapshot restore is
        replication plumbing, not a catalog query.
        """
        self._rows = [None if row is None else list(row) for row in rows]
        self._live = sum(1 for row in self._rows if row is not None)
        for cname, idx in self._hash_indexes.items():
            self._hash_indexes[cname] = self._backfill(
                HashIndex(unique=idx.unique), cname)
        for key, sidx in self._sorted_indexes.items():
            self._sorted_indexes[key] = self._backfill(type(sidx)(), key)
        self._replan()
