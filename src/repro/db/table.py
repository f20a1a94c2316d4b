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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DatabaseError
from repro.db.index import HashIndex, SortedIndex

# Supported column types and their Python representations.
_TYPES: Dict[str, tuple] = {
    "INT": (int,),
    "FLOAT": (int, float),
    "TEXT": (str,),
    "BLOB": (bytes, bytearray),
    "BOOL": (bool,),
}


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
        self._offset: Dict[str, int] = {c.name: i for i, c in enumerate(columns)}
        self.primary_key = primary_key
        self._rows: List[Optional[list]] = []
        self._live = 0
        self._hash_indexes: Dict[str, HashIndex] = {}
        self._sorted_indexes: Dict[str, SortedIndex] = {}
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
            self.create_index(primary_key, unique=True)

    # -- schema helpers -------------------------------------------------------

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

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

    def create_index(self, column: str, unique: bool = False,
                     sorted_index: bool = False) -> None:
        """Create a secondary index on ``column``.

        A hash index accelerates equality; pass ``sorted_index=True`` to
        additionally maintain a sorted index for range predicates.
        """
        self._col(column)
        if column not in self._hash_indexes:
            idx = HashIndex(unique=unique)
            off = self._offset[column]
            for rid, row in enumerate(self._rows):
                if row is not None:
                    idx.add(row[off], rid)
            self._hash_indexes[column] = idx
        if sorted_index and column not in self._sorted_indexes:
            sidx = SortedIndex()
            off = self._offset[column]
            for rid, row in enumerate(self._rows):
                if row is not None:
                    sidx.add(row[off], rid)
            self._sorted_indexes[column] = sidx

    def drop_index(self, column: str) -> None:
        if self.primary_key == column:
            raise DatabaseError("cannot drop primary-key index")
        self._hash_indexes.pop(column, None)
        self._sorted_indexes.pop(column, None)

    def indexed_columns(self) -> List[str]:
        return sorted(set(self._hash_indexes) | set(self._sorted_indexes))

    # -- mutation -----------------------------------------------------------

    def insert(self, values: Dict[str, Any]) -> int:
        """Insert one row given a column->value mapping; returns the row id."""
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

    def update_row(self, rid: int, changes: Dict[str, Any]) -> None:
        row = self._get_live(rid)
        applied: Dict[str, Any] = {}
        for cname, value in changes.items():
            col = self._col(cname)
            off = self._offset[cname]
            old = row[off]
            new = col.check(value)
            if cname == self.primary_key and new != old:
                if self._hash_indexes[cname].get(new):
                    raise DatabaseError(f"duplicate primary key {new!r}")
            row[off] = new
            if cname in self._hash_indexes:
                self._hash_indexes[cname].remove(old, rid)
                self._hash_indexes[cname].add(new, rid)
            if cname in self._sorted_indexes:
                self._sorted_indexes[cname].remove(old, rid)
                self._sorted_indexes[cname].add(new, rid)
            applied[cname] = new
        if self.observer is not None:
            self.observer(self.name, "update", rid, applied)

    def delete_row(self, rid: int) -> None:
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

    def _get_live(self, rid: int) -> list:
        if not (0 <= rid < len(self._rows)) or self._rows[rid] is None:
            raise DatabaseError(f"no row {rid} in table {self.name!r}")
        return self._rows[rid]

    # -- access ------------------------------------------------------------

    def row_dict(self, rid: int) -> Dict[str, Any]:
        row = self._get_live(rid)
        return {c.name: row[i] for i, c in enumerate(self.columns)}

    def value(self, rid: int, column: str) -> Any:
        return self._get_live(rid)[self._offset[column]]

    def scan(self) -> Iterator[int]:
        """Iterate row ids of all live rows (charges scan accounting)."""
        for rid, row in enumerate(self._rows):
            if row is not None:
                self.rows_scanned += 1
                self.scan_counter.total += 1
                yield rid

    def lookup_eq(self, column: str, value: Any) -> List[int]:
        """Row ids where ``column == value``, via index if available."""
        if column in self._hash_indexes:
            rids = self._hash_indexes[column].get(value)
            n = len(rids)
            self.rows_scanned += n
            self.scan_counter.total += n
            return list(rids)
        off = self._offset[column]
        out = []
        for rid in self.scan():
            if self._rows[rid][off] == value:
                out.append(rid)
        return out

    def lookup_range(self, column: str, lo: Any = None, hi: Any = None,
                     lo_incl: bool = True, hi_incl: bool = True,
                     limit: Optional[int] = None) -> List[int]:
        """Row ids where ``lo <(=) column <(=) hi``, via sorted index if any.

        With a sorted index and a ``limit``, only the returned entries are
        charged to scan accounting (keyset pages stay O(page), not
        O(range)); results come back in value order.  Without an index the
        fallback scan charges every row it examines, limit or not, and
        returns ids in heap order.
        """
        if column in self._sorted_indexes:
            rids = self._sorted_indexes[column].range(lo, hi, lo_incl,
                                                      hi_incl, limit=limit)
            n = len(rids)
            self.rows_scanned += n
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
        for cname in list(self._hash_indexes):
            unique = self._hash_indexes[cname].unique
            idx = HashIndex(unique=unique)
            off = self._offset[cname]
            for rid, row in enumerate(self._rows):
                if row is not None:
                    idx.add(row[off], rid)
            self._hash_indexes[cname] = idx
        for cname in list(self._sorted_indexes):
            sidx = SortedIndex()
            off = self._offset[cname]
            for rid, row in enumerate(self._rows):
                if row is not None:
                    sidx.add(row[off], rid)
            self._sorted_indexes[cname] = sidx
