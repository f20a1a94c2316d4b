"""Secondary indexes for the relational engine.

Two flavours, matching what the MCAT query planner needs:

:class:`HashIndex`
    value -> row id, or ascending list of row ids once two rows share
    the value; O(1) equality lookups.  MCAT's attribute-name and
    object-id lookups live here.

:class:`SortedIndex`
    (value, rid) pairs kept sorted with ``bisect``; O(log n + k) range
    scans for ``<``/``>`` comparison operators in metadata queries.

NULLs are never indexed for ranges (SQL semantics: comparisons with NULL
are unknown), but hash indexes do store them so ``IS NULL``-style equality
checks stay cheap.  NaN is kept out of sorted indexes for the same reason
and a harder one: it compares false with everything, itself included, so
one NaN entry would break the order ``bisect`` relies on.

:class:`PairIndex`
    a sorted index over a *pair* of columns, e.g. ``(attr, value_num)``:
    entries sort by the first column, then the second, so one attribute's
    values are one contiguous, ordered run — the run starts at the
    one-member bound ``(attr,)``, which sorts before every ``(attr, x)``.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import DatabaseError


class HashIndex:
    """Equality index: value -> bucket of row ids.

    A bucket is the bare rid (an ``int``) while one row has the value, and
    becomes a list of rids in ascending order, ``[old, rid]``, when a second
    arrives; a list stays a list until its last rid goes.  Most catalog
    values (ids, paths) are filed once, and an ``int`` costs nothing the
    row id did not already.  A list, not a set, because it holds a rid in
    8 bytes where a set needs 40 or more, and because it has an order:
    :meth:`get` answers in ascending rid order, which is minting order.
    The price is :meth:`remove`: ``del`` shifts the rids after the
    removed one (a memmove of the list's tail) where a set discards in
    O(1).

    No bucket is ever empty (``remove`` deletes the last rid's bucket), so
    ``value in _map`` means "some row has it" — :class:`~repro.db.table.Table`
    relies on that when it maintains ``_map`` through its row plan.
    """

    def __init__(self, unique: bool = False):
        self.unique = unique
        self._map: Dict[Any, Union[int, List[int]]] = {}

    def add(self, value: Any, rid: int) -> None:
        value = _hashable(value)
        if self.unique and value in self._map:
            raise DatabaseError(f"unique index violation for value {value!r}")
        _file(self._map, value, rid)

    def remove(self, value: Any, rid: int) -> None:
        _unfile(self._map, _hashable(value), rid)

    def get(self, value: Any) -> List[int]:
        """A fresh list of the rids stored under ``value``, ascending
        (empty if none; an unhashable value is stored under none)."""
        try:
            bucket = self._map[value] if value in self._map else ()
        except TypeError:      # unhashable: a bytearray is stored as bytes
            bucket = self._map.get(bytes(value), ()) \
                if isinstance(value, bytearray) else ()
        return [bucket] if type(bucket) is int else list(bucket)


class NestedIndex:
    """Equality index over a pair of columns: first value -> {second
    value -> bucket}, each bucket as :class:`HashIndex` keeps one.

    Two levels, not one map keyed by the pair: a first value is filed
    once however many second values it has (a tuple per pair would cost
    several times the inner map's bytes), and its inner map lists its
    rows without a scan.  No inner map is ever empty.  Pairs come out of
    typed columns, so there is no bytearray to coerce.
    """

    unique = False

    def __init__(self):
        self._map: Dict[Any, Dict[Any, Union[int, List[int]]]] = {}

    def add(self, value: tuple, rid: int) -> None:
        first, second = value
        if first not in self._map:
            self._map[first] = {}
        _file(self._map[first], second, rid)

    def remove(self, value: tuple, rid: int) -> None:
        first, second = value
        if first in self._map:
            _unfile(self._map[first], second, rid)
            if not self._map[first]:
                del self._map[first]

    def first(self, value: Any) -> List[int]:
        """A fresh list of the rids whose first column is ``value``,
        ascending."""
        inner = self._map[value] if value in self._map else {}
        return sorted([rid for second in inner for rid in (
            (inner[second],) if type(inner[second]) is int
            else inner[second])])

    def pairs(self, firsts: Sequence[Any], seconds) -> List[int]:
        """The rids of every pair ``(f, s)`` with ``f`` in ``firsts`` and
        ``s`` in ``seconds``: by ``firsts`` in the order given, then
        ``seconds`` in theirs, each bucket ascending.  No Python call per
        key."""
        found = self._map
        return [rid for inner in [found[f] for f in firsts if f in found]
                for s in seconds if s in inner
                for rid in ((inner[s],) if type(inner[s]) is int
                            else inner[s])]


def _file(found: Dict[Any, Any], key: Any, rid: int) -> None:
    """File ``rid`` in ``found``'s bucket of ``key``."""
    if key not in found:
        found[key] = rid
    elif type(found[key]) is int:
        old = found[key]
        found[key] = [old, rid] if old < rid else [rid, old]
    elif found[key][-1] < rid:
        found[key].append(rid)
    else:                                   # update_row re-files an old rid
        bisect.insort(found[key], rid)


def _unfile(found: Dict[Any, Any], key: Any, rid: int) -> None:
    """Take ``rid`` out of ``found``'s bucket of ``key``; the bucket goes
    with its last rid."""
    bucket = found[key] if key in found else None
    if bucket == rid:                       # an int bucket: its one row
        del found[key]
    elif type(bucket) is list:
        pos = bisect.bisect_left(bucket, rid)
        if pos < len(bucket) and bucket[pos] == rid:
            del bucket[pos]
            if not bucket:
                del found[key]


class SortedIndex:
    """Range index over comparable values.

    Keeps one sorted list of ``((1, typename), value, rid)`` entries;
    ``bisect`` gives the slice bounds for a range predicate.  The type
    name leads so that values of different types never meet in a
    comparison (each type sorts as its own run).
    :class:`~repro.db.table.Table` inserts such entries into ``_keys``
    itself, through its row plan; :meth:`_entry` is their one definition
    and :func:`sortable` the one rule for what gets one.
    """

    def __init__(self):
        self._keys: List[tuple] = []

    @staticmethod
    def _entry(value: Any, rid: int) -> tuple:
        return ((1, type(value).__name__), value, rid)

    def add(self, value: Any, rid: int) -> None:
        if sortable(value):
            bisect.insort(self._keys, self._entry(value, rid))

    def remove(self, value: Any, rid: int) -> None:
        if not sortable(value):
            return
        entry = self._entry(value, rid)
        pos = bisect.bisect_left(self._keys, entry)
        if pos < len(self._keys) and self._keys[pos] == entry:
            self._keys.pop(pos)

    def _floor(self, value: Any) -> tuple:
        """A key that sorts just before every entry of ``value``."""
        return self._entry(value, -1)

    def _ceiling(self, value: Any) -> tuple:
        """A key that sorts just after every entry of ``value``."""
        return self._entry(value, 2**62)

    def _bounds(self, lo: Any, hi: Any, lo_incl: bool,
                hi_incl: bool) -> Tuple[int, int]:
        """Positions in ``_keys`` of the first entry inside [lo, hi] and
        of the first one past it."""
        if lo is None:
            start = 0
        elif lo_incl:
            start = bisect.bisect_left(self._keys, self._floor(lo))
        else:
            start = bisect.bisect_right(self._keys, self._ceiling(lo))
        if hi is None:
            stop = len(self._keys)
        elif hi_incl:
            stop = bisect.bisect_right(self._keys, self._ceiling(hi))
        else:
            stop = bisect.bisect_left(self._keys, self._floor(hi))
        return start, max(start, stop)

    def range(self, lo: Any = None, hi: Any = None,
              lo_incl: bool = True, hi_incl: bool = True,
              limit: Optional[int] = None) -> List[int]:
        """Row ids whose value lies in [lo, hi] (bounds optional).

        ``limit`` caps the result at the first ``limit`` ids in value
        order — the keyset-pagination primitive: a page touches only the
        entries it returns, not the whole qualifying range.
        """
        start, stop = self._bounds(lo, hi, lo_incl, hi_incl)
        if limit is not None:
            stop = min(stop, start + max(0, int(limit)))
        return [entry[-1] for entry in self._keys[start:stop]]

    def count(self, lo: Any = None, hi: Any = None,
              lo_incl: bool = True, hi_incl: bool = True) -> int:
        """How many entries :meth:`range` would return: two bisects, no
        entry read — what a planner may ask before it decides to probe."""
        start, stop = self._bounds(lo, hi, lo_incl, hi_incl)
        return stop - start


class PairIndex(SortedIndex):
    """Range index over the values of two columns, as a pair.

    Entries are flat ``(first, second, rid)`` tuples — no type tag: both
    members come out of typed columns, so each compares with its like.
    Values and bounds are tuples.  A bound may be the one-member prefix
    ``(first,)``, which sorts before every ``(first, x)``, but only where
    "before" is what is asked of it: an inclusive ``lo`` or an exclusive
    ``hi`` (for "up to the end of ``first``'s run", an exclusive ``hi``
    of the next possible ``first`` does it).
    """

    @staticmethod
    def _entry(value: tuple, rid: int) -> tuple:
        return value + (rid,)

    def _floor(self, value: tuple) -> tuple:
        return value        # a prefix sorts before whatever extends it

    def _ceiling(self, value: tuple) -> tuple:
        if len(value) != 2:
            raise DatabaseError(
                f"a one-member bound {value!r} can only open a range "
                "(inclusive lo, exclusive hi)")
        return value + (2**62,)


def op_range(op: str, value: Any, first: Any = None,
             past: Any = None) -> Tuple[Any, Any, bool, bool]:
    """``(lo, hi, lo_incl, hi_incl)``: the sorted-index range whose
    entries satisfy ``entry op value`` for ``op`` in ``= < <= > >=``,
    within the run from ``first`` (inclusive) to ``past`` (exclusive); a
    ``None`` end is the index's own."""
    if op == "=":
        return value, value, True, True
    if op in ("<", "<="):
        return first, value, True, op == "<="
    return value, past, op == ">=", False


def sortable(value: Any) -> bool:
    """Does ``value`` get an entry in a sorted index?  Not NULL, not NaN,
    and not a tuple (a several-column key) with either among its members."""
    if type(value) is tuple:
        for member in value:
            if member is None or member != member:
                return False
        return True
    return value is not None and value == value


def _hashable(value: Any) -> Any:
    """Coerce mutable byte types so they can key a dict."""
    if isinstance(value, bytearray):
        return bytes(value)
    return value
