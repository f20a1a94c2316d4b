"""Secondary indexes for the relational engine.

Two flavours, matching what the MCAT query planner needs:

:class:`HashIndex`
    value -> set of row ids; O(1) equality lookups.  MCAT's attribute-name
    and object-id lookups live here.

:class:`SortedIndex`
    (value, rid) pairs kept sorted with ``bisect``; O(log n + k) range
    scans for ``<``/``>`` comparison operators in metadata queries.

NULLs are never indexed for ranges (SQL semantics: comparisons with NULL
are unknown), but hash indexes do store them so ``IS NULL``-style equality
checks stay cheap.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Set

from repro.errors import DatabaseError


class HashIndex:
    """Equality index: value -> row-id set.

    No bucket is ever empty (``remove`` deletes the last rid's bucket), so
    ``value in _map`` means "some row has it" — :class:`~repro.db.table.Table`
    relies on that when it maintains ``_map`` through its row plan.
    """

    def __init__(self, unique: bool = False):
        self.unique = unique
        self._map: Dict[Any, Set[int]] = {}

    def add(self, value: Any, rid: int) -> None:
        value = _hashable(value)
        bucket = self._map.get(value)
        if bucket is None:
            self._map[value] = {rid}
        elif self.unique:
            raise DatabaseError(f"unique index violation for value {value!r}")
        else:
            bucket.add(rid)

    def remove(self, value: Any, rid: int) -> None:
        value = _hashable(value)
        bucket = self._map.get(value)
        if bucket is not None:
            bucket.discard(rid)
            if not bucket:
                del self._map[value]

    def get(self, value: Any) -> Set[int]:
        """A copy of the rid set stored under ``value`` (empty if none)."""
        try:
            return set(self._map[value]) if value in self._map else set()
        except TypeError:      # unhashable: a bytearray is stored as bytes
            return set(self._map.get(_hashable(value), ()))

    def __len__(self) -> int:
        return sum(len(b) for b in self._map.values())


class SortedIndex:
    """Range index over comparable values.

    Keeps one sorted list of ``((1, typename), value, rid)`` entries;
    ``bisect`` gives the slice bounds for a range predicate.  The type
    name leads so that values of different types never meet in a
    comparison (each type sorts as its own run).
    :class:`~repro.db.table.Table` inserts such entries into ``_keys``
    itself, through its row plan; :meth:`_entry` is their one definition.
    """

    def __init__(self):
        self._keys: List[tuple] = []

    @staticmethod
    def _entry(value: Any, rid: int) -> tuple:
        return ((1, type(value).__name__), value, rid)

    def add(self, value: Any, rid: int) -> None:
        if value is None:
            return  # NULL never participates in range scans
        bisect.insort(self._keys, self._entry(value, rid))

    def remove(self, value: Any, rid: int) -> None:
        if value is None:
            return
        entry = self._entry(value, rid)
        pos = bisect.bisect_left(self._keys, entry)
        if pos < len(self._keys) and self._keys[pos] == entry:
            self._keys.pop(pos)

    def range(self, lo: Any = None, hi: Any = None,
              lo_incl: bool = True, hi_incl: bool = True,
              limit: Optional[int] = None) -> List[int]:
        """Row ids whose value lies in [lo, hi] (bounds optional).

        ``limit`` caps the result at the first ``limit`` ids in value
        order — the keyset-pagination primitive: a page touches only the
        entries it returns, not the whole qualifying range.
        """
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

    def __len__(self) -> int:
        return len(self._keys)


def _hashable(value: Any) -> Any:
    """Coerce mutable byte types so they can key a dict."""
    if isinstance(value, bytearray):
        return bytes(value)
    return value
