"""Attribute-based discovery: the MySRB query interface.

The paper describes the query page precisely: each condition has (1) a
metadata-name drop-down populated with "all the metadata names that are
queryable in that collection and every collection in the hierarchy under
the collection", (2) a comparison operator among ``= > < <= >= <> like
not like``, (3) a value box, and (4) a checkbox to *display* the
attribute in the result listing even if it is not constrained.  The
query "is taken as a conjunctive query ... an AND of all the conditions".

:func:`search` implements exactly that against the MCAT, returning one
row per matching object with its logical path and the requested display
attributes.  Annotations and selected system metadata can optionally be
queried too, as the paper allows.

The query is answered a set at a time, over sets of row ids (DESIGN.md,
"Query planning"): where the sorted ``(attr, value_num)`` /
``(attr, value)`` indexes can answer a condition, it is one range probe
whose size is known before any row is read, and the smallest condition
drives.  Candidates travel as ``(path, oid, rid)`` keys in path-ordered
batches.  Per batch, the values the query looks at are one charged
read, each condition is tested once over the whole batch
(:func:`_select`, the one definition of what a condition means) and the
passing sets are intersected; object rows, for the caller's visibility
filter, and display values are read for the hits only.  No step costs a
charged catalog op, or a Python call, per row it passes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress, starmap
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, \
    Optional, Sequence, Set, Tuple

from repro.db.index import op_range
from repro.db.sql import COMPARE, like_to_regex
from repro.errors import QueryError
from repro.mcat.schema import NUM_INDEX, TEXT_INDEX, numeric, \
    subtree_path_range
from repro.util import paths

if TYPE_CHECKING:       # the catalog imports this module to run queries
    from repro.mcat.catalog import Mcat

OPERATORS = ("=", "<>", ">", "<", ">=", "<=", "like", "not like")

#: system metadata names exposed to the query interface
SYSTEM_ATTRS = ("SYS:owner", "SYS:data_type", "SYS:kind", "SYS:size")


@dataclass(frozen=True)
class Condition:
    """One row of the MySRB query form."""

    attr: str
    op: str = "="
    value: Optional[str] = None
    display: bool = True

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise QueryError(f"unknown operator {self.op!r}; use one of {OPERATORS}")


@dataclass(frozen=True)
class DisplayOnly:
    """A checked display box with no constraint ("one can check the box of
    a metadata name without using it as part of any query condition")."""

    attr: str


@dataclass
class QueryResult:
    columns: List[str]
    rows: List[Tuple[Any, ...]]

    def dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, r)) for r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class QueryPage:
    """One cursor page of a :func:`search_page` result.

    ``next_cursor`` is an opaque keyset token (the last path the page
    scanned); ``None`` means the result set is exhausted.  Feeding it
    back to :func:`search_page` resumes strictly after it, so a client
    iterates the full result without any server-side cursor state.
    """

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    next_cursor: Optional[str] = None

    def dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, r)) for r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


#: a stored value as the query sees it: ``(oid, attr, value, value_num)``
Stored = Tuple[int, str, Optional[str], Optional[float]]
#: a candidate object as the plans pass it: ``(path, oid, row id)``
Key = Tuple[str, int, int]
#: the caller's ACL filter: object rows in, one verdict per row out
Visible = Callable[[List[Dict[str, Any]]], Sequence[bool]]


def queryable_attributes(mcat, scope: str,
                         include_system: bool = False) -> List[str]:
    """Attribute names for the drop-down: every metadata name attached to
    any object in ``scope`` or below, plus structural attributes defined
    for the scope's subtree."""
    return mcat.queryable_attributes(scope, include_system)


def run_queryable_attributes(mcat: Mcat, scope: str,
                             include_system: bool = False) -> List[str]:
    """:func:`queryable_attributes` over one partition's tables."""
    scope = paths.normalize(scope)
    in_scope = {("object", row["oid"]) for row in
                mcat.objects_in_collection(scope, recursive=True)}
    colls = mcat.subtree_collections(scope)
    in_scope.update(("collection", row["cid"]) for row in colls)
    # one attribute at a time off the attr index, done with it at the
    # first triple that hangs off something in scope
    md = mcat.db.table("metadata")
    names = {attr for attr in md.distinct("attr")
             if not in_scope.isdisjoint(md.iter_values(
                 md.lookup_eq("attr", attr), ("target_kind", "target_id")))}
    coll_paths = {row["path"] for row in colls}
    st = mcat.db.table("structural_meta")
    names.update(attr for coll_path, attr in st.iter_values(
        list(st.scan()), ("coll_path", "attr")) if coll_path in coll_paths)
    out = sorted(names)
    if include_system:
        out.extend(SYSTEM_ATTRS)
    return out


# -- what a condition means ----------------------------------------------------


def _select(cond: Condition, stored: Sequence[Stored]) -> Set[int]:
    """The target ids among ``stored`` that satisfy ``cond``: the one
    definition of what a condition means, tested once for a whole batch.

    Existential: a target passes when *some* stored value of the
    condition's attribute does.  Numeric comparison applies when both
    sides parse as numbers; otherwise lexicographic on the text form,
    matching how MCAT-on-Oracle behaves with a VARCHAR value column plus
    a numeric mirror.  So a numeric value compares numerically against
    the rows that have a ``value_num`` and textually against the rest,
    and one that is not a number compares every row textually.  A NULL
    value matches nothing.  Every value is tested by C-level ``map``,
    with no Python call per value.
    """
    attr, op, wanted = cond.attr, cond.op, cond.value
    run = [(tid, value, num) for tid, name, value, num in stored
           if name == attr and value is not None]
    tids, values, nums = zip(*run) if run else ((), (), ())
    if op in ("like", "not like"):
        found = map(like_to_regex(wanted).match, values)
        return set(compress(tids, found if op == "like"
                            else map(operator.not_, found)))
    wanted_num = numeric(wanted)
    return set(compress(tids, starmap(COMPARE[op], [
        (value, wanted) if num is None or wanted_num is None
        else (num, wanted_num) for value, num in zip(values, nums)])))


# -- the index plan: conditions as probes of the sorted attribute indexes ------


def _attr_run(attr: str) -> Tuple[tuple, tuple, bool, bool]:
    """Range bounds holding every entry of ``attr`` in a sorted
    ``(attr, x)`` index: from the one-member ``(attr,)``, which sorts
    before every ``(attr, x)``, up to the least string after ``attr``."""
    return (attr,), (attr + "\0",), True, False


class _Probe:
    """One condition as the attribute indexes see it: how many metadata
    rows answering it will touch (:attr:`count`, known before a row is
    read), and :meth:`targets`, the objects that satisfy it."""

    __slots__ = ("cond", "span", "count")

    def __init__(self, md, cond: Condition):
        self.cond = cond
        self.span = self._span(md, cond)
        self.count = md.count_range(
            *(self.span or (TEXT_INDEX,) + _attr_run(cond.attr)))

    @staticmethod
    def _span(md, cond: Condition) -> Optional[tuple]:
        """``lookup_range`` arguments selecting exactly the rows that
        satisfy ``cond``, or None when only :func:`_select` can tell
        (``<>``, the LIKEs, and a numeric comparison on an attribute that
        also holds values that are not numbers)."""
        op, attr = cond.op, cond.attr
        if op not in ("=", "<", "<=", ">", ">="):
            return None
        run = _attr_run(attr)
        wanted = numeric(cond.value)
        if wanted is None:
            index, point = TEXT_INDEX, (attr, cond.value)
        elif wanted != wanted or (md.count_range(NUM_INDEX, *run)
                                  != md.count_range(TEXT_INDEX, *run)):
            return None
        else:
            index, point = NUM_INDEX, (attr, wanted)
        return (index,) + op_range(op, point, *run[:2])

    def targets(self, md) -> Set[int]:
        if self.span is not None:
            return {tid for kind, tid in md.iter_values(
                        md.lookup_range(*self.span),
                        ("target_kind", "target_id"))
                    if kind == "object"}
        return _select(self.cond, [
            (tid, attr, value, num)
            for kind, tid, attr, value, num in md.iter_values(
                md.lookup_eq("attr", self.cond.attr),
                ("target_kind", "target_id", "attr", "value", "value_num"))
            if kind == "object"])


def _probes(mcat: Mcat,
            conditions: Sequence[Condition]) -> Optional[List[_Probe]]:
    """The conditions as index probes, smallest first; None when the
    index plan does not apply: no condition to drive it, a ``SYS:``/
    ``ANN:`` pseudo-attribute (those live outside the metadata table), or
    the attribute indexes dropped."""
    if not conditions:
        return None
    if any(c.attr.startswith(("SYS:", "ANN:")) for c in conditions):
        return None
    md = mcat.db.table("metadata")
    if not {"attr", NUM_INDEX, TEXT_INDEX} <= set(md.indexed_columns()):
        return None
    return sorted((_Probe(md, c) for c in conditions),
                  key=operator.attrgetter("count"))


def _rows_per_object(mcat: Mcat) -> float:
    """Metadata rows read, on average, to fetch one object's metadata."""
    return len(mcat.db.table("metadata")) / max(
        1, len(mcat.db.table("objects")))


def _keyed(mcat: Mcat, rids: Sequence[int]) -> List[Key]:
    """``(path, oid, rid)`` of each object row in ``rids``: the two
    columns a plan reads of an object it passes."""
    return [(path, oid, rid) for rid, (path, oid) in zip(
        rids, mcat.db.table("objects").iter_values(rids, ("path", "oid")))]


def _candidates(mcat: Mcat, probes: List[_Probe], scope: str,
                cursor: Optional[str] = None
                ) -> Tuple[List[Key], List[Condition]]:
    """Run the index plan: ``(candidates, conditions left to verify)``.

    The candidates are the objects under ``scope`` (past ``cursor``), in
    path order, that satisfy every probed condition.  Probing goes
    smallest first and stops as soon as the next probe would touch more
    rows than fetching the survivors does; the conditions not probed are
    returned for the caller to verify from the survivors' metadata,
    which it fetches anyway.  Two charged catalog ops, however many rows.
    """
    md = mcat.db.table("metadata")
    per_survivor = 1 + _rows_per_object(mcat)
    with mcat._charge:
        ids = probes[0].targets(md)
        probed = 1
        for probe in probes[1:]:
            if len(ids) * per_survivor <= probe.count:
                break
            ids &= probe.targets(md)
            probed += 1
    with mcat._charge:
        rids = mcat.db.table("objects").lookup_eq_many("oid", sorted(ids))
    # under scope and past the cursor is one range of paths, the one a
    # walk of the path index would seek
    after, before = subtree_path_range(scope, cursor)
    keyed = [key for key in _keyed(mcat, rids) if after < key[0] < before]
    keyed.sort()
    return keyed, [probe.cond for probe in probes[probed:]]


def _index_page_is_cheaper(mcat: Mcat, probes: List[_Probe], scope: str,
                           cursor: Optional[str], limit: int) -> bool:
    """Should a page come off the index plan or off a walk of the scope?
    Decided in catalog rows touched, from counts that cost two bisects.

    Walking from the cursor, ``limit`` matches are at best as dense as
    the smallest condition's rows among the objects still ahead, and
    every object passed costs its row and its metadata.  The index plan
    reads the smallest condition's rows and an object row for each, and
    metadata only for the page.
    """
    ahead = mcat.db.table("objects").count_range(
        "path", *subtree_path_range(scope, cursor),
        lo_incl=False, hi_incl=False)
    smallest = probes[0].count
    per_object = _rows_per_object(mcat)
    walked = min(ahead, limit * max(1.0, ahead / max(1, smallest)))
    return (2 * smallest + min(smallest, limit) * per_object
            < walked * (1 + per_object))


# -- gathering: batches of candidates in, result rows out ----------------------


def _chunks(keys: List[Key], size: Optional[int]
            ) -> Iterator[Tuple[List[Key], bool]]:
    """``keys`` as ``(batch, more keys follow)`` pairs of ``size`` keys."""
    step = max(1, len(keys) if size is None else size)
    for start in range(0, len(keys), step):
        yield keys[start:start + step], start + step < len(keys)


def _walk(mcat: Mcat, scope: str, cursor: Optional[str], size: int
          ) -> Iterator[Tuple[List[Key], bool]]:
    """The objects under ``scope`` past ``cursor`` as ``(batch, more keys
    follow)`` pairs, each one charged keyset page of the path index."""
    while True:
        with mcat._charge:
            rids, cursor = mcat._page(scope, cursor, size, True)
        yield _keyed(mcat, rids), cursor is not None
        if cursor is None:
            return


def _gather(mcat: Mcat, batches, conditions: Sequence[Condition],
            display_attrs: List[str], include_annotations: bool,
            include_system: bool, visible: Optional[Visible],
            limit: Optional[int]
            ) -> Tuple[List[Tuple[Any, ...]], int, Optional[str]]:
    """Result rows for the first ``limit`` visible matches in ``batches``.

    ``batches`` yields path-ordered candidates as ``(batch, more keys
    follow)``.  Per batch: one bulk read of the values the query looks
    at, each condition tested once (:func:`_select`) and the passing
    sets intersected, one call of ``visible`` with the object rows of
    the hits — the only rows read whole.  Returns ``(rows, matched,
    next_cursor)``: ``matched`` counts rows that satisfied the conditions
    up to the last one delivered, visible or not; ``next_cursor`` is that
    row's path if ``limit`` was reached with rows still unexamined, else
    None.
    """
    attrs = set(display_attrs).union(c.attr for c in conditions)
    objects = mcat.db.table("objects")
    rows: List[Tuple[Any, ...]] = []
    matched = 0
    for batch, more in batches:
        if not batch:
            continue
        stored = _stored(mcat, batch, attrs, include_annotations,
                         include_system)
        hits = batch
        if conditions:
            passed = set.intersection(
                *[_select(cond, stored) for cond in conditions])
            hits = [key for key in batch if key[1] in passed]
        if not hits:
            continue
        shown = hits if visible is None else list(compress(hits, visible(
            objects.row_dicts([rid for _path, _oid, rid in hits]))))
        need = None if limit is None else max(1, limit - len(rows))
        if need is not None and len(shown) >= need:
            last = shown[need - 1]
            rows += _display(stored, shown[:need], display_attrs)
            matched += hits.index(last) + 1
            unexamined = more or last is not batch[-1]
            return rows, matched, last[0] if unexamined else None
        matched += len(hits)
        rows += _display(stored, shown, display_attrs)
    return rows, matched, None


def _stored(mcat: Mcat, batch: List[Key], attrs: Set[str],
            include_annotations: bool, include_system: bool
            ) -> List[Stored]:
    """Every value the query looks at of the objects in ``batch``, as
    ``(oid, attr, value, value_num)``: the metadata of the attributes in
    ``attrs``, then annotations, then system metadata, so one object's
    values of one attribute are in the order they were stored.
    Metadata and annotations are each one charged bulk read for the
    whole batch, and not read at all when the query does not look at
    them."""
    oids = [oid for _path, oid, _rid in batch]
    stored = mcat._object_metadata(oids, attrs) if attrs else []
    if include_annotations:
        stored += [(oid, "ANN:" + ann["ann_type"], ann["text"], None)
                   for oid, anns in zip(oids, mcat.annotations_for_bulk(
                       [("object", oid) for oid in oids]))
                   for ann in anns]
    if include_system:
        objects = mcat.db.table("objects")
        rids = [rid for _path, _oid, rid in batch]
        for attr in SYSTEM_ATTRS:       # "SYS:" + an objects column
            stored += [(oid, attr, str(value),
                        float(value) if attr == "SYS:size" else None)
                       for oid, value in objects.iter_values(
                           rids, ("oid", attr[4:])) if value is not None]
    return stored


def _display(stored: List[Stored], hits: List[Key],
             display_attrs: List[str]) -> List[Tuple[Any, ...]]:
    """Result rows of ``hits``: the path, then per displayed attribute
    the hit's stored values joined with '; ' (None if none), read off
    ``stored`` for the hits only."""
    wanted = {oid for _path, oid, _rid in hits}
    shown = set(display_attrs)
    cells: Dict[Tuple[int, str], str] = {}
    for key, value in [((tid, attr), value)
                       for tid, attr, value, _num in stored
                       if tid in wanted and attr in shown
                       and value is not None]:
        cells[key] = cells[key] + "; " + value if key in cells else value
    columns = [[(oid, attr) in cells and cells[oid, attr] or None
                for _path, oid, _rid in hits] for attr in display_attrs]
    return list(zip([path for path, _oid, _rid in hits], *columns))


def _condition_plan(conditions: Sequence[Condition | DisplayOnly]
                    ) -> Tuple[List[Condition], List[str]]:
    """Split the form rows into constraints and displayed attributes."""
    real_conditions = [c for c in conditions if isinstance(c, Condition)]
    display_attrs: List[str] = []
    for c in conditions:
        attr = c.attr
        show = c.display if isinstance(c, Condition) else True
        if show and attr not in display_attrs:
            display_attrs.append(attr)
    for c in real_conditions:
        if c.value is None:
            raise QueryError(f"condition on {c.attr!r} has no value")
    return real_conditions, display_attrs


def _count_query(mcat: Mcat, strategy: str, plan: str, rows_before: int,
                 matched: int) -> None:
    metrics = mcat.obs.metrics
    metrics.inc("mcat.queries", strategy=strategy, plan=plan)
    metrics.inc("mcat.query_rows_scanned", mcat._rows_scanned() - rows_before,
                strategy=strategy, plan=plan)
    metrics.inc("mcat.query_rows_matched", matched,
                strategy=strategy, plan=plan)


def search(mcat, scope: str,
           conditions: Sequence[Condition | DisplayOnly],
           **options: Any) -> QueryResult:
    """Run a conjunctive attribute query under collection ``scope``.

    Returns one row per matching object: ``path`` first, then a column per
    displayed attribute (multi-valued attributes join with '; ').
    ``options`` are ``include_annotations``, ``include_system``,
    ``limit``, ``strategy`` and ``visible``.  ``visible`` is the caller's
    ACL filter — object rows in, a verdict per row out — applied to the
    matches a batch at a time; only rows it passes are returned or count
    toward ``limit``.

    ``strategy`` selects the access plan:

    * ``"scan"``   — enumerate every object under ``scope`` and test each
      (always correct; cost ~ objects in scope);
    * ``"index"``  — answer the conditions from the metadata attribute
      indexes, smallest first, and verify scope membership per hit (cost
      ~ rows of the most selective conditions); falls back to scan when
      not applicable;
    * ``"auto"``   — index when possible, else scan.  Results are
      identical across strategies (asserted in tests and in E4).

    ``mcat`` is any catalog: it answers through its own ``search``
    method, which routes to the partitions holding ``scope`` and runs
    :func:`run_search` on each.
    """
    return mcat.search(scope, conditions, **options)


def run_search(mcat: Mcat, scope: str,
               conditions: Sequence[Condition | DisplayOnly],
               include_annotations: bool = False,
               include_system: bool = False,
               limit: Optional[int] = None,
               strategy: str = "auto",
               visible: Optional[Visible] = None) -> QueryResult:
    """:func:`search` over one partition's tables."""
    if strategy not in ("auto", "scan", "index"):
        raise QueryError(f"unknown strategy {strategy!r}")
    scope = paths.normalize(scope)
    rows_before = mcat._rows_scanned()
    real_conditions, display_attrs = _condition_plan(conditions)
    probes = _probes(mcat, real_conditions) \
        if strategy in ("auto", "index") else None
    if probes is not None:
        plan = "index"
        candidates, unverified = _candidates(mcat, probes, scope)
    else:
        plan = "scan"
        with mcat._charge:
            candidates = _keyed(mcat, mcat._subtree(scope, True))
        unverified = real_conditions
    rows, matched, _cursor = _gather(
        mcat, _chunks(candidates, limit), unverified, display_attrs,
        include_annotations, include_system, visible, limit)
    _count_query(mcat, strategy, plan, rows_before, matched)
    return QueryResult(columns=["path"] + display_attrs, rows=rows)


def search_page(mcat, scope: str,
                conditions: Sequence[Condition | DisplayOnly],
                **options: Any) -> QueryPage:
    """One keyset page of :func:`search`, charged per page.

    Same conjunctive semantics, row shape and ``visible`` filter as
    :func:`search` (``options``: ``include_annotations``,
    ``include_system``, ``limit``, ``cursor``, ``visible``), but the
    catalog is touched O(page) at a time and the page closes at ``limit``
    visible matches.  Paths are the stable ordering key (identical to
    the materializing plans' order) and the cursor is the last path
    delivered.  Two plans, chosen per page by
    :func:`_index_page_is_cheaper`: *walk* the sorted ``objects.path``
    index strictly after ``cursor`` in batches of ``limit`` and test each
    object (a selective filter may examine many batches to fill a page),
    or take the index plan's candidates past the cursor.  An exhausted
    scan returns ``next_cursor=None``.  A scope that spans partitions is
    one page from each, merged
    (:func:`repro.mcat.shard.merge_keyset_pages`).
    """
    return mcat.search_page(scope, conditions, **options)


def run_search_page(mcat: Mcat, scope: str,
                    conditions: Sequence[Condition | DisplayOnly],
                    include_annotations: bool = False,
                    include_system: bool = False,
                    limit: int = 100,
                    cursor: Optional[str] = None,
                    visible: Optional[Visible] = None) -> QueryPage:
    """:func:`search_page` over one partition's tables."""
    scope = paths.normalize(scope)
    rows_before = mcat._rows_scanned()
    real_conditions, display_attrs = _condition_plan(conditions)
    page_limit = max(1, int(limit))
    probes = _probes(mcat, real_conditions)
    if probes is not None and _index_page_is_cheaper(
            mcat, probes, scope, cursor, page_limit):
        plan = "index"
        candidates, unverified = _candidates(mcat, probes, scope, cursor)
        batches = _chunks(candidates, page_limit)
    else:
        plan = "scan"
        batches = _walk(mcat, scope, cursor, page_limit)
        unverified = real_conditions
    rows, matched, next_cursor = _gather(
        mcat, batches, unverified, display_attrs, include_annotations,
        include_system, visible, page_limit)
    _count_query(mcat, "page", plan, rows_before, matched)
    return QueryPage(columns=["path"] + display_attrs, rows=rows,
                     next_cursor=next_cursor)
