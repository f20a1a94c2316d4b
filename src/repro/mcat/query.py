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

The query is answered a set at a time (DESIGN.md, "Query planning"):
each condition is compiled once; where the sorted ``(attr, value_num)`` /
``(attr, value)`` indexes can answer it, it is one range probe whose size
is known before any row is read; the smallest condition drives, object
rows, metadata, annotations and the caller's visibility filter are read
per batch of candidates, and no step costs a charged catalog op per row.
:func:`_comparator` — evaluated row by row by ``strategy="scan"`` — stays
the one definition of what a condition means.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, \
    Optional, Sequence, Set, Tuple

from repro.db.sql import like_to_regex
from repro.errors import QueryError
from repro.mcat.schema import NUM_INDEX, TEXT_INDEX, subtree_path_range
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


_COMPARE = {"=": operator.eq, "<>": operator.ne, ">": operator.gt,
            "<": operator.lt, ">=": operator.ge, "<=": operator.le}

#: a stored metadata value as the query sees it: ``(value, value_num)``
Stored = Tuple[Optional[str], Optional[float]]
#: the caller's ACL filter: object rows in, one verdict per row out
Visible = Callable[[List[Dict[str, Any]]], Sequence[bool]]


def _number(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def _comparator(op: str, wanted: str) -> Callable[..., bool]:
    """One condition compiled into a test over a stored ``(value,
    value_num)``.

    Numeric comparison applies when both sides parse as numbers; otherwise
    lexicographic on the text form, matching how MCAT-on-Oracle behaves
    with a VARCHAR value column plus a numeric mirror.  So a numeric
    ``wanted`` compares numerically against the rows that have a
    ``value_num`` and textually against the rest, and a ``wanted`` that is
    not a number compares every row textually.  A NULL value matches
    nothing.
    """
    if op in ("like", "not like"):
        match = like_to_regex(wanted).match
        if op == "like":
            return lambda value, num: \
                value is not None and match(value) is not None
        return lambda value, num: value is not None and match(value) is None
    if op not in _COMPARE:
        raise QueryError(f"unknown operator {op!r}")
    compare = _COMPARE[op]
    wanted_num = _number(wanted)
    if wanted_num is None:
        return lambda value, num: value is not None and compare(value, wanted)
    return lambda value, num: value is not None and (
        compare(value, wanted) if num is None else compare(num, wanted_num))


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
        satisfy ``cond``, or None when only the row-by-row test can tell
        (``<>``, the LIKEs, and a numeric comparison on an attribute that
        also holds values that are not numbers)."""
        op, attr = cond.op, cond.attr
        if op not in ("=", "<", "<=", ">", ">="):
            return None
        run = _attr_run(attr)
        first, past = run[:2]
        wanted = _number(cond.value)
        if wanted is None:
            index, point = TEXT_INDEX, (attr, cond.value)
        elif wanted != wanted or (md.count_range(NUM_INDEX, *run)
                                  != md.count_range(TEXT_INDEX, *run)):
            return None
        else:
            index, point = NUM_INDEX, (attr, wanted)
        if op == "=":
            return index, point, point, True, True
        if op in ("<", "<="):
            return index, first, point, True, op == "<="
        return index, point, past, op == ">=", False

    def targets(self, md) -> Set[int]:
        if self.span is not None:
            return {tid for kind, tid in md.iter_values(
                        md.lookup_range(*self.span),
                        ("target_kind", "target_id"))
                    if kind == "object"}
        test = _comparator(self.cond.op, self.cond.value)
        return {tid for kind, tid, value, num in md.iter_values(
                    md.lookup_eq("attr", self.cond.attr),
                    ("target_kind", "target_id", "value", "value_num"))
                if kind == "object" and test(value, num)}


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


def _candidates(mcat: Mcat, probes: List[_Probe], scope: str,
                cursor: Optional[str] = None
                ) -> Tuple[List[Dict[str, Any]], List[Condition]]:
    """Run the index plan: ``(object rows, conditions left to verify)``.

    The rows are the objects under ``scope`` (past ``cursor``), in path
    order, that satisfy every probed condition.  Probing goes smallest
    first and stops as soon as the next probe would touch more rows than
    fetching the survivors does; the conditions not probed are returned
    for the caller to verify from the survivors' metadata, which it
    fetches anyway.  Two charged catalog ops, however many rows.
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
    # under scope and past the cursor is one range of paths, the one a
    # walk of the path index would seek
    after, before = subtree_path_range(scope, cursor)
    rows = [obj for obj in mcat.get_objects_by_ids(sorted(ids))
            if after < obj["path"] < before]
    rows.sort(key=operator.itemgetter("path"))
    return rows, [probe.cond for probe in probes[probed:]]


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


# -- gathering: batches of candidate rows in, result rows out ------------------


def _chunks(rows: List[Dict[str, Any]], size: Optional[int]
            ) -> Iterator[Tuple[List[Dict[str, Any]], bool]]:
    """``rows`` as ``(batch, more rows follow)`` pairs of ``size`` rows."""
    step = max(1, len(rows) if size is None else size)
    for start in range(0, len(rows), step):
        yield rows[start:start + step], start + step < len(rows)


def _walk(mcat: Mcat, scope: str, cursor: Optional[str], size: int
          ) -> Iterator[Tuple[List[Dict[str, Any]], bool]]:
    """The objects under ``scope`` past ``cursor`` as ``(batch, more rows
    follow)`` pairs, each one charged keyset page of the path index."""
    while True:
        batch, cursor = mcat.objects_in_collection_page(
            scope, cursor=cursor, limit=size)
        yield batch, cursor is not None
        if cursor is None:
            return


def _gather(mcat: Mcat, batches, conditions: Sequence[Condition],
            display_attrs: List[str], include_annotations: bool,
            include_system: bool, visible: Optional[Visible],
            limit: Optional[int]
            ) -> Tuple[List[Tuple[Any, ...]], int, Optional[str]]:
    """Result rows for the first ``limit`` visible matches in ``batches``.

    ``batches`` yields path-ordered object rows as ``(batch, more rows
    follow)``.  Per batch: one bulk read of what the query needs of its
    objects, ``conditions`` tested row by row, one call of ``visible``
    for the rows that passed.  Returns ``(rows, matched, next_cursor)``:
    ``matched`` counts rows that satisfied the conditions up to the last
    one delivered, visible or not; ``next_cursor`` is that row's path if
    ``limit`` was reached with rows still unexamined, else None.
    """
    tests = [(c.attr, _comparator(c.op, c.value)) for c in conditions]
    attrs = set(display_attrs).union(c.attr for c in conditions)
    rows: List[Tuple[Any, ...]] = []
    matched = 0
    for batch, more in batches:
        if not batch:
            continue
        values = _attribute_values(mcat, batch, attrs, include_annotations,
                                   include_system)
        hits = [(obj, vals) for obj, vals in zip(batch, values)
                if _satisfies(vals, tests)] if tests \
            else list(zip(batch, values))
        verdicts = repeat(True) if visible is None or not hits \
            else visible([obj for obj, _vals in hits])
        for (obj, vals), ok in zip(hits, verdicts):
            matched += 1
            if not ok:
                continue
            row: List[Any] = [obj["path"]]
            for attr in display_attrs:
                row.append("; ".join([v for v, _n in vals.get(attr, ())
                                      if v is not None]) or None)
            rows.append(tuple(row))
            if limit is not None and len(rows) >= limit:
                unexamined = more or obj is not batch[-1]
                return rows, matched, obj["path"] if unexamined else None
    return rows, matched, None


def _satisfies(vals: Dict[str, List[Stored]], tests) -> bool:
    """Conjunctive, and existential per condition: each condition needs
    *some* stored value of its attribute to pass — not the same one."""
    for attr, test in tests:
        for value, num in vals.get(attr, ()):
            if test(value, num):
                break
        else:
            return False
    return True


def _attribute_values(mcat: Mcat, batch: List[Dict[str, Any]],
                      attrs: Set[str], include_annotations: bool,
                      include_system: bool) -> List[Dict[str, List[Stored]]]:
    """attr -> [(value, value_num), ...] for each object of ``batch``.

    Of an object's metadata only the attributes in ``attrs`` (those the
    query tests or displays) are kept.  Metadata and annotations are each
    one charged bulk read for the whole batch, and not read at all when
    the query does not look at them.
    """
    targets = [("object", obj["oid"]) for obj in batch]
    out = mcat.metadata_values_bulk(targets, attrs) if attrs \
        else [{} for _obj in batch]
    if include_annotations:
        for vals, anns in zip(out, mcat.annotations_for_bulk(targets)):
            for ann in anns:
                vals.setdefault("ANN:" + ann["ann_type"], []).append(
                    (ann["text"], None))
    if include_system:
        for vals, obj in zip(out, batch):
            vals.setdefault("SYS:owner", []).append((obj["owner"], None))
            if obj["data_type"] is not None:
                vals.setdefault("SYS:data_type", []).append(
                    (obj["data_type"], None))
            vals.setdefault("SYS:kind", []).append((obj["kind"], None))
            if obj["size"] is not None:
                vals.setdefault("SYS:size", []).append(
                    (str(obj["size"]), float(obj["size"])))
    return out


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
        candidates = mcat.objects_in_collection(scope, recursive=True)
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
