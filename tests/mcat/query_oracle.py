"""The attribute query as it was answered object by object, kept as the
reference the set-at-a-time planner (:mod:`repro.mcat.query`) is checked
against by ``test_query_oracle.py``.

Each batch of object rows has its metadata read into a dict of lists per
object, and every condition is a comparator closure run on each stored
value of each object (:func:`_comparator`, :func:`_satisfies`).  The
index plan's probes, its cost model and the counting are the planner's
own; everything that tests a condition or builds a row is here, as it
was, so a difference in what a query means, returns or is charged shows
up as a difference between the two.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, \
    Sequence, Set, Tuple

from repro.db.sql import like_to_regex
from repro.errors import QueryError
from repro.mcat.catalog import Mcat
from repro.mcat.query import Condition, DisplayOnly, QueryPage, \
    QueryResult, Visible, _COMPARE, _Probe, _condition_plan, _count_query, \
    _index_page_is_cheaper, _number, _probes, _rows_per_object
from repro.mcat.schema import subtree_path_range
from repro.util import paths

#: a stored metadata value as the query sees it: ``(value, value_num)``
Stored = Tuple[Optional[str], Optional[float]]


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


def metadata_values_bulk(self: Mcat, targets: Sequence[Any], attrs
                         ) -> List[Dict[str, List[Tuple[Any, Any]]]]:
    """What a query looks at of N targets' metadata, under one charged
    block: per target ``{attr: [(value, value_num), ...]}`` for the
    attributes in ``attrs`` only, an attribute's values in minting
    order.  Reads five columns of each triple where
    :meth:`get_metadata_bulk` builds every row whole."""
    with self._charge:
        t = self._metadata
        out = []
        for target_kind, target_id in targets:
            vals: Dict[str, List[Tuple[Any, Any]]] = {}
            for _mid, kind, attr, value, num in sorted(t.iter_values(
                    t.lookup_eq("target_id", target_id),
                    ("mid", "target_kind", "attr", "value",
                     "value_num"))):
                if kind == target_kind and attr in attrs:
                    vals.setdefault(attr, []).append((value, num))
            out.append(vals)
        return out


def _targets(probe: _Probe, md) -> Set[int]:
    """``_Probe.targets`` as it was: the row-by-row branch tests each
    value with :func:`_comparator`."""
    if probe.span is not None:
        return probe.targets(md)
    test = _comparator(probe.cond.op, probe.cond.value)
    return {tid for kind, tid, value, num in md.iter_values(
                md.lookup_eq("attr", probe.cond.attr),
                ("target_kind", "target_id", "value", "value_num"))
            if kind == "object" and test(value, num)}


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
        ids = _targets(probes[0], md)
        probed = 1
        for probe in probes[1:]:
            if len(ids) * per_survivor <= probe.count:
                break
            ids &= _targets(probe, md)
            probed += 1
    # under scope and past the cursor is one range of paths, the one a
    # walk of the path index would seek
    after, before = subtree_path_range(scope, cursor)
    rows = [obj for obj in mcat.get_objects_by_ids(sorted(ids))
            if after < obj["path"] < before]
    rows.sort(key=operator.itemgetter("path"))
    return rows, [probe.cond for probe in probes[probed:]]


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
    out = metadata_values_bulk(mcat, targets, attrs) if attrs \
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
