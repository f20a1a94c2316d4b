"""Query execution for the minimal relational engine.

:class:`Database` owns named tables and executes parsed SELECTs with a
small planner:

* top-level AND-ed equality predicates on indexed columns become index
  lookups (hash index),
* range predicates (``< > <= >=``) on sorted-indexed columns become index
  range scans,
* everything else falls back to a full scan with predicate filtering,
* joins are hash joins on the ``ON`` equality.

Cost model: when constructed with a clock, every executed query charges
``query_overhead + rows_touched * row_scan_cost`` virtual seconds, where
``rows_touched`` is the number of rows the plan actually examined.  This
is what separates the indexed and unindexed curves in the E4 catalog
scaling experiment — the *plan* differs, so the charged time differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DatabaseError
from repro.db import sql as S
from repro.db.table import Column, ScanCounter, Table
from repro.util.clock import SimClock


@dataclass
class ResultSet:
    """Columnar query result: ordered column names + row tuples."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]

    def dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        """Single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise DatabaseError(
                f"scalar() needs 1x1 result, got {len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Database:
    """A named collection of tables plus the SELECT executor."""

    QUERY_OVERHEAD_S = 200e-6       # parse/plan/connection overhead
    ROW_SCAN_COST_S = 2e-6          # per row examined

    def __init__(self, name: str = "db", clock: Optional[SimClock] = None):
        self.name = name
        self.clock = clock
        self._tables: Dict[str, Table] = {}
        self._observer = None
        # rows examined across all tables: every table created here counts
        # into it beside its own rows_scanned
        self.scan_counter = ScanCounter()
        self.queries_executed = 0

    # -- DDL -----------------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[Column],
                     primary_key: Optional[str] = None) -> Table:
        if name in self._tables:
            raise DatabaseError(f"table {name!r} already exists")
        if not name.isidentifier():
            raise DatabaseError(f"bad table name {name!r}")
        table = Table(name, columns, primary_key=primary_key)
        table.observer = self._observer
        table.scan_counter = self.scan_counter
        self._tables[name] = table
        return table

    def watch(self, observer) -> None:
        """Install ``observer(table, kind, rid, values)`` on every table,
        current and future — the sharded MCAT's write-log tap."""
        self._observer = observer
        for table in self._tables.values():
            table.observer = observer

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise DatabaseError(f"no table {name!r}")
        # the dropped table takes its share of the count with it
        table = self._tables.pop(name)
        self.scan_counter.total -= table.rows_scanned
        table.scan_counter = ScanCounter(table.rows_scanned)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise DatabaseError(f"no table {name!r} in database {self.name!r}") from None

    def tables(self) -> List[str]:
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    # -- query execution --------------------------------------------------------

    def execute(self, sql_text: str, params: Sequence[Any] = ()) -> ResultSet:
        """Parse and run a SELECT/UNION; charge the cost model if clocked."""
        query = S.parse(sql_text)
        before = self._total_scanned()
        result = self._run_query(query, list(params))
        self.queries_executed += 1
        if self.clock is not None:
            touched = self._total_scanned() - before
            self.clock.advance(self.QUERY_OVERHEAD_S +
                               touched * self.ROW_SCAN_COST_S)
        return result

    def execute_page(self, sql_text: str, params: Sequence[Any] = (),
                     cursor: Optional[Any] = None,
                     limit: int = 100) -> Tuple[ResultSet, Optional[Any]]:
        """Run one keyset page of a SELECT; returns ``(page, next_cursor)``.

        The statement must be a plain single-table SELECT (no UNION, JOIN,
        aggregation or LIMIT) with exactly one *ascending* ORDER BY column
        that is unique (the primary key or a unique-indexed column) and
        carries a sorted index — the keyset: a page resumes strictly after
        ``cursor`` (the last delivered key) and touches only the rows it
        examines, so each page charges O(page) under the cost model
        instead of O(result set).  ``next_cursor`` is ``None`` once the
        result set is exhausted; feeding it back yields the next page.
        Rows come back in key order; residual WHERE predicates are
        re-checked per examined row, so a selective filter may examine
        more than ``limit`` rows to fill a page.
        """
        query = S.parse(sql_text)
        if not isinstance(query, S.Select):
            raise DatabaseError("execute_page needs a plain SELECT")
        sel = query
        if sel.joins:
            raise DatabaseError("execute_page does not support JOIN")
        if sel.group_by or any(isinstance(i.expr, S.Aggregate)
                               for i in sel.items):
            raise DatabaseError("execute_page does not support aggregation")
        if sel.limit is not None:
            raise DatabaseError("execute_page pages via limit=, not LIMIT")
        if len(sel.order_by) != 1 or sel.order_by[0].descending:
            raise DatabaseError(
                "execute_page needs exactly one ascending ORDER BY column")
        order = sel.order_by[0]
        base = self.table(sel.table.table)
        col = order.column.column
        if order.column.table not in (None, sel.table.name) \
                or not base.has_column(col):
            raise DatabaseError(f"ORDER BY column {order.column} not on "
                                f"{sel.table.table!r}")
        if col not in getattr(base, "_sorted_indexes", {}):
            raise DatabaseError(
                f"execute_page needs a sorted index on {col!r}")
        unique = (col == base.primary_key
                  or (col in base._hash_indexes
                      and base._hash_indexes[col].unique))
        if not unique:
            raise DatabaseError(
                f"execute_page ORDER BY column {col!r} must be unique "
                "(keyset cursors need a total order)")

        alias = sel.table.name
        scope: Dict[str, Table] = {alias: base}
        page_limit = max(1, int(limit))
        before = self._total_scanned()
        envs: List[Dict[str, Dict[str, Any]]] = []
        lo = cursor
        next_cursor: Optional[Any] = None
        while True:
            # one-row lookahead: a batch shorter than limit+1 proves the
            # keyset is drained, so an exact-fit page ends the cursor
            # instead of dangling an empty trailing page
            rids = base.lookup_range(col, lo=lo, hi=None, lo_incl=False,
                                     limit=page_limit + 1)
            exhausted = len(rids) <= page_limit
            filled = False
            for i, rid in enumerate(rids):
                env = {alias: base.row_dict(rid)}
                lo = env[alias][col]
                if sel.where is None or _truthy(
                        _eval(sel.where, env, scope, list(params))):
                    envs.append(env)
                    if len(envs) == page_limit:
                        remaining = not exhausted or i < len(rids) - 1
                        next_cursor = lo if remaining else None
                        filled = True
                        break
            if filled or exhausted:
                break
        columns, rows = self._project(sel, envs, scope)
        self.queries_executed += 1
        if self.clock is not None:
            touched = self._total_scanned() - before
            self.clock.advance(self.QUERY_OVERHEAD_S +
                               touched * self.ROW_SCAN_COST_S)
        return ResultSet(columns=columns, rows=rows), next_cursor

    def _total_scanned(self) -> int:
        return self.scan_counter.total

    def _run_query(self, query: S.Query, params: List[Any]) -> ResultSet:
        if isinstance(query, S.UnionQuery):
            left = self._run_query(query.left, params)
            right = self._run_query(query.right, params)
            if len(left.columns) != len(right.columns):
                raise DatabaseError("UNION arms have different column counts")
            rows = list(left.rows) + list(right.rows)
            if not query.all:
                seen, deduped = set(), []
                for row in rows:
                    if row not in seen:
                        seen.add(row)
                        deduped.append(row)
                rows = deduped
            return ResultSet(columns=left.columns, rows=rows)
        return self._run_select(query, params)

    # -- select pipeline ---------------------------------------------------------

    def _run_select(self, sel: S.Select, params: List[Any]) -> ResultSet:
        # Resolve FROM + JOIN tables and their aliases.
        scope: Dict[str, Table] = {}
        base = self.table(sel.table.table)
        scope[sel.table.name] = base
        for join in sel.joins:
            if join.table.name in scope:
                raise DatabaseError(f"duplicate table alias {join.table.name!r}")
            scope[join.table.name] = self.table(join.table.table)

        # Produce the working set of joined "environment" rows:
        # each env maps alias -> row-dict.
        envs = self._plan_base(sel, base, scope, params)
        for join in sel.joins:
            envs = self._hash_join(envs, join, scope)

        # Residual WHERE filtering (anything the planner did not consume
        # is re-checked here; re-checking consumed predicates is harmless).
        if sel.where is not None:
            envs = [e for e in envs
                    if _truthy(_eval(sel.where, e, scope, params))]

        # Aggregation or plain projection.  For plain selects ORDER BY may
        # name any source column (SQL semantics), so sort the environments
        # before projecting; aggregated outputs sort by projected name.
        if sel.group_by or any(isinstance(i.expr, S.Aggregate) for i in sel.items):
            columns, rows = self._aggregate(sel, envs, scope, params)
            if sel.order_by:
                rows = self._order(sel, columns, rows)
        else:
            if sel.order_by:
                for order in reversed(sel.order_by):
                    envs = sorted(
                        envs,
                        key=lambda e: _sort_key(
                            _resolve_column(order.column, e, scope)),
                        reverse=order.descending)
            columns, rows = self._project(sel, envs, scope)
        if sel.limit is not None:
            rows = rows[: sel.limit]
        return ResultSet(columns=columns, rows=rows)

    def _plan_base(self, sel: S.Select, base: Table,
                   scope: Dict[str, Table],
                   params: List[Any]) -> List[Dict[str, Dict[str, Any]]]:
        """Choose access path for the FROM table using WHERE predicates."""
        alias = sel.table.name
        rids: Optional[List[int]] = None
        for pred in _top_level_ands(sel.where):
            pick = _indexable(pred, alias, base, params)
            if pick is None:
                continue
            kind, column, value, op = pick
            if kind == "eq" and column in base.indexed_columns():
                rids = base.lookup_eq(column, value)
                break
            if kind == "range" and column in getattr(base, "_sorted_indexes", {}):
                lo = value if op in (">", ">=") else None
                hi = value if op in ("<", "<=") else None
                rids = base.lookup_range(column, lo=lo, hi=hi,
                                         lo_incl=(op == ">="), hi_incl=(op == "<="))
                break
        if rids is None:
            rids = list(base.scan())
        return [{alias: base.row_dict(rid)} for rid in rids]

    def _hash_join(self, envs, join: S.Join, scope: Dict[str, Table]):
        right_table = scope[join.table.name]
        # Decide which side of the ON equality belongs to the new table.
        if join.left.table == join.table.name:
            new_col, old_ref = join.left.column, join.right
        elif join.right.table == join.table.name:
            new_col, old_ref = join.right.column, join.left
        else:
            raise DatabaseError(
                f"JOIN ON must reference joined table {join.table.name!r}")
        # Build hash map over the new table.
        buckets: Dict[Any, List[Dict[str, Any]]] = {}
        for rid in right_table.scan():
            row = right_table.row_dict(rid)
            buckets.setdefault(row[new_col], []).append(row)
        out = []
        for env in envs:
            key = _resolve_column(old_ref, env, scope)
            for row in buckets.get(key, ()):
                merged = dict(env)
                merged[join.table.name] = row
                out.append(merged)
        return out

    def _project(self, sel: S.Select, envs, scope):
        if sel.star:
            # deterministic column order: FROM table columns, then joins
            aliases = [sel.table.name] + [j.table.name for j in sel.joins]
            columns = []
            for a in aliases:
                for cname in scope[a].column_names():
                    columns.append(cname if len(aliases) == 1 else f"{a}.{cname}")
            rows = []
            for env in envs:
                row = []
                for a in aliases:
                    row.extend(env[a][c] for c in scope[a].column_names())
                rows.append(tuple(row))
            return columns, rows
        columns = [item.output_name for item in sel.items]
        rows = []
        for env in envs:
            rows.append(tuple(
                _resolve_column(item.expr, env, scope) for item in sel.items))
        return columns, rows

    def _aggregate(self, sel: S.Select, envs, scope, params):
        group_cols = list(sel.group_by)
        groups: Dict[tuple, list] = {}
        for env in envs:
            key = tuple(_resolve_column(c, env, scope) for c in group_cols)
            groups.setdefault(key, []).append(env)
        if not group_cols and not groups:
            groups[()] = []  # aggregates over empty input yield one row
        columns = [item.output_name for item in sel.items]
        rows = []
        for key in sorted(groups, key=_sort_key_tuple):
            bucket = groups[key]
            row = []
            for item in sel.items:
                if isinstance(item.expr, S.Aggregate):
                    row.append(_run_aggregate(item.expr, bucket, scope))
                else:
                    # non-aggregate output must be a grouping column
                    try:
                        gidx = group_cols.index(item.expr)
                    except ValueError:
                        raise DatabaseError(
                            f"{item.expr} not in GROUP BY") from None
                    row.append(key[gidx])
            rows.append(tuple(row))
        return columns, rows

    def _order(self, sel: S.Select, columns: List[str], rows):
        for order in reversed(sel.order_by):
            name = order.column.column
            qual = str(order.column)
            if name in columns:
                idx = columns.index(name)
            elif qual in columns:
                idx = columns.index(qual)
            else:
                raise DatabaseError(f"ORDER BY column {qual!r} not in output")
            rows = sorted(rows, key=lambda r: _sort_key(r[idx]),
                          reverse=order.descending)
        return list(rows)


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

def _top_level_ands(expr) -> List[Any]:
    if expr is None:
        return []
    if isinstance(expr, S.And):
        out = []
        for part in expr.parts:
            out.extend(_top_level_ands(part))
        return out
    return [expr]


def _indexable(pred, alias: str, table: Table, params: List[Any]):
    """If ``pred`` is 'col OP literal' on the base table, return a plan hint."""
    if not isinstance(pred, S.Comparison):
        return None
    left, right, op = pred.left, pred.right, pred.op
    if isinstance(right, S.ColumnRef) and not isinstance(left, S.ColumnRef):
        left, right = right, left
        op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
    if not isinstance(left, S.ColumnRef) or isinstance(right, S.ColumnRef):
        return None
    if left.table not in (None, alias) or not table.has_column(left.column):
        return None
    if isinstance(right, S.Param):
        value = params[right.index] if right.index < len(params) else None
    elif isinstance(right, S.Literal):
        value = right.value
    else:
        return None
    if op == "=":
        return ("eq", left.column, value, op)
    if op in ("<", ">", "<=", ">="):
        return ("range", left.column, value, op)
    return None


def _resolve_column(ref, env: Dict[str, Dict[str, Any]], scope) -> Any:
    if isinstance(ref, S.Aggregate):
        raise DatabaseError("aggregate used outside aggregation context")
    if not isinstance(ref, S.ColumnRef):
        raise DatabaseError(f"expected column reference, got {ref!r}")
    if ref.table is not None:
        if ref.table not in env:
            raise DatabaseError(f"unknown table alias {ref.table!r}")
        row = env[ref.table]
        if ref.column not in row:
            raise DatabaseError(f"no column {ref}")
        return row[ref.column]
    hits = [alias for alias, row in env.items() if ref.column in row]
    if not hits:
        raise DatabaseError(f"no column {ref.column!r} in scope")
    if len(hits) > 1:
        raise DatabaseError(f"ambiguous column {ref.column!r} in {sorted(hits)}")
    return env[hits[0]][ref.column]


def _eval(expr, env, scope, params: List[Any]):
    if isinstance(expr, S.Literal):
        return expr.value
    if isinstance(expr, S.Param):
        if expr.index >= len(params):
            raise DatabaseError(
                f"query needs {expr.index + 1} parameters, got {len(params)}")
        return params[expr.index]
    if isinstance(expr, S.ColumnRef):
        return _resolve_column(expr, env, scope)
    if isinstance(expr, S.Comparison):
        left = _eval(expr.left, env, scope, params)
        right = _eval(expr.right, env, scope, params)
        return _compare(expr.op, left, right)
    if isinstance(expr, S.InList):
        item = _eval(expr.item, env, scope, params)
        if item is None:
            return None
        found = any(_compare("=", item, _eval(o, env, scope, params)) is True
                    for o in expr.options)
        return (not found) if expr.negated else found
    if isinstance(expr, S.IsNull):
        item = _eval(expr.item, env, scope, params)
        return (item is not None) if expr.negated else (item is None)
    if isinstance(expr, S.And):
        result: Any = True
        for part in expr.parts:
            v = _eval(part, env, scope, params)
            if v is False:
                return False
            if v is None:
                result = None
        return result
    if isinstance(expr, S.Or):
        result: Any = False
        for part in expr.parts:
            v = _eval(part, env, scope, params)
            if v is True:
                return True
            if v is None:
                result = None
        return result
    if isinstance(expr, S.Not):
        v = _eval(expr.part, env, scope, params)
        return None if v is None else (not v)
    raise DatabaseError(f"cannot evaluate expression {expr!r}")


def _compare(op: str, left: Any, right: Any):
    """Three-valued SQL comparison; returns True/False/None."""
    if left is None or right is None:
        return None
    if op in ("LIKE", "NOT LIKE"):
        if not isinstance(left, str) or not isinstance(right, str):
            raise DatabaseError("LIKE needs string operands")
        matched = bool(S.like_to_regex(right).match(left))
        return matched if op == "LIKE" else not matched
    # numeric cross-type comparison allowed; otherwise types must match
    both_numeric = isinstance(left, (int, float)) and isinstance(right, (int, float)) \
        and not isinstance(left, bool) and not isinstance(right, bool)
    if not both_numeric and type(left) is not type(right):
        if op == "=":
            return False
        if op == "<>":
            return True
        raise DatabaseError(
            f"cannot order {type(left).__name__} against {type(right).__name__}")
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    raise DatabaseError(f"unknown comparison operator {op!r}")


def _truthy(value) -> bool:
    return value is True


def _run_aggregate(agg: S.Aggregate, bucket, scope):
    if agg.arg is None:
        if agg.func != "COUNT":
            raise DatabaseError(f"{agg.func}(*) is not valid")
        return len(bucket)
    values = [_resolve_column(agg.arg, env, scope) for env in bucket]
    values = [v for v in values if v is not None]
    if agg.distinct:
        values = list(dict.fromkeys(values))
    if agg.func == "COUNT":
        return len(values)
    if not values:
        return None
    if agg.func == "SUM":
        return sum(values)
    if agg.func == "MIN":
        return min(values)
    if agg.func == "MAX":
        return max(values)
    if agg.func == "AVG":
        return sum(values) / len(values)
    raise DatabaseError(f"unknown aggregate {agg.func!r}")


def _sort_key(value):
    """NULL-first, type-segregated sort key for heterogeneous outputs."""
    if value is None:
        return (0, "", 0)
    if isinstance(value, bool):
        return (1, "bool", int(value))
    if isinstance(value, (int, float)):
        return (1, "num", value)
    return (1, type(value).__name__, value)


def _sort_key_tuple(values: tuple):
    return tuple(_sort_key(v) for v in values)
