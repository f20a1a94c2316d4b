"""Property-based differential test: the SQL engine vs a naive model.

Random small tables and random WHERE clauses are evaluated both by the
engine (with its index-driven planner) and by a direct Python
re-implementation of SQL three-valued logic.  Any divergence — planner
bug, index staleness, NULL mishandling — fails here.
"""

from typing import Any, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.db import Column, Database
from repro.errors import DatabaseError
from repro.util.clock import SimClock

COLUMNS = ("id", "grp", "score", "name")

row_strategy = st.fixed_dictionaries({
    "grp": st.one_of(st.none(), st.integers(0, 3)),
    "score": st.one_of(st.none(), st.floats(-5, 5, allow_nan=False,
                                            width=16)),
    "name": st.one_of(st.none(), st.sampled_from(["ann", "bob", "carol"])),
})

rows_strategy = st.lists(row_strategy, min_size=0, max_size=12)

# predicates as (column, op, literal) — literals typed to the column
predicate_strategy = st.one_of(
    st.tuples(st.just("grp"), st.sampled_from(["=", "<>", "<", ">", "<=",
                                               ">="]),
              st.integers(0, 3)),
    st.tuples(st.just("score"), st.sampled_from(["<", ">", "=", "<="]),
              st.floats(-5, 5, allow_nan=False, width=16)),
    st.tuples(st.just("name"), st.sampled_from(["=", "<>", "LIKE"]),
              st.sampled_from(["ann", "bob", "a%", "%o%"])),
)

clause_strategy = st.lists(
    st.tuples(predicate_strategy, st.sampled_from(["AND", "OR"])),
    min_size=1, max_size=3)

# literals of every other type too: an int against the FLOAT column, a
# float, text or bool against the INT one, and NULL against any
ORDERS = ["=", "<>", "<", ">", "<=", ">="]
mixed_predicate_strategy = st.one_of(
    predicate_strategy,
    st.tuples(st.just("score"), st.sampled_from(ORDERS), st.integers(-5, 5)),
    st.tuples(st.just("grp"), st.sampled_from(ORDERS), st.one_of(
        st.floats(-5, 5, allow_nan=False, width=16),
        st.sampled_from(["x", "1"]), st.booleans())),
    st.tuples(st.sampled_from(["grp", "score", "name"]),
              st.sampled_from(ORDERS + ["LIKE"]), st.none()),
)

mixed_clause_strategy = st.lists(
    st.tuples(mixed_predicate_strategy, st.sampled_from(["AND", "OR"])),
    min_size=1, max_size=3)


def scan_conserved(db: Database) -> bool:
    """Every table counts its scans into the database's one counter,
    which keeps the only count, so no table's rows go uncounted."""
    return all(db.table(n).scan_counter is db.scan_counter
               for n in db.tables())


def build_db(rows: List[dict], index_on: Optional[str]) -> Database:
    db = Database()
    t = db.create_table("t", [
        Column("id", "INT", nullable=False),
        Column("grp", "INT"),
        Column("score", "FLOAT"),
        Column("name", "TEXT"),
    ], primary_key="id")
    if index_on:
        t.create_index(index_on, sorted_index=True)
    for i, row in enumerate(rows):
        t.insert({"id": i, **row})
        assert scan_conserved(db)
    return db


def sql_literal(value: Any) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if value is None or isinstance(value, bool):
        return {None: "NULL", True: "TRUE", False: "FALSE"}[value]
    return repr(value)


def outcome(db: Database, sql: str):
    """The sorted rows a query returns, or the error it raises."""
    try:
        return sorted(db.execute(sql).rows)
    except DatabaseError as exc:
        return f"raised: {exc}"


def naive_eval(op: str, left: Any, right: Any) -> Optional[bool]:
    """Three-valued SQL comparison in plain Python."""
    if left is None or right is None:
        return None
    if op == "LIKE":
        from repro.db.sql import like_to_regex
        return bool(like_to_regex(right).match(left))
    return {"=": left == right, "<>": left != right, "<": left < right,
            ">": left > right, "<=": left <= right,
            ">=": left >= right}[op]


def naive_where(row: dict, clause) -> bool:
    """Evaluate the OR-of-ANDs equivalent of the generated clause.

    The generated clause is a left-to-right chain p1 c1 p2 c2 p3; SQL
    parses it with AND binding tighter than OR, so re-group accordingly.
    """
    # split into OR-groups of AND-ed predicates
    groups: List[List[tuple]] = [[clause[0][0]]]
    for (pred, conj), nxt in zip(clause, clause[1:] + [(None, None)]):
        if nxt[0] is None:
            break
    # rebuild: conjunction tokens belong BETWEEN predicates
    groups = [[clause[0][0]]]
    for i in range(1, len(clause)):
        conj = clause[i - 1][1]
        pred = clause[i][0]
        if conj == "AND":
            groups[-1].append(pred)
        else:
            groups.append([pred])

    def group_value(group) -> Optional[bool]:
        value: Optional[bool] = True
        for col, op, lit in group:
            v = naive_eval(op, row[col], lit)
            if v is False:
                return False
            if v is None:
                value = None
        return value

    result: Optional[bool] = False
    for group in groups:
        v = group_value(group)
        if v is True:
            return True
        if v is None:
            result = None
    return result is True


def clause_to_sql(clause) -> str:
    parts = []
    for i, (pred, _conj) in enumerate(clause):
        col, op, lit = pred
        if i > 0:
            parts.append(clause[i - 1][1])
        parts.append(f"{col} {op} {sql_literal(lit)}")
    return " ".join(parts)


class TestDifferential:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows_strategy, clause_strategy,
           st.sampled_from([None, "grp", "score", "name"]))
    def test_engine_matches_naive_model(self, rows, clause, index_on):
        db = build_db(rows, index_on)
        sql = f"SELECT id FROM t WHERE {clause_to_sql(clause)}"
        got = sorted(r[0] for r in db.execute(sql).rows)
        expected = sorted(i for i, row in enumerate(rows)
                          if naive_where(row, clause))
        assert got == expected, f"query: {sql}"
        assert scan_conserved(db)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows_strategy, mixed_clause_strategy)
    def test_indexes_never_change_answers(self, rows, clause):
        """Whatever the literal's type, an index answers what the scan
        answers, or raises what it raises."""
        sql = f"SELECT id FROM t WHERE {clause_to_sql(clause)}"
        plain = outcome(build_db(rows, None), sql)
        for index_on in ("grp", "score", "name"):
            db = build_db(rows, index_on)
            assert outcome(db, sql) == plain, f"index on {index_on}: {sql}"
            assert scan_conserved(db)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows_strategy)
    def test_aggregates_match_python(self, rows):
        db = build_db(rows, None)
        rs = db.execute("SELECT COUNT(*), COUNT(score), SUM(grp), "
                        "MIN(score), MAX(score) FROM t")
        count_star, count_score, sum_grp, min_s, max_s = rs.rows[0]
        scores = [r["score"] for r in rows if r["score"] is not None]
        grps = [r["grp"] for r in rows if r["grp"] is not None]
        assert count_star == len(rows)
        assert count_score == len(scores)
        assert sum_grp == (sum(grps) if grps else None)
        assert min_s == (min(scores) if scores else None)
        assert max_s == (max(scores) if scores else None)
        assert scan_conserved(db)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows_strategy, st.integers(0, 3), st.integers(1, 4))
    def test_scan_counter_is_conserved_across_tables(self, rows, grp, page):
        """Two tables, every kind of read and an abandoned scan:
        every table counts into the database's one counter, and the
        query cost is charged from it."""
        clock = SimClock()
        db = Database(clock=clock)
        for name in ("t", "u"):
            t = db.create_table(name, [Column("id", "INT", nullable=False),
                                       Column("grp", "INT")],
                                primary_key="id")
            t.create_index("id", sorted_index=True)
            for i, row in enumerate(rows):
                t.insert({"id": i, "grp": row["grp"]})
        t, u = db.table("t"), db.table("u")
        steps = [
            lambda: t.lookup_eq("id", 0),
            lambda: u.lookup_eq("grp", grp),            # unindexed: scans
            lambda: t.lookup_range("id", lo=0, limit=page),
            lambda: u.lookup_range("grp", lo=grp),      # unindexed: scans
            lambda: next(iter(t.scan()), None),         # abandoned early
            lambda: [u.row_dict(rid) for rid in u.scan()],
            lambda: db.execute("SELECT id FROM t WHERE grp = ?", [grp]),
            lambda: db.execute_page("SELECT id FROM u ORDER BY id",
                                    limit=page),
        ]
        for step in steps:
            before, t0 = db._total_scanned(), clock.now
            step()
            assert scan_conserved(db)
            if clock.now != t0:     # a charged query: cost read off the counter
                touched = db._total_scanned() - before
                assert clock.now - t0 == pytest.approx(
                    db.QUERY_OVERHEAD_S + touched * db.ROW_SCAN_COST_S)
