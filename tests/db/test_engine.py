"""Unit tests for SELECT execution."""

import pytest

from repro.db import Column, Database
from repro.errors import DatabaseError
from repro.util.clock import SimClock


@pytest.fixture
def db():
    db = Database()
    users = db.create_table("users", [
        Column("id", "INT", nullable=False), Column("name", "TEXT"),
        Column("age", "INT"), Column("city", "TEXT")], primary_key="id")
    rows = [(1, "ann", 30, "sd"), (2, "bob", 25, "la"),
            (3, "carol", 35, "sd"), (4, "dan", None, "sf")]
    for r in rows:
        users.insert(dict(zip(("id", "name", "age", "city"), r)))
    pets = db.create_table("pets", [
        Column("owner", "INT"), Column("pet", "TEXT")])
    for owner, pet in [(1, "cat"), (1, "dog"), (3, "ibis")]:
        pets.insert({"owner": owner, "pet": pet})
    return db


class TestProjection:
    def test_star(self, db):
        rs = db.execute("SELECT * FROM users WHERE id = 1")
        assert rs.columns == ["id", "name", "age", "city"]
        assert rs.rows == [(1, "ann", 30, "sd")]

    def test_column_list(self, db):
        rs = db.execute("SELECT name FROM users WHERE id = 2")
        assert rs.rows == [("bob",)]

    def test_alias_names_output(self, db):
        rs = db.execute("SELECT name AS who FROM users WHERE id = 1")
        assert rs.columns == ["who"]


class TestWhere:
    def test_equality(self, db):
        assert len(db.execute("SELECT id FROM users WHERE city = 'sd'")) == 2

    def test_range(self, db):
        rs = db.execute("SELECT name FROM users WHERE age >= 30")
        assert sorted(r[0] for r in rs.rows) == ["ann", "carol"]

    def test_null_never_compares(self, db):
        # dan has NULL age: excluded from both sides
        assert len(db.execute("SELECT id FROM users WHERE age > 0")) == 3
        assert len(db.execute("SELECT id FROM users WHERE age <= 0")) == 0

    def test_is_null(self, db):
        rs = db.execute("SELECT name FROM users WHERE age IS NULL")
        assert rs.rows == [("dan",)]

    def test_is_not_null(self, db):
        assert len(db.execute("SELECT id FROM users WHERE age IS NOT NULL")) == 3

    def test_like(self, db):
        rs = db.execute("SELECT name FROM users WHERE name LIKE 'c%'")
        assert rs.rows == [("carol",)]

    def test_not_like(self, db):
        assert len(db.execute(
            "SELECT id FROM users WHERE name NOT LIKE '%a%'")) == 1  # bob

    def test_in_list(self, db):
        assert len(db.execute(
            "SELECT id FROM users WHERE city IN ('sd', 'sf')")) == 3

    def test_and_or_not(self, db):
        rs = db.execute("SELECT name FROM users WHERE city = 'sd' "
                        "AND NOT age = 30")
        assert rs.rows == [("carol",)]

    def test_params(self, db):
        rs = db.execute("SELECT name FROM users WHERE age > ? AND city = ?",
                        [26, "sd"])
        assert sorted(r[0] for r in rs.rows) == ["ann", "carol"]

    def test_missing_param_fails(self, db):
        with pytest.raises(DatabaseError):
            db.execute("SELECT name FROM users WHERE age > ?")


class TestJoin:
    def test_inner_join(self, db):
        rs = db.execute("SELECT u.name, p.pet FROM users u "
                        "JOIN pets p ON p.owner = u.id ORDER BY pet")
        assert rs.rows == [("ann", "cat"), ("ann", "dog"), ("carol", "ibis")]

    def test_join_with_where(self, db):
        rs = db.execute("SELECT p.pet FROM users u JOIN pets p "
                        "ON p.owner = u.id WHERE u.city = 'sd' AND "
                        "u.age > 30")
        assert rs.rows == [("ibis",)]

    def test_join_star_prefixes_columns(self, db):
        rs = db.execute("SELECT * FROM users u JOIN pets p ON p.owner = u.id "
                        "LIMIT 1")
        assert "u.id" in rs.columns and "p.pet" in rs.columns

    def test_ambiguous_unqualified_column(self, db):
        db.create_table("extra", [Column("name", "TEXT")])
        db.table("extra").insert({"name": "ann"})
        with pytest.raises(DatabaseError):
            db.execute("SELECT name FROM users u JOIN extra x ON "
                       "x.name = u.name WHERE name = 'ann'")


class TestAggregates:
    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM users").scalar() == 4

    def test_count_skips_nulls(self, db):
        assert db.execute("SELECT COUNT(age) FROM users").scalar() == 3

    def test_sum_min_max_avg(self, db):
        rs = db.execute("SELECT SUM(age), MIN(age), MAX(age), AVG(age) "
                        "FROM users")
        assert rs.rows == [(90, 25, 35, 30.0)]

    def test_group_by(self, db):
        rs = db.execute("SELECT city, COUNT(*) AS n FROM users GROUP BY city")
        assert dict((c, n) for c, n in rs.rows) == {"sd": 2, "la": 1, "sf": 1}

    def test_group_by_requires_grouped_output(self, db):
        with pytest.raises(DatabaseError):
            db.execute("SELECT name, COUNT(*) FROM users GROUP BY city")

    def test_aggregate_over_empty_input(self, db):
        rs = db.execute("SELECT COUNT(*), MAX(age) FROM users WHERE id = 99")
        assert rs.rows == [(0, None)]

    def test_count_distinct(self, db):
        assert db.execute(
            "SELECT COUNT(DISTINCT city) FROM users").scalar() == 3


class TestOrderLimit:
    def test_order_asc(self, db):
        rs = db.execute("SELECT age FROM users WHERE age IS NOT NULL "
                        "ORDER BY age")
        assert [r[0] for r in rs.rows] == [25, 30, 35]

    def test_order_desc(self, db):
        rs = db.execute("SELECT age FROM users WHERE age IS NOT NULL "
                        "ORDER BY age DESC")
        assert [r[0] for r in rs.rows] == [35, 30, 25]

    def test_null_sorts_first(self, db):
        rs = db.execute("SELECT age FROM users ORDER BY age")
        assert rs.rows[0] == (None,)

    def test_limit(self, db):
        assert len(db.execute("SELECT id FROM users ORDER BY id LIMIT 2")) == 2

    def test_order_by_unknown_column(self, db):
        with pytest.raises(DatabaseError):
            db.execute("SELECT id FROM users ORDER BY nope")


class TestUnion:
    def test_union_dedupes(self, db):
        rs = db.execute("SELECT city FROM users WHERE id = 1 UNION "
                        "SELECT city FROM users WHERE id = 3")
        assert rs.rows == [("sd",)]

    def test_union_all_keeps_duplicates(self, db):
        rs = db.execute("SELECT city FROM users WHERE id = 1 UNION ALL "
                        "SELECT city FROM users WHERE id = 3")
        assert len(rs.rows) == 2

    def test_union_arity_mismatch(self, db):
        with pytest.raises(DatabaseError):
            db.execute("SELECT id, name FROM users UNION SELECT id FROM users")


class TestPlannerAndCost:
    def test_pk_lookup_touches_one_row(self, db):
        t = db.table("users")
        before = t.rows_scanned
        db.execute("SELECT name FROM users WHERE id = 3")
        assert t.rows_scanned - before == 1

    def test_unindexed_predicate_scans_all(self, db):
        t = db.table("users")
        before = t.rows_scanned
        db.execute("SELECT id FROM users WHERE city = 'sd'")
        assert t.rows_scanned - before == len(t)

    def test_sorted_index_used_for_range(self, db):
        t = db.table("users")
        t.create_index("age", sorted_index=True)
        before = t.rows_scanned
        db.execute("SELECT name FROM users WHERE age > 31")
        assert t.rows_scanned - before == 1   # only carol

    @pytest.mark.parametrize("param", [["ann"], {"ann": 1}, [], {}])
    def test_unhashable_param_finds_nothing_by_either_plan(self, db, param):
        """A list or dict parameter equals no stored value: the hash
        index's plan answers what the scan's plan answers."""
        query = "SELECT id FROM users WHERE name = ?"
        t = db.table("users")
        before = t.rows_scanned
        scanned = db.execute(query, [param]).rows
        assert t.rows_scanned - before == len(t)          # the scan's plan
        t.create_index("name")
        before = t.rows_scanned
        assert db.execute(query, [param]).rows == scanned == []
        assert t.rows_scanned == before                   # the index's
        assert db.execute("SELECT name FROM users WHERE id = ?",
                          [param]).rows == []             # the primary key

    def test_clock_charged_when_wired(self):
        clock = SimClock()
        db = Database(clock=clock)
        t = db.create_table("t", [Column("v", "INT")])
        for i in range(100):
            t.insert({"v": i})
        t0 = clock.now
        db.execute("SELECT COUNT(*) FROM t")
        assert clock.now > t0

    def test_resultset_helpers(self, db):
        rs = db.execute("SELECT id, name FROM users ORDER BY id LIMIT 1")
        assert rs.dicts() == [{"id": 1, "name": "ann"}]
        with pytest.raises(DatabaseError):
            rs.scalar()   # 1x2, not 1x1
