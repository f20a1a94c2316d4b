"""Unit tests for the database resource driver (LOBs + registered SQL)."""

import pytest

from repro.db import Column
from repro.errors import AlreadyExists, DatabaseError, NoSuchPhysicalFile
from repro.storage.database import DatabaseResourceDriver


@pytest.fixture
def drv():
    return DatabaseResourceDriver(name="dlib1")


class TestLobs:
    def test_create_read(self, drv):
        drv.create("/lob/a", b"payload")
        assert drv.read("/lob/a") == b"payload"

    def test_duplicate(self, drv):
        drv.create("/a", b"")
        with pytest.raises(AlreadyExists):
            drv.create("/a", b"")

    def test_missing(self, drv):
        with pytest.raises(NoSuchPhysicalFile):
            drv.read("/nope")

    def test_ranged_read(self, drv):
        drv.create("/a", b"0123456789")
        assert drv.read("/a", 3, 4) == b"3456"

    def test_write_patch_and_extend(self, drv):
        drv.create("/a", b"aaaa")
        drv.write("/a", b"bb", offset=3)
        assert drv.read("/a") == b"aaabb"

    def test_append(self, drv):
        drv.create("/a", b"ab")
        drv.append("/a", b"cd")
        assert drv.read("/a") == b"abcd"

    def test_delete(self, drv):
        drv.create("/a", b"x")
        drv.delete("/a")
        assert not drv.exists("/a")

    def test_size_and_used(self, drv):
        drv.create("/a", b"abc")
        drv.create("/b", b"de")
        assert drv.size("/a") == 3
        assert drv.used_bytes() == 5

    def test_list_dir(self, drv):
        drv.create("/d/x", b"")
        drv.create("/d/s/y", b"")
        assert drv.list_dir("/d") == ["s/", "x"]


class TestUserTablesAndSql:
    def test_registered_select_executes(self, drv):
        t = drv.create_user_table("stars", [Column("name", "TEXT"),
                                            Column("mag", "FLOAT")])
        t.insert({"name": "Vega", "mag": 0.03})
        t.insert({"name": "Sirius", "mag": -1.46})
        rs = drv.execute_sql("SELECT name FROM stars WHERE mag < 0")
        assert rs.rows == [("Sirius",)]

    def test_query_answer_varies_with_time(self, drv):
        """"The query is executed at retrieval time ... the answer to the
        query can vary with time."""
        t = drv.create_user_table("events", [Column("n", "INT")])
        sql = "SELECT COUNT(*) FROM events"
        assert drv.execute_sql(sql).rows == [(0,)]
        t.insert({"n": 1})
        assert drv.execute_sql(sql).rows == [(1,)]

    def test_non_select_rejected(self, drv):
        with pytest.raises(DatabaseError):
            drv.execute_sql("DROP TABLE lobs")

    def test_lobs_table_reserved(self, drv):
        with pytest.raises(DatabaseError):
            drv.create_user_table("lobs", [Column("x", "INT")])

    def test_join_supported(self, drv):
        a = drv.create_user_table("a", [Column("k", "INT"),
                                        Column("v", "TEXT")])
        b = drv.create_user_table("b", [Column("k", "INT"),
                                        Column("w", "TEXT")])
        a.insert({"k": 1, "v": "x"})
        b.insert({"k": 1, "w": "y"})
        rs = drv.execute_sql("SELECT a.v, b.w FROM a JOIN b ON b.k = a.k")
        assert rs.rows == [("x", "y")]

    def test_union_supported(self, drv):
        a = drv.create_user_table("t1", [Column("v", "TEXT")])
        a.insert({"v": "x"})
        rs = drv.execute_sql("SELECT v FROM t1 UNION ALL SELECT v FROM t1")
        assert len(rs.rows) == 2

    def test_params_supported(self, drv):
        t = drv.create_user_table("nums", [Column("n", "INT")])
        for i in range(5):
            t.insert({"n": i})
        rs = drv.execute_sql("SELECT n FROM nums WHERE n > ?", [2])
        assert len(rs.rows) == 2
