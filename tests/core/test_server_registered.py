"""Server tests: the five registered-object kinds."""

import pytest

from repro.db import Column
from repro.errors import (
    NoSuchObject,
    NoSuchPhysicalFile,
    UnsupportedOperation,
)


@pytest.fixture
def dbres(grid):
    drv = grid.fed.resources.physical("dlib1").driver
    t = drv.create_user_table("stars", [Column("name", "TEXT"),
                                        Column("mag", "FLOAT")])
    t.insert({"name": "Vega", "mag": 0.03})
    t.insert({"name": "Sirius", "mag": -1.46})
    t.insert({"name": "Deneb", "mag": 1.25})
    return drv


class TestRegisteredFile:
    def test_register_and_read(self, grid):
        drv = grid.fed.resources.physical("unix-caltech").driver
        drv.create("/outside/legacy.dat", b"pre-existing")
        grid.curator.register_file(f"{grid.home}/legacy", "unix-caltech",
                                   "/outside/legacy.dat")
        assert grid.curator.get(f"{grid.home}/legacy") == b"pre-existing"
        assert grid.curator.stat(f"{grid.home}/legacy")["kind"] == "registered"

    def test_size_may_drift(self, grid):
        # "file size and other characteristics might change without SRB
        # being aware of these changes"
        drv = grid.fed.resources.physical("unix-caltech").driver
        drv.create("/outside/drift.dat", b"12")
        grid.curator.register_file(f"{grid.home}/drift", "unix-caltech",
                                   "/outside/drift.dat")
        drv.append("/outside/drift.dat", b"3456")
        assert grid.curator.stat(f"{grid.home}/drift")["size"] == 2   # stale
        assert grid.curator.get(f"{grid.home}/drift") == b"123456"    # live

    def test_delete_unlinks_without_touching_physical(self, grid):
        drv = grid.fed.resources.physical("unix-caltech").driver
        drv.create("/outside/keep.dat", b"keep me")
        grid.curator.register_file(f"{grid.home}/keep", "unix-caltech",
                                   "/outside/keep.dat")
        grid.curator.delete(f"{grid.home}/keep")
        assert drv.exists("/outside/keep.dat")

    def test_registered_file_replicable(self, grid):
        drv = grid.fed.resources.physical("unix-caltech").driver
        drv.create("/outside/rep.dat", b"data")
        grid.curator.register_file(f"{grid.home}/rep", "unix-caltech",
                                   "/outside/rep.dat")
        grid.curator.replicate(f"{grid.home}/rep", "unix-sdsc")
        assert grid.curator.get(f"{grid.home}/rep", replica_num=2) == b"data"


class TestShadowDirectory:
    @pytest.fixture
    def shadow(self, grid):
        drv = grid.fed.resources.physical("unix-caltech").driver
        drv.create("/archive/cone/a.txt", b"alpha")
        drv.create("/archive/cone/sub/b.txt", b"beta")
        grid.curator.register_directory(f"{grid.home}/cone", "unix-caltech",
                                        "/archive/cone")
        return grid

    def test_cone_files_visible(self, shadow, grid):
        assert grid.curator.get(f"{grid.home}/cone/a.txt") == b"alpha"
        assert grid.curator.get(f"{grid.home}/cone/sub/b.txt") == b"beta"

    def test_listing_through_shadow(self, shadow, grid):
        listing = grid.curator.ls(f"{grid.home}/cone")
        names = [o["name"] for o in listing["objects"]]
        assert names == ["a.txt"]
        assert listing["collections"] == [f"{grid.home}/cone/sub"]

    def test_direct_get_of_dir_object_refused(self, shadow, grid):
        with pytest.raises(UnsupportedOperation):
            grid.curator.get(f"{grid.home}/cone")

    def test_ingest_into_shadow_not_possible(self, shadow, grid):
        # no collection exists under the shadow -> namespace refuses
        from repro.errors import NoSuchCollection
        with pytest.raises(NoSuchCollection):
            grid.curator.ingest(f"{grid.home}/cone/new.txt", b"x")

    def test_missing_member(self, shadow, grid):
        with pytest.raises(NoSuchPhysicalFile):
            grid.curator.get(f"{grid.home}/cone/ghost.txt")

    def test_delete_unlinks_only(self, shadow, grid):
        grid.curator.delete(f"{grid.home}/cone")
        drv = grid.fed.resources.physical("unix-caltech").driver
        assert drv.exists("/archive/cone/a.txt")


class TestAMissingPathLooksForAShadowOnce:
    """A path with no row asks its ancestors for a shadow directory, and
    stops at the first that has a row: a collection has none above it.
    It walked every ancestor up to ``/`` with ``find_object``."""

    @pytest.mark.parametrize("below, ops", [("nope", 2), ("a/b/c/nope", 5)])
    def test_one_lookup_per_missing_level(self, grid, below, ops):
        # the get's own lookup, then one per missing level and the
        # home collection
        metrics = grid.fed.obs.metrics
        before = metrics.total("mcat.ops")
        with pytest.raises(NoSuchObject):
            grid.curator.get(f"{grid.home}/{below}")
        assert metrics.total("mcat.ops") - before == ops

    def test_a_member_below_a_shadow_still_resolves(self, grid):
        drv = grid.fed.resources.physical("unix-caltech").driver
        drv.create("/archive/cone/deep/er/c.txt", b"gamma")
        grid.curator.register_directory(f"{grid.home}/cone", "unix-caltech",
                                        "/archive/cone")
        assert grid.curator.get(f"{grid.home}/cone/deep/er/c.txt") \
            == b"gamma"


class TestRegisteredSql:
    def test_executed_at_retrieval(self, grid, dbres):
        grid.curator.register_sql(f"{grid.home}/bright", "dlib1",
                                  "SELECT name FROM stars WHERE mag < 1 "
                                  "ORDER BY mag", template="HTMLREL")
        html = grid.curator.get(f"{grid.home}/bright").decode()
        assert "<td>Sirius</td>" in html and "<td>Vega</td>" in html
        assert "Deneb" not in html

    def test_answer_varies_with_time(self, grid, dbres):
        grid.curator.register_sql(f"{grid.home}/count", "dlib1",
                                  "SELECT COUNT(*) AS n FROM stars",
                                  template="XMLREL")
        before = grid.curator.get(f"{grid.home}/count").decode()
        dbres.database.table("stars").insert({"name": "Altair", "mag": 0.76})
        after = grid.curator.get(f"{grid.home}/count").decode()
        assert "<field>3</field>" in before
        assert "<field>4</field>" in after

    def test_templates_selectable(self, grid, dbres):
        grid.curator.register_sql(f"{grid.home}/xml", "dlib1",
                                  "SELECT name FROM stars", template="XMLREL")
        assert grid.curator.get(f"{grid.home}/xml").startswith(b"<?xml")

    def test_nested_template(self, grid, dbres):
        grid.curator.register_sql(f"{grid.home}/nest", "dlib1",
                                  "SELECT name, mag FROM stars ORDER BY name",
                                  template="HTMLNEST")
        assert b"srb-result-nested" in grid.curator.get(f"{grid.home}/nest")

    def test_user_stylesheet_from_srb(self, grid, dbres):
        sheet = "HEADER 'CSV:'\nROW ''\nCELL '${value},'\nROWEND ';'\n"
        grid.curator.ingest(f"{grid.home}/style.t", sheet.encode(),
                            data_type="ascii text")
        grid.curator.register_sql(f"{grid.home}/csv", "dlib1",
                                  "SELECT name FROM stars ORDER BY mag",
                                  template=f"{grid.home}/style.t")
        out = grid.curator.get(f"{grid.home}/csv").decode()
        assert out == "CSV:Sirius,;Vega,;Deneb,;"

    def test_partial_query_completed_at_retrieval(self, grid, dbres):
        grid.curator.register_sql(f"{grid.home}/partial", "dlib1",
                                  "SELECT name FROM stars WHERE",
                                  partial=True)
        out = grid.curator.get(f"{grid.home}/partial",
                               sql_remainder="mag < 0").decode()
        assert "Sirius" in out and "Vega" not in out

    def test_partial_without_remainder_refused(self, grid, dbres):
        grid.curator.register_sql(f"{grid.home}/partial2", "dlib1",
                                  "SELECT name FROM stars WHERE",
                                  partial=True)
        with pytest.raises(UnsupportedOperation):
            grid.curator.get(f"{grid.home}/partial2")

    def test_non_select_rejected_at_registration(self, grid, dbres):
        with pytest.raises(UnsupportedOperation):
            grid.curator.register_sql(f"{grid.home}/evil", "dlib1",
                                      "DROP TABLE stars")

    def test_non_database_resource_rejected(self, grid, dbres):
        with pytest.raises(UnsupportedOperation):
            grid.curator.register_sql(f"{grid.home}/bad", "unix-sdsc",
                                      "SELECT name FROM stars")

    def test_delete_keeps_underlying_tables(self, grid, dbres):
        grid.curator.register_sql(f"{grid.home}/q", "dlib1",
                                  "SELECT name FROM stars")
        grid.curator.delete(f"{grid.home}/q")
        assert "stars" in dbres.database.tables()

    def test_register_replica_sql(self, grid, dbres):
        # two queries registered as semantically-equal replicas
        grid.curator.register_sql(f"{grid.home}/dual", "dlib1",
                                  "SELECT name FROM stars WHERE mag < 1",
                                  template="HTMLREL")
        num = grid.curator.register_replica(
            f"{grid.home}/dual", "SELECT name FROM stars WHERE mag < 1.0")
        out = grid.curator.get(f"{grid.home}/dual", replica_num=num)
        assert b"Sirius" in out


class TestRegisteredUrl:
    def test_fetched_at_retrieval(self, grid):
        grid.fed.web.publish("http://museum.org/page", b"<html>art</html>")
        grid.curator.register_url(f"{grid.home}/page",
                                  "http://museum.org/page")
        assert grid.curator.get(f"{grid.home}/page") == b"<html>art</html>"

    def test_contents_not_stored(self, grid):
        grid.fed.web.publish("http://museum.org/live", b"v1")
        grid.curator.register_url(f"{grid.home}/live",
                                  "http://museum.org/live")
        grid.fed.web.publish("http://museum.org/live", b"v2")
        assert grid.curator.get(f"{grid.home}/live") == b"v2"

    def test_cgi_urls_allowed(self, grid):
        calls = {"n": 0}

        def cgi():
            calls["n"] += 1
            return f"call-{calls['n']}".encode()

        grid.fed.web.publish("http://museum.org/cgi?id=7", cgi)
        grid.curator.register_url(f"{grid.home}/cgi",
                                  "http://museum.org/cgi?id=7")
        assert grid.curator.get(f"{grid.home}/cgi") == b"call-1"
        assert grid.curator.get(f"{grid.home}/cgi") == b"call-2"

    def test_delete_does_not_damage_url(self, grid):
        grid.fed.web.publish("http://museum.org/safe", b"content")
        grid.curator.register_url(f"{grid.home}/safe",
                                  "http://museum.org/safe")
        grid.curator.delete(f"{grid.home}/safe")
        assert grid.fed.web._content["http://museum.org/safe"] == b"content"

    def test_bad_scheme_rejected(self, grid):
        from repro.errors import StorageError
        with pytest.raises(StorageError):
            grid.curator.register_url(f"{grid.home}/bad", "gopher://old/x")

    def test_url_replica(self, grid):
        grid.fed.web.publish("http://a.org/x", b"same")
        grid.fed.web.publish("http://mirror.org/x", b"same")
        grid.curator.register_url(f"{grid.home}/mirrored", "http://a.org/x")
        num = grid.curator.register_replica(f"{grid.home}/mirrored",
                                            "http://mirror.org/x")
        assert grid.curator.get(f"{grid.home}/mirrored",
                                replica_num=num) == b"same"


class TestMethodObjects:
    def test_proxy_function(self, grid):
        grid.curator.register_method(f"{grid.home}/ps", "srb1", "srbps",
                                     proxy_function=True)
        out = grid.curator.get(f"{grid.home}/ps").decode()
        assert "srb1" in out and "srb2" in out

    def test_proxy_command_requires_admin_install(self, grid):
        with pytest.raises(UnsupportedOperation):
            grid.curator.register_method(f"{grid.home}/evil", "srb1",
                                         "rm-rf")

    def test_installed_command_with_args(self, grid):
        grid.fed.install_proxy_command(
            "srb2", "wordcount", lambda args: str(len(args.split())).encode())
        grid.curator.register_method(f"{grid.home}/wc", "srb2", "wordcount")
        assert grid.curator.get(f"{grid.home}/wc",
                                args="a b c") == b"3"

    def test_unknown_proxy_function(self, grid):
        with pytest.raises(UnsupportedOperation):
            grid.curator.register_method(f"{grid.home}/x", "srb1", "nope",
                                         proxy_function=True)

    def test_extract_info_function(self, grid):
        grid.curator.register_method(f"{grid.home}/xinfo", "srb1",
                                     "extract-info", proxy_function=True)
        out = grid.curator.get(f"{grid.home}/xinfo",
                               args="fits image|fits header").decode()
        assert "fits header" in out and "rules" in out
