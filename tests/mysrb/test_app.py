"""Tests for the MySRB web interface (sessions, pages, forms)."""

import pytest

from repro.db import Column
from repro.mysrb import Browser, MySrbApp
from repro.mysrb.html import url_quote
from repro.workload import standard_grid


@pytest.fixture
def web():
    grid = standard_grid()
    grid.admin.grant("/demozone", "sekar@sdsc", "read")
    app = MySrbApp(grid.fed)
    browser = Browser(app)
    return grid, app, browser


def login(browser):
    return browser.login("sekar@sdsc", "secret")


class TestSecurity:
    def test_http_refused(self, web):
        grid, app, _ = web
        insecure = Browser(app, https=False)
        r = insecure.get("/browse", follow_redirects=False)
        assert r.code == 403
        assert "https" in r.text

    def test_login_sets_secure_cookie(self, web):
        grid, app, browser = web
        browser.request("POST", "/login",
                        form={"username": "sekar@sdsc", "password": "secret"},
                        follow_redirects=False)
        assert browser.cookie is not None
        assert browser.cookie.startswith("sk-")

    def test_bad_password_rejected(self, web):
        grid, app, browser = web
        r = browser.login("sekar@sdsc", "WRONG")
        assert r.code == 401
        assert browser.cookie is None

    def test_session_expires_after_60_minutes(self, web):
        grid, app, browser = web
        login(browser)
        grid.fed.clock.advance(3601.0)
        r = browser.get("/browse?path=/demozone")
        assert r.code == 401

    def test_forged_session_key_rejected(self, web):
        grid, app, browser = web
        browser.cookie = "sk-000042-deadbeefdeadbeef"
        r = browser.get("/browse?path=/demozone")
        assert r.code == 401

    def test_logout_invalidates(self, web):
        grid, app, browser = web
        login(browser)
        key = browser.cookie
        browser.get("/logout", follow_redirects=False)
        browser.cookie = key
        home = browser.get("/browse?path=/demozone/home/sekar")
        assert home.code == 401

    def test_public_browsing_without_login(self, web):
        grid, app, browser = web
        grid.admin.grant("/demozone", "*", "read")
        r = browser.get("/browse?path=/demozone")
        assert r.code == 200


class TestBrowse:
    def test_split_window_panes_present(self, web):
        grid, app, browser = web
        login(browser)
        r = browser.get("/browse?path=/demozone/home/sekar")
        assert 'class="top-pane"' in r.text
        assert 'class="bottom-pane"' in r.text

    def test_listing_shows_objects_and_operations(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/notes.txt", b"hello",
                            data_type="ascii text")
        login(browser)
        r = browser.get(f"/browse?path={grid.home}")
        assert "notes.txt" in r.text
        for op in ("open", "replicate", "copy", "move", "link", "delete"):
            assert f">{op}</a>" in r.text

    def test_unknown_collection_404(self, web):
        grid, app, browser = web
        login(browser)
        assert browser.get("/browse?path=/demozone/ghost").code == 404

    def test_forbidden_collection_403(self, web):
        grid, app, browser = web
        grid.admin.mkcoll("/otherzone")
        login(browser)
        assert browser.get("/browse?path=/otherzone").code == 403

    def test_open_shows_metadata_and_content(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/open.txt", b"the content",
                            data_type="ascii text")
        grid.curator.add_metadata(f"{grid.home}/open.txt", "topic", "grids")
        login(browser)
        r = browser.get(f"/open?path={grid.home}/open.txt")
        assert "the content" in r.text
        assert "topic" in r.text and "grids" in r.text
        assert "replica" in r.text


class TestStatusPage:
    def test_status_shows_grid_stats_and_metrics(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/s.txt", b"x" * 1000)
        login(browser)
        r = browser.get("/status")
        assert r.code == 200
        assert "messages" in r.text          # federation summary
        assert "rpc.calls" in r.text         # counter series
        assert "rpc.call_s" in r.text        # histogram series

    def test_status_keeps_every_digit_of_a_counter(self, web):
        # ``:g`` showed net.bytes 1200563 as 1.20056e+06
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/big.dat", b"x" * 1_200_000)
        sent = grid.fed.obs.metrics.get("net.bytes", src="laptop", dst="sdsc")
        assert sent > 1_200_000
        r = browser.get("/status")
        assert f">{sent}<" in r.text
        assert "e+0" not in r.text

    def test_status_public_like_resources(self, web):
        grid, app, browser = web
        r = browser.get("/status")      # anonymous, same as /resources
        assert r.code == 200
        assert "virtual_time_s" in r.text

    def test_status_breaks_ops_down_by_plane(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/p.txt", b"x")
        grid.curator.get_metadata(f"{grid.home}/p.txt")
        login(browser)
        r = browser.get("/status")
        assert "Server ops by plane" in r.text
        assert "data" in r.text and "metadata" in r.text


class TestIngestFlow:
    def test_ingest_form_has_dublin_core(self, web):
        grid, app, browser = web
        login(browser)
        r = browser.get(f"/ingest?coll={grid.home}")
        for el in ("Title", "Creator", "Subject", "Rights"):
            assert f'name="dc:{el}"' in r.text

    def test_ingest_form_shows_structural_requirements(self, web):
        grid, app, browser = web
        grid.curator.define_structural(
            grid.home, "culture", vocabulary=["avian", "marine"],
            mandatory=True, comment="required by the curator")
        login(browser)
        r = browser.get(f"/ingest?coll={grid.home}")
        assert "culture *" in r.text
        assert "<option" in r.text and "avian" in r.text
        assert "required by the curator" in r.text

    def test_post_creates_object_with_metadata(self, web):
        grid, app, browser = web
        login(browser)
        browser.post("/ingest", {
            "coll": grid.home, "name": "birds.txt",
            "content": "ibis data", "data_type": "ascii text",
            "resource": "unix-sdsc", "container": "(none)",
            "dc:Title": "Bird notes",
            "uname1": "species", "uvalue1": "ibis", "uunits1": "",
        })
        assert grid.curator.get(f"{grid.home}/birds.txt") == b"ibis data"
        md = {m["attr"]: m for m in
              grid.curator.get_metadata(f"{grid.home}/birds.txt")}
        assert md["Title"]["meta_class"] == "type"
        assert md["species"]["value"] == "ibis"

    def test_mandatory_metadata_violation_400(self, web):
        grid, app, browser = web
        grid.curator.define_structural(grid.home, "curator", mandatory=True)
        login(browser)
        r = browser.post("/ingest", {
            "coll": grid.home, "name": "x.txt", "content": "x",
            "resource": "unix-sdsc", "container": "(none)"})
        assert r.code == 400
        assert "curator" in r.text

    def test_bulk_ingest_form_linked_and_served(self, web):
        grid, app, browser = web
        login(browser)
        r = browser.get(f"/ingest?coll={grid.home}")
        assert "/ingest-bulk" in r.text
        r = browser.get(f"/ingest-bulk?coll={grid.home}")
        assert r.code == 200
        assert 'name="name1"' in r.text and 'name="content1"' in r.text

    def test_bulk_ingest_post_creates_all_objects(self, web):
        grid, app, browser = web
        login(browser)
        r = browser.post("/ingest-bulk", {
            "coll": grid.home, "resource": "unix-sdsc",
            "container": "(none)",
            "name1": "a.txt", "content1": "alpha",
            "name2": "b.txt", "content2": "beta",
            "name3": "", "content3": "skipped",
        })
        assert r.code == 200
        assert "2/2" in r.text
        assert grid.curator.get(f"{grid.home}/a.txt") == b"alpha"
        assert grid.curator.get(f"{grid.home}/b.txt") == b"beta"

    def test_bulk_ingest_post_reports_per_file_errors(self, web):
        grid, app, browser = web
        login(browser)
        grid.curator.ingest(f"{grid.home}/dup.txt", b"old")
        r = browser.post("/ingest-bulk", {
            "coll": grid.home, "resource": "unix-sdsc",
            "container": "(none)",
            "name1": "dup.txt", "content1": "new",
            "name2": "fresh.txt", "content2": "ok",
        })
        assert r.code == 200
        assert "1/2" in r.text and "AlreadyExists" in r.text
        assert grid.curator.get(f"{grid.home}/dup.txt") == b"old"

    def test_edit_small_ascii_file(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/edit.txt", b"before",
                            data_type="ascii text")
        login(browser)
        form = browser.get(f"/edit?path={grid.home}/edit.txt")
        assert "before" in form.text
        browser.post("/edit", {"path": f"{grid.home}/edit.txt",
                               "content": "after"})
        assert grid.curator.get(f"{grid.home}/edit.txt") == b"after"

    def test_edit_refused_for_binary_types(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/img.fits", b"\x00\x01",
                            data_type="fits image")
        login(browser)
        assert browser.get(f"/edit?path={grid.home}/img.fits").code == 400


class TestQueryFlow:
    def test_query_form_lists_attributes_and_operators(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/q.txt", b"x")
        grid.curator.add_metadata(f"{grid.home}/q.txt", "species", "ibis")
        login(browser)
        r = browser.get(f"/query?scope={grid.home}")
        assert "species" in r.text
        assert "not like" in r.text
        assert "conjunctive" in r.text

    def test_query_post_returns_results(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/q1.txt", b"x")
        grid.curator.add_metadata(f"{grid.home}/q1.txt", "species", "ibis")
        grid.curator.ingest(f"{grid.home}/q2.txt", b"x")
        grid.curator.add_metadata(f"{grid.home}/q2.txt", "species", "heron")
        login(browser)
        r = browser.post("/query", {
            "scope": grid.home, "attr1": "species", "op1": "=",
            "value1": "ibis", "show1": "1"})
        assert "q1.txt" in r.text
        assert "q2.txt" not in r.text
        assert "1 matching SRB objects" in r.text


class TestOperationsAndRegistration:
    def test_mkcoll(self, web):
        grid, app, browser = web
        login(browser)
        browser.post("/mkcoll", {"coll": grid.home, "name": "Avian Culture"})
        assert grid.fed.mcat.collection_exists(f"{grid.home}/Avian Culture")

    def test_replicate_via_form(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/rep.txt", b"x")
        login(browser)
        browser.post("/op", {"action": "replicate",
                             "path": f"{grid.home}/rep.txt",
                             "resource": "unix-caltech"})
        assert len(grid.curator.stat(f"{grid.home}/rep.txt")["replicas"]) == 2

    def test_delete_via_form(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/del.txt", b"x")
        login(browser)
        browser.post("/op", {"action": "delete",
                             "path": f"{grid.home}/del.txt"})
        from repro.errors import NoSuchObject
        with pytest.raises(NoSuchObject):
            grid.curator.stat(f"{grid.home}/del.txt")

    def test_register_url_and_open_inline(self, web):
        grid, app, browser = web
        grid.fed.web.publish("http://museum.org/x", b"<html>inline</html>")
        login(browser)
        browser.post("/register/url", {"coll": grid.home, "name": "ext",
                                       "url": "http://museum.org/x"})
        r = browser.get(f"/open?path={grid.home}/ext")
        assert "<html>inline</html>" in r.text      # inlineable content

    def test_register_sql_and_render(self, web):
        grid, app, browser = web
        drv = grid.fed.resources.physical("dlib1").driver
        t = drv.create_user_table("m", [Column("v", "TEXT")])
        t.insert({"v": "hello-db"})
        login(browser)
        browser.post("/register/sql", {
            "coll": grid.home, "name": "q", "resource": "dlib1",
            "sql": "SELECT v FROM m", "template": "HTMLREL"})
        r = browser.get(f"/open?path={grid.home}/q")
        assert "hello-db" in r.text

    def test_annotate_flow(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/ann.txt", b"x")
        login(browser)
        browser.post("/annotate", {"path": f"{grid.home}/ann.txt",
                                   "ann_type": "comment",
                                   "text": "lovely dataset",
                                   "location": ""})
        anns = grid.curator.annotations(f"{grid.home}/ann.txt")
        assert anns[0]["text"] == "lovely dataset"

    def test_metadata_insert_form(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/md.txt", b"x")
        login(browser)
        browser.post("/metadata", {"path": f"{grid.home}/md.txt",
                                   "attr": "topic", "value": "grids",
                                   "units": ""})
        md = grid.curator.get_metadata(f"{grid.home}/md.txt")
        assert md[0]["attr"] == "topic"

    def test_help_page(self, web):
        grid, app, browser = web
        assert "on-line help" in browser.get("/help").text

    def test_root_redirects_to_zone(self, web):
        grid, app, browser = web
        grid.admin.grant("/demozone", "*", "read")
        r = browser.get("/")
        assert r.code == 200
        assert "Collection /demozone" in r.text


class TestUserRegistration:
    def test_admin_registers_user(self, web):
        grid, app, browser = web
        admin_browser = Browser(app)
        admin_browser.login("srbadmin@sdsc", "hunter2")
        form = admin_browser.get("/newuser")
        assert form.code == 200 and "Role" in form.text
        admin_browser.post("/newuser", {"username": "newbie@ucsd",
                                        "password": "pw",
                                        "role": "contributor"})
        assert grid.fed.users.exists("newbie@ucsd")
        assert grid.fed.users.role_of("newbie@ucsd") == "contributor"
        # the new user can sign on to MySRB immediately (the post-login
        # landing page may still be 403 until someone grants read access)
        nb = Browser(app)
        r = nb.request("POST", "/login",
                       form={"username": "newbie@ucsd", "password": "pw"},
                       follow_redirects=False)
        assert r.code == 303 and nb.cookie is not None

    def test_non_admin_cannot_register_users(self, web):
        grid, app, browser = web
        login(browser)                      # curator, not sysadmin
        assert browser.get("/newuser").code == 403
        assert not grid.fed.users.exists("evil@x")

    def test_anonymous_cannot_register_users(self, web):
        grid, app, browser = web
        assert browser.get("/newuser").code == 403


class TestCollectionPaths:
    """A collection's ``stat`` row has no ``kind``: the pages that name
    one object answer a collection without tripping on it."""

    def test_open_of_a_collection_shows_its_listing(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/seen.txt", b"x")
        login(browser)
        r = browser.get(f"/open?path={grid.home}", follow_redirects=False)
        assert r.code == 303
        assert r.header("Location") == \
            f"/browse?path={url_quote(grid.home)}"
        r = browser.get(f"/open?path={grid.home}")
        assert r.code == 200 and "seen.txt" in r.text

    def test_edit_of_a_collection_is_refused(self, web):
        grid, app, browser = web
        login(browser)
        r = browser.get(f"/edit?path={grid.home}")
        assert r.code == 400 and "not collection" in r.text


class TestForms:
    """``/register/<kind>`` and ``/structural`` read their fields off the
    op's signature."""

    def test_structural_form_reaches_every_parameter(self, web):
        grid, app, browser = web
        login(browser)
        browser.post("/structural", {
            "coll": grid.home, "attr": "medium", "default_value": "image",
            "vocabulary": "image|movie", "mandatory": "on",
            "comment": "what it is"})
        (row,) = grid.curator.structural_metadata(grid.home)
        assert (row["attr"], row["default_value"], row["vocabulary"],
                bool(row["mandatory"]), row["comment"]) == \
            ("medium", "image", "image|movie", True, "what it is")

    def test_structural_optional_fields_keep_their_defaults(self, web):
        grid, app, browser = web
        login(browser)
        browser.post("/structural", {"coll": grid.home, "attr": "band"})
        (row,) = grid.curator.structural_metadata(grid.home)
        assert (row["default_value"], row["vocabulary"],
                bool(row["mandatory"]), row["comment"]) == \
            (None, None, False, None)

    def test_blank_structural_name_is_refused(self, web):
        grid, app, browser = web
        login(browser)
        r = browser.post("/structural", {"coll": grid.home,
                                         "default_value": "x"})
        assert r.code == 400 and "may not be empty" in r.text
        assert grid.curator.structural_metadata(grid.home) == []
        grid.curator.ingest(f"{grid.home}/after.txt", b"still ingests")

    def test_register_method_and_unknown_kind(self, web):
        grid, app, browser = web
        login(browser)
        browser.post("/register/method", {
            "coll": grid.home, "name": "ps", "server": "srb1",
            "command": "srbps", "proxy_function": "on"})
        info = grid.curator.stat(f"{grid.home}/ps")
        assert (info["kind"], info["target"]) == \
            ("method", "function:srb1:srbps")
        r = browser.post("/register/replica", {"coll": grid.home,
                                               "name": "x"})
        assert r.code == 404


class TestContainerView:
    def test_open_container_lists_members(self, web):
        grid, app, browser = web
        grid.fed.add_logical_resource("viewres", ["unix-sdsc"])
        grid.curator.create_container(f"{grid.home}/box", "viewres")
        grid.curator.ingest(f"{grid.home}/m1.txt", b"12345",
                            container=f"{grid.home}/box")
        grid.curator.ingest(f"{grid.home}/m2.txt", b"678",
                            container=f"{grid.home}/box")
        login(browser)
        page = browser.get(f"/open?path={grid.home}/box")
        assert page.code == 200
        assert "Container members (2)" in page.text
        assert "m1.txt" in page.text and "m2.txt" in page.text
        assert "8 bytes total" in page.text
