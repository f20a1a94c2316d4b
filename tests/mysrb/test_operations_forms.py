"""Tests for the MySRB operation forms (move/copy/link/lock/checkout)
and the remaining registration forms."""

import pytest

from repro.mysrb import Browser, MySrbApp
from repro.workload import standard_grid


@pytest.fixture
def web():
    grid = standard_grid()
    grid.admin.grant("/demozone", "sekar@sdsc", "read")
    app = MySrbApp(grid.fed)
    browser = Browser(app)
    browser.login("sekar@sdsc", "secret")
    return grid, browser


class TestOperationForms:
    def test_get_shows_form_before_posting(self, web):
        grid, browser = web
        grid.curator.ingest(f"{grid.home}/f.txt", b"x")
        for action in ("replicate", "copy", "move", "link"):
            page = browser.get(f"/op?action={action}&path={grid.home}/f.txt")
            assert page.code == 200
            assert f'value="{action}"' in page.text

    def test_copy_form(self, web):
        grid, browser = web
        grid.curator.ingest(f"{grid.home}/c.txt", b"copy me")
        browser.post("/op", {"action": "copy", "path": f"{grid.home}/c.txt",
                             "dst": f"{grid.home}/c2.txt"})
        assert grid.curator.get(f"{grid.home}/c2.txt") == b"copy me"

    def test_move_form(self, web):
        grid, browser = web
        grid.curator.ingest(f"{grid.home}/m.txt", b"x")
        browser.post("/op", {"action": "move", "path": f"{grid.home}/m.txt",
                             "dst": f"{grid.home}/moved.txt"})
        assert grid.curator.get(f"{grid.home}/moved.txt") == b"x"

    def test_link_form(self, web):
        grid, browser = web
        grid.curator.ingest(f"{grid.home}/l.txt", b"x")
        browser.post("/op", {"action": "link", "path": f"{grid.home}/l.txt",
                             "dst": f"{grid.home}/alias.txt"})
        assert grid.curator.get(f"{grid.home}/alias.txt") == b"x"

    def test_lock_unlock_forms(self, web):
        grid, browser = web
        grid.curator.ingest(f"{grid.home}/k.txt", b"x")
        browser.post("/op", {"action": "lock", "path": f"{grid.home}/k.txt"})
        oid = grid.fed.mcat.get_object(f"{grid.home}/k.txt")["oid"]
        assert len(grid.fed.locks.locks_on(oid)) == 1
        browser.post("/op", {"action": "unlock",
                             "path": f"{grid.home}/k.txt"})
        assert grid.fed.locks.locks_on(oid) == []

    def test_checkout_checkin_forms(self, web):
        grid, browser = web
        grid.curator.ingest(f"{grid.home}/v.txt", b"x")
        browser.post("/op", {"action": "checkout",
                             "path": f"{grid.home}/v.txt"})
        obj = grid.fed.mcat.get_object(f"{grid.home}/v.txt")
        assert obj["checked_out_by"] == "sekar@sdsc"
        browser.post("/op", {"action": "checkin",
                             "path": f"{grid.home}/v.txt"})
        obj = grid.fed.mcat.get_object(f"{grid.home}/v.txt")
        assert obj["checked_out_by"] is None
        assert obj["version"] == 2

    def test_delete_collection_via_form(self, web):
        grid, browser = web
        grid.curator.mkcoll(f"{grid.home}/empty")
        browser.post("/op", {"action": "delete",
                             "path": f"{grid.home}/empty"})
        assert grid.fed.mcat.lookup(f"{grid.home}/empty") is None

    def test_unknown_action_400(self, web):
        grid, browser = web
        grid.curator.ingest(f"{grid.home}/x.txt", b"x")
        r = browser.post("/op", {"action": "teleport",
                                 "path": f"{grid.home}/x.txt"})
        assert r.code == 400


class TestRegistrationForms:
    def test_register_file_form(self, web):
        grid, browser = web
        drv = grid.fed.resources.physical("unix-caltech").driver
        drv.create("/ext/pre.dat", b"registered bytes")
        browser.post("/register/file", {
            "coll": grid.home, "name": "pre.dat",
            "resource": "unix-caltech", "physical_path": "/ext/pre.dat"})
        assert grid.curator.get(f"{grid.home}/pre.dat") == b"registered bytes"

    def test_register_directory_form(self, web):
        grid, browser = web
        drv = grid.fed.resources.physical("unix-caltech").driver
        drv.create("/ext/cone/x.txt", b"in the cone")
        browser.post("/register/directory", {
            "coll": grid.home, "name": "cone",
            "resource": "unix-caltech", "physical_dir": "/ext/cone"})
        assert grid.curator.get(f"{grid.home}/cone/x.txt") == b"in the cone"

    def test_register_method_form(self, web):
        grid, browser = web
        browser.post("/register/method", {
            "coll": grid.home, "name": "ps", "server": "srb1",
            "command": "srbps", "proxy_function": "1"})
        out = grid.curator.get(f"{grid.home}/ps")
        assert b"srb1" in out

    def test_register_partial_sql_form(self, web):
        grid, browser = web
        from repro.db import Column
        drv = grid.fed.resources.physical("dlib1").driver
        t = drv.create_user_table("vals", [Column("v", "INT")])
        for i in range(5):
            t.insert({"v": i})
        browser.post("/register/sql", {
            "coll": grid.home, "name": "partial", "resource": "dlib1",
            "sql": "SELECT v FROM vals WHERE", "template": "XMLREL",
            "partial": "1"})
        out = grid.curator.get(f"{grid.home}/partial", sql_remainder="v > 2")
        assert out.count(b"<row>") == 2

    def test_unknown_registration_kind_404(self, web):
        grid, browser = web
        r = browser.post("/register/hologram", {"coll": grid.home,
                                                "name": "x"})
        assert r.code == 404


class TestStructuralForm:
    def test_define_and_display(self, web):
        grid, browser = web
        browser.post("/structural", {
            "coll": grid.home, "attr": "culture",
            "default_value": "", "vocabulary": "avian|marine",
            "mandatory": "1", "comment": "MetaCore for Cultures"})
        page = browser.get(f"/browse?path={grid.home}")
        # the requirement now governs ingest through the form
        from repro.errors import MandatoryMetadataMissing
        with pytest.raises(MandatoryMetadataMissing):
            grid.curator.ingest(f"{grid.home}/x.txt", b"x")
        form = browser.get(f"/structural?coll={grid.home}")
        assert "culture" in form.text
        assert "avian|marine" in form.text
        assert "MetaCore for Cultures" in form.text

    def test_structural_form_requires_ownership(self, web):
        grid, browser = web
        grid.fed.add_user("guest@sdsc", "pw")
        from repro.mysrb import Browser
        gb = Browser(browser.app)
        gb.login("guest@sdsc", "pw")
        r = gb.post("/structural", {"coll": grid.home, "attr": "evil"})
        assert r.code == 403
