"""MySRB listing/result pagination: rendering is clamped at a page
bound and large sets continue through cursor links, never one unbounded
document."""

import re

import pytest

from repro.core import SrbClient
from repro.mcat import Condition
from repro.mysrb import Browser, MySrbApp, views
from repro.mysrb.views import PAGE_BOUND
from repro.workload import standard_grid

N_OBJECTS = PAGE_BOUND + 10


@pytest.fixture
def web():
    grid = standard_grid()
    grid.admin.grant("/demozone", "sekar@sdsc", "read")
    grid.curator.bulk_ingest([
        {"path": f"{grid.home}/d{i:04d}.dat", "data": b"x"}
        for i in range(N_OBJECTS)])
    app = MySrbApp(grid.fed)
    browser = Browser(app)
    browser.login("sekar@sdsc", "secret")
    return grid, app, browser


def next_link(html):
    m = re.search(r'class="next-page" href="([^"]+)"', html)
    return m.group(1).replace("&amp;", "&") if m else None


class TestBrowsePaging:
    def test_first_page_clamped_at_bound(self, web):
        grid, app, browser = web
        r = browser.get(f"/browse?path={grid.home}")
        assert r.code == 200
        assert len(set(re.findall(r"d\d{4}\.dat", r.text))) == PAGE_BOUND
        assert r.text.count("<tr>") <= PAGE_BOUND + 1   # rows + header
        assert next_link(r.text) is not None

    def test_cursor_link_reaches_every_object(self, web):
        grid, app, browser = web
        seen, url = set(), f"/browse?path={grid.home}"
        while url is not None:
            r = browser.get(url)
            assert r.code == 200
            seen.update(re.findall(r"d\d{4}\.dat", r.text))
            url = next_link(r.text)
        assert len(seen) == N_OBJECTS

    def test_small_collection_has_no_next_link(self, web):
        grid, app, browser = web
        r = browser.get("/browse?path=/demozone/home")
        assert next_link(r.text) is None


class TestQueryPaging:
    def test_results_clamped_with_roundtripping_next_link(self, web):
        grid, app, browser = web
        # an unconditioned query matches every object under home
        r = browser.post("/query", {"scope": grid.home, "system": "1"})
        assert r.code == 200
        first = set(re.findall(r"d\d{4}\.dat", r.text))
        assert len(first) <= PAGE_BOUND
        link = next_link(r.text)
        assert link is not None and "cursor=" in link and "run=1" in link
        seen, url = set(first), link
        while url is not None:
            r = browser.get(url)
            assert r.code == 200
            seen.update(re.findall(r"d\d{4}\.dat", r.text))
            url = next_link(r.text)
        assert len(seen) == N_OBJECTS

    def test_conditions_survive_the_next_link(self, web):
        grid, app, browser = web
        for i in range(3):
            grid.curator.add_metadata(f"{grid.home}/d{i:04d}.dat",
                                      "pick", "yes")
        r = browser.post("/query", {
            "scope": grid.home, "attr1": "pick", "op1": "=",
            "value1": "yes", "show1": "1"})
        hits = set(re.findall(r"d\d{4}\.dat", r.text))
        assert hits == {"d0000.dat", "d0001.dat", "d0002.dat"}
        assert next_link(r.text) is None   # 3 hits fit one page

    def test_query_form_still_served_without_run(self, web):
        grid, app, browser = web
        r = browser.get(f"/query?scope={grid.home}")
        assert r.code == 200 and "<form" in r.text


class TestViewClamp:
    def test_query_results_view_honors_page_size(self, web):
        grid, app, browser = web
        client = grid.curator
        html = views.query_results(client, grid.home, [], False, True,
                                   page_size=7)
        assert len(set(re.findall(r"d\d{4}\.dat", html))) == 7
        assert next_link(html) is not None

    def test_a_page_is_never_empty_above_a_next_link(self, web):
        """The first matches are not the reader's to see: the page fills
        with the ones that are, where it used to render "0 matching SRB
        objects on this page" over a *next page* link."""
        grid, app, browser = web
        grid.fed.add_user("guest@sdsc", "pw")
        guest = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
        guest.login()
        coll = f"{grid.home}/guestbook"
        grid.fed.mcat.create_collection(coll, "guest@sdsc", now=0.0)
        guest.grant(coll, "sekar@sdsc", "write")
        for i in range(5):
            grid.curator.ingest(f"{coll}/g{i:04d}.dat", b"x",
                                metadata={"pick": "yes"})
        for i in (3, 4):
            grid.curator.grant(f"{coll}/g{i:04d}.dat", "guest@sdsc", "read")
        html = views.query_results(guest, coll,
                                   [Condition("pick", "=", "yes")],
                                   False, False, page_size=2)
        assert set(re.findall(r"g\d{4}\.dat", html)) == {"g0003.dat",
                                                         "g0004.dat"}
        assert "2 matching SRB objects." in html
        assert next_link(html) is None

    def test_browse_view_honors_page_size(self, web):
        grid, app, browser = web
        html = views.browse(grid.curator, grid.home, page_size=5)
        assert html.count("<tr>") <= 5 + 1
        assert next_link(html) is not None
