"""Each MySRB page sends its independent catalog calls as one
``client.batch`` exchange.  Batching must keep every page's contract —
which failure is a 404, which a 403, which merely an empty pane — and
``client.batch`` must treat an op's arguments exactly as the unary
method does.  Also here: the two fixes that came out of counting the
exchanges (container members and the *edit* link)."""

import re

import pytest

from repro.core import Federation, SrbClient
from repro.errors import AccessDenied, NoSuchCollection
from repro.mysrb import Browser, MySrbApp
from repro.net.wire import message_size
from repro.workload import standard_grid


@pytest.fixture
def web():
    grid = standard_grid()
    app = MySrbApp(grid.fed)
    browser = Browser(app)
    browser.login("sekar@sdsc", "secret")
    return grid, app, browser


def exchanges(fed, run, src=None):
    """The ``(method, request)`` of every RPC message pair ``run()`` makes
    (from host ``src``, when given)."""
    seen = []
    inner = fed.rpc._exchange

    def counting(from_host, dst, service, method, span_name, span_attrs,
                 request, *rest):
        if src is None or from_host == src:
            seen.append((method, request))
        return inner(from_host, dst, service, method, span_name, span_attrs,
                     request, *rest)

    fed.rpc._exchange = counting
    try:
        run()
    finally:
        del fed.rpc._exchange
    return seen


def metadata_of(client, path):
    return sorted((m["attr"], m["value"]) for m in client.get_metadata(path))


class TestPageContracts:
    def test_missing_collection_is_404_denied_is_403(self, web):
        grid, app, browser = web
        assert browser.get(f"/browse?path={grid.home}/nowhere").code == 404
        grid.admin.mkcoll("/demozone/private")
        grid.fed.add_user("eve@sdsc", "pw", role="reader")
        eve = Browser(app)
        eve.login("eve@sdsc", "pw")
        page = eve.get("/browse?path=/demozone/private")
        assert page.code == 403

    def test_browse_renders_when_only_the_top_pane_fails(self, web):
        """A path inside a registered directory lists (from the physical
        directory) but has no catalog row to hold metadata."""
        grid, app, browser = web
        drv = grid.fed.resources.physical("unix-caltech").driver
        drv.create("/archive/cone/sub/b.txt", b"beta")
        grid.curator.register_directory(f"{grid.home}/cone", "unix-caltech",
                                        "/archive/cone")
        page = browser.get(f"/browse?path={grid.home}/cone/sub")
        assert page.code == 200
        assert "b.txt" in page.text and "no metadata" in page.text

    def test_open_reports_the_first_failure(self, web):
        grid, app, browser = web
        assert browser.get(f"/open?path={grid.home}/absent.txt").code == 404
        grid.curator.ingest(f"{grid.home}/mine.txt", b"x")
        grid.fed.add_user("eve@sdsc", "pw", role="reader")
        eve = Browser(app)
        eve.login("eve@sdsc", "pw")
        assert eve.get(f"/open?path={grid.home}/mine.txt").code == 403

    def test_bad_dublin_core_triple_is_400_and_the_rest_is_kept(self, web):
        grid, app, browser = web
        page = browser.post("/ingest", {
            "coll": grid.home, "name": "n.txt", "content": "body",
            "resource": "unix-sdsc", "container": "(none)",
            "dc:Title": "Kept", "dc:NotAnElement": "refused",
            "dc:Creator": "also kept",
            "uname1": "band", "uvalue1": "J"})
        assert page.code == 400 and "NotAnElement" in page.text
        assert grid.curator.get(f"{grid.home}/n.txt") == b"body"
        # each triple stands on its own: those after the refused one too
        assert metadata_of(grid.curator, f"{grid.home}/n.txt") == [
            ("Creator", "also kept"), ("Title", "Kept"), ("band", "J")]

    def test_refused_ingest_leaves_the_object_there_untouched(self, web):
        grid, app, browser = web
        path = f"{grid.home}/taken.txt"
        grid.curator.ingest(path, b"first")
        grid.curator.add_metadata(path, "band", "J")
        page = browser.post("/ingest", {
            "coll": grid.home, "name": "taken.txt", "content": "second",
            "resource": "unix-sdsc", "container": "(none)",
            "dc:Title": "Usurper", "uname1": "band", "uvalue1": "K"})
        assert page.code == 400
        assert grid.curator.get(path) == b"first"
        assert metadata_of(grid.curator, path) == [("band", "J")]

    def test_ingest_form_asks_for_containers_not_the_listing(self, web):
        grid, app, browser = web
        grid.curator.create_container(f"{grid.home}/box", "logrsrc1")
        grid.curator.mkcoll(f"{grid.home}/deeper")
        grid.curator.create_container(f"{grid.home}/deeper/box2", "logrsrc1")
        for i in range(5):
            grid.curator.ingest(f"{grid.home}/f{i}.txt", b"x")
        seen = exchanges(grid.fed, lambda: browser.get(
            f"/ingest?coll={grid.home}"))
        page = browser.get(f"/ingest?coll={grid.home}")
        assert [method for method, _request in seen] == ["<batch>"]
        assert "list_collection" not in str(seen[0][1])
        options = re.findall(r'<option value="([^"]*box[^"]*)"', page.text)
        assert options == [f"{grid.home}/box"]       # direct children only
        bulk = browser.get(f"/ingest-bulk?coll={grid.home}")
        assert f'<option value="{grid.home}/box"' in bulk.text
        assert "box2" not in bulk.text


class TestContainerMembers:
    """The container view used to read members in-process on the web
    host, past the ACL: whoever could read a container saw the paths of
    members they could not."""

    @pytest.fixture
    def boxed(self, web):
        grid, app, browser = web
        grid.curator.mkcoll(f"{grid.home}/pub")
        grid.curator.mkcoll(f"{grid.home}/secret")
        box = f"{grid.home}/pub/box"
        grid.curator.create_container(box, "logrsrc1")
        grid.curator.ingest(f"{grid.home}/pub/flyer.txt", b"come along",
                            container=box)
        grid.curator.ingest(f"{grid.home}/secret/plans.txt", b"at dawn",
                            container=box)
        grid.fed.add_user("eve@sdsc", "pw", role="reader")
        grid.curator.grant(box, "eve@sdsc", "read")
        grid.curator.grant(f"{grid.home}/pub/flyer.txt", "eve@sdsc", "read")
        eve = SrbClient(grid.fed, "laptop", "srb1", "eve@sdsc", "pw")
        eve.login()
        return grid, app, box, eve

    def test_page_lists_only_members_the_caller_may_read(self, boxed):
        grid, app, box, eve = boxed
        with pytest.raises(AccessDenied):
            eve.stat(f"{grid.home}/secret/plans.txt")
        browser = Browser(app)
        browser.login("eve@sdsc", "pw")
        page = browser.get(f"/open?path={box}")
        assert page.code == 200
        assert "flyer.txt" in page.text and "Container members (1)" in page.text
        assert "plans.txt" not in page.text and "secret" not in page.text
        # the dead-space figure is the container's, not the visible part's
        assert "0 bytes reclaimable" in page.text

    def test_owner_sees_every_member_in_offset_order(self, boxed):
        grid, app, box, eve = boxed
        assert grid.curator.stat(box)["members"] == [
            {"path": f"{grid.home}/pub/flyer.txt", "name": "flyer.txt",
             "offset": 0, "size": 10},
            {"path": f"{grid.home}/secret/plans.txt", "name": "plans.txt",
             "offset": 10, "size": 7}]
        assert [m["name"] for m in eve.stat(box)["members"]] == ["flyer.txt"]

    def test_stat_of_anything_else_has_no_members(self, boxed):
        grid, app, box, eve = boxed
        assert "members" not in grid.curator.stat(f"{grid.home}/pub/flyer.txt")
        assert "members" not in grid.curator.stat(f"{grid.home}/pub")

    def test_the_pages_go_through_the_server(self):
        import inspect

        from repro.mysrb import app, views
        assert ".federation" not in inspect.getsource(views.open_object)
        for module in (app, views):     # nor the unbounded listing
            source = inspect.getsource(module)
            assert ".ls(" not in source
            assert '"list_collection"' not in source


class TestEditLink:
    """"The edit facility is allowed only for a few data types": the
    listing offers the link by the rule ``/edit`` refuses by."""

    def test_listing_offers_edit_only_where_edit_answers(self, web):
        grid, app, browser = web
        grid.curator.ingest(f"{grid.home}/notes.txt", b"hello",
                            data_type="ascii text")
        grid.curator.ingest(f"{grid.home}/sky.fits", b"\x00\x01",
                            data_type="fits image")
        grid.curator.ingest(f"{grid.home}/untyped", b"plain")
        grid.curator.link(f"{grid.home}/notes.txt", f"{grid.home}/alias")
        page = browser.get(f"/browse?path={grid.home}").text
        offered = re.findall(r'href="(/edit\?path=[^"]+)"', page)
        assert offered == [f"/edit?path=%2Fdemozone%2Fhome%2Fsekar%2F{name}"
                           for name in ("notes.txt", "untyped")]
        for href in offered:
            assert browser.get(href).code == 200
        assert browser.get(f"/edit?path={grid.home}/sky.fits").code == 400
        assert browser.get(f"/edit?path={grid.home}/alias").code == 400


class TestClientBatch:
    def test_items_run_in_order_and_fail_on_their_own(self, web):
        grid, app, browser = web
        made, listed, missing, added = grid.curator.batch(
            ("mkcoll", {"path": f"{grid.home}/made"}),
            ("list_collection_page", {"path": grid.home}),
            ("list_collection_page", {"path": f"{grid.home}/nope"}),
            ("add_metadata", {"path": f"{grid.home}/made", "attr": "a",
                              "value": "1"}))
        assert made.ok and added.ok
        assert listed.unwrap()["collections"] == [f"{grid.home}/made"]
        assert not missing.ok
        with pytest.raises(NoSuchCollection):
            missing.unwrap()
        assert metadata_of(grid.curator, f"{grid.home}/made") == [("a", "1")]

    def test_unknown_op_and_unauthenticated_op(self, web):
        grid, app, browser = web
        bogus, challenge = grid.curator.batch(
            ("no_such_op", {}),
            ("auth_challenge", {"username": "sekar@sdsc"}))
        assert not bogus.ok and "no_such_op" in str(bogus.error)
        assert challenge.ok and "challenge" in challenge.value

    def test_empty_batch_makes_no_exchange(self, web):
        grid, app, browser = web
        assert exchanges(grid.fed, lambda: grid.curator.batch()) == []
        assert grid.curator.batch() == []

    #: every op with a payload slot: ``(kwargs for a path and a body, the
    #: op writes over an object that exists)``
    PAYLOAD_OPS = {
        "ingest": (lambda path, body: {
            "path": path, "data": body, "resource": None, "container": None,
            "data_type": None, "metadata": None}, False),
        "put": (lambda path, body: {"path": path, "data": body}, True),
        "ingest_replica": (lambda path, body: {
            "path": path, "data": body, "resource": "unix-other"}, True),
        "bulk_ingest": (lambda path, body: {
            "items": [{"path": path, "data": body}], "resource": None,
            "container": None}, False),
    }

    @pytest.mark.parametrize("op", sorted(PAYLOAD_OPS))
    @pytest.mark.parametrize("direct_io", [False, True])
    def test_payload_slot_is_deferred_like_the_unary_call(self, direct_io,
                                                          op):
        fed = Federation(zone="demozone", direct_io=direct_io)
        fed.add_host("sdsc")
        fed.add_host("laptop")
        fed.add_server("srb1", "sdsc", mcat=True)
        fed.add_fs_resource("unix-sdsc", "sdsc")
        fed.add_fs_resource("unix-other", "sdsc")
        fed.default_resource = "unix-sdsc"
        fed.bootstrap_admin()
        client = SrbClient(fed, "laptop", "srb1", "srbadmin@sdsc", "hunter2")
        client.login()
        client.mkcoll("/demozone/c")
        body = b"\x5a" * 4096
        kwargs_for, overwrites = self.PAYLOAD_OPS[op]
        if overwrites:
            for name in "ab":
                client.ingest(f"/demozone/c/{name}", b"old")

        def requests(run):
            return [message_size(request["batch"][0] if method == "<batch>"
                                 else request)
                    for method, request in exchanges(fed, run)]

        unary = requests(lambda: getattr(client, op)(
            **kwargs_for("/demozone/c/a", body)))
        batched = requests(lambda: client.batch(
            (op, kwargs_for("/demozone/c/b", body)))[0].unwrap())
        # the item is, byte for byte, the unary request: the payload's
        # bytes, or (direct_io) the claim that stands for them
        assert unary == batched
        assert (unary[0] > 4096) == (not direct_io)
        resource = "unix-other" if op == "ingest_replica" else "unix-sdsc"
        for name in "ab":
            path = f"/demozone/c/{name}"
            (replica,) = [rep for rep in client.stat(path)["replicas"]
                          if rep["resource"] == resource]
            assert client.get(path, replica["replica_num"]) == body
