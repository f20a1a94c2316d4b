"""A MySRB write page is one exchange: the POST's batch holds the writes
and, as an item that needs every write, the read the page it redirects
to shows.  The web host renders that page from the batch's answer and
keeps it on the session, so the browser's GET after the 303 is served
with no exchange.

``model_post`` is the flow it replaced — the writes as unary calls, the
303, and a fresh GET that asks the server — and stays here as the
oracle.  On twin grids, built and driven alike, every write page must
show the same bytes (or fail with the same error) and leave the same
audit rows, but for the time they were written at."""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import SrbError
from repro.mysrb import Browser, MySrbApp
from repro.mysrb import html as H
from repro.net.simnet import Network
from repro.util import paths
from tests.mysrb.test_batched_pages import exchanges
from tests.mysrb.test_open_object import HOME, WWW, build


# -- the oracle: unary writes, then the GET asks the server --------------------

def model_ingest(client, form):
    target = paths.join(form["coll"], form["name"])
    metadata, triples = {}, []
    for key, value in form.items():
        if value and key.startswith("meta:"):
            metadata[key[len("meta:"):]] = value
        elif value and key.startswith("dc:"):
            triples.append(("add_metadata", {
                "path": target, "attr": key[len("dc:"):], "value": value,
                "meta_class": "type", "schema_name": "dublin-core"}))
    for i in range(1, 10):
        if form.get(f"uname{i}") and form.get(f"uvalue{i}"):
            triples.append(("add_metadata", {
                "path": target, "attr": form[f"uname{i}"],
                "value": form[f"uvalue{i}"],
                "units": form.get(f"uunits{i}") or None}))
    container = form.get("container", "")
    client.ingest(target, form.get("content", "").encode(),
                  resource=form.get("resource") or None,
                  container=None if container in ("", "(none)") else container,
                  data_type=form.get("data_type") or None, metadata=metadata)
    for outcome in client.batch(*triples):
        outcome.unwrap()
    return f"/open?path={H.url_quote(target)}"


def model_metadata(client, form):
    p = form["path"]
    if form.get("copy_from"):
        client.copy_metadata(form["copy_from"], p)
    elif form.get("extract_method"):
        client.extract_metadata(p, form["extract_method"],
                                sidecar=form.get("sidecar") or None)
    elif form.get("attr"):
        client.add_metadata(p, form["attr"], form.get("value") or None,
                            units=form.get("units") or None)
    return f"/metadata?path={H.url_quote(p)}"


def model_annotate(client, form):
    p = form["path"]
    client.add_annotation(p, form.get("ann_type", "comment"), form["text"],
                          location=form.get("location") or None)
    return f"/open?path={H.url_quote(p)}"


def model_edit(client, form):
    p = form["path"]
    client.put(p, form["content"].encode())
    return f"/open?path={H.url_quote(p)}"


def model_op(client, form):
    action, p = form["action"], form["path"]
    if action == "replicate":
        client.replicate(p, form.get("resource", ""))
    elif action == "copy":
        client.copy(p, form["dst"])
    elif action == "move":
        client.move(p, form["dst"])
        p = form["dst"]
    elif action == "link":
        client.link(p, form["dst"])
    else:
        getattr(client, action)(p)
    return f"/open?path={H.url_quote(p)}"


MODELS = {"/ingest": model_ingest, "/metadata": model_metadata,
          "/annotate": model_annotate, "/edit": model_edit, "/op": model_op}


def session_client(app, browser):
    """The web host's client for ``browser``'s session, as a page has it."""
    session = app.sessions._sessions[browser.cookie]
    client = SrbClient(app.federation, app.www_host, app.server_name)
    client.ticket, client.username = session.ticket, str(session.principal)
    return client


def model_post(app, browser, route, form):
    """``(outcome, exchanges)`` of the flow before one-exchange pages: an
    outcome is ``("page", code, html)`` or ``("error", type, message)``."""
    out = []

    def run():
        try:
            location = MODELS[route](session_client(app, browser), form)
        except SrbError as exc:
            out.append(("error", type(exc).__name__, str(exc)))
            return
        page = browser.get(location)
        out.append(("page", page.code, page.text))

    made = exchanges(app.federation, run, src=WWW)
    return out[0], made


def post(app, browser, route, form):
    """``(response, exchanges)`` of one POST, its redirect followed."""
    out = []
    made = exchanges(app.federation,
                     lambda: out.append(browser.post(route, form)), src=WWW)
    return out[0], made


def audited(fed, run):
    """What ``run()`` returns, and the audit rows it wrote, without their
    time."""
    before = len(fed.mcat.audit_query())
    result = run()
    rows = [{k: v for k, v in row.items() if k != "at"}
            for row in fed.mcat.audit_query()[before:]]
    return result, rows


# -- twin grids, every write page ----------------------------------------------

def ingest_form(name, **fields):
    return {"coll": HOME, "name": name, "content": "wingspan = 2\n",
            "data_type": "ascii text", "resource": "unix-sdsc",
            "container": "(none)", **fields}


#: (who, route, form, what the page is of), in the order they run
WRITES = [
    ("sekar", "/ingest", ingest_form(
        "up.txt", **{"dc:Title": "Upload", "dc:Creator": "bench",
                     "uname1": "session", "uvalue1": "1", "uunits1": ""}),
     "ingest with triples"),
    ("sekar", "/ingest", ingest_form(
        "embeds.txt", uname1="preview", uvalue1=f"{HOME}/thumb.txt",
        uunits1="inline"), "ingest whose metadata embeds an object"),
    ("sekar", "/ingest", ingest_form("bare.txt"), "ingest, no triples"),
    ("sekar", "/ingest", ingest_form(
        "boxed.txt", container=f"{HOME}/pub/box"), "ingest into a container"),
    ("sekar", "/ingest", ingest_form(
        "bad.txt", **{"dc:Title": "Kept", "dc:NotAnElement": "refused",
                      "dc:Creator": "also kept"}), "a refused triple"),
    ("sekar", "/ingest", ingest_form(
        "notes.txt", **{"dc:Title": "Usurper"}), "a refused ingest"),
    ("sekar", "/metadata", {"path": f"{HOME}/up.txt",
                            "extract_method": "properties"}, "extract"),
    ("sekar", "/metadata", {"path": f"{HOME}/up.txt", "attr": "band",
                            "value": "J", "units": "mag"}, "add metadata"),
    ("sekar", "/metadata", {"path": f"{HOME}/bare.txt",
                            "copy_from": f"{HOME}/up.txt"}, "copy metadata"),
    ("sekar", "/metadata", {"path": f"{HOME}/up.txt"}, "no write at all"),
    ("sekar", "/metadata", {"path": f"{HOME}/absent.txt", "attr": "a",
                            "value": "1"}, "metadata of nothing"),
    ("sekar", "/annotate", {"path": f"{HOME}/up.txt", "ann_type": "comment",
                            "text": "checked", "location": "line 1"},
     "annotate"),
    ("sekar", "/annotate", {"path": f"{HOME}/pub", "ann_type": "comment",
                            "text": "a shelf", "location": ""},
     "annotate a collection, which has no object view"),
    ("eve", "/annotate", {"path": f"{HOME}/pub/flyer.txt",
                          "ann_type": "rating", "text": "5", "location": ""},
     "annotate by a reader"),
    ("eve", "/annotate", {"path": f"{HOME}/notes.txt", "ann_type": "rating",
                          "text": "1", "location": ""}, "annotate, denied"),
    ("sekar", "/edit", {"path": f"{HOME}/up.txt",
                        "content": "wingspan = 3\n"}, "edit"),
    ("eve", "/edit", {"path": f"{HOME}/notes.txt", "content": "x"},
     "edit, denied"),
    ("sekar", "/op", {"action": "lock", "path": f"{HOME}/up.txt"}, "lock"),
    ("sekar", "/op", {"action": "unlock", "path": f"{HOME}/up.txt"},
     "unlock"),
    ("sekar", "/op", {"action": "checkout", "path": f"{HOME}/up.txt"},
     "checkout"),
    ("sekar", "/op", {"action": "checkin", "path": f"{HOME}/up.txt"},
     "checkin"),
    ("sekar", "/op", {"action": "replicate", "path": f"{HOME}/bare.txt",
                      "resource": "unix-caltech"}, "replicate"),
    ("sekar", "/op", {"action": "copy", "path": f"{HOME}/bare.txt",
                      "dst": f"{HOME}/bare-copy.txt"}, "copy"),
    ("sekar", "/op", {"action": "move", "path": f"{HOME}/bare-copy.txt",
                      "dst": f"{HOME}/moved.txt"}, "move"),
    ("sekar", "/op", {"action": "link", "path": f"{HOME}/moved.txt",
                      "dst": f"{HOME}/moved.lnk"}, "link"),
    ("sekar", "/op", {"action": "lock", "path": f"{HOME}/absent.txt"},
     "lock nothing"),
]

PASSWORDS = {"sekar": ("sekar@sdsc", "secret"), "eve": ("eve@sdsc", "pw")}


def web(direct_io):
    fed, _clients = build(direct_io=direct_io)
    app = MySrbApp(fed, www_host=WWW)
    browsers = {}
    for who, (user, password) in PASSWORDS.items():
        browsers[who] = Browser(app)
        browsers[who].login(user, password)
    return app, browsers


@pytest.fixture(scope="module", params=[False, True],
                ids=["pass-through", "direct_io"])
def twins(request):
    """Each write of :data:`WRITES`, by the model on one grid and by the
    app on its twin: ``{what: ((outcome, rows, exchanges), (response,
    rows, exchanges, kept))}``."""
    model_app, model_browsers = web(request.param)
    app, browsers = web(request.param)
    seen = {}
    for who, route, form, what in WRITES:
        (want, model_made), want_rows = audited(
            model_app.federation, lambda: model_post(
                model_app, model_browsers[who], route, form))
        (got, made), got_rows = audited(
            app.federation, lambda: post(app, browsers[who], route, form))
        seen[what] = ((want, want_rows, [m for m, _ in model_made]),
                      (got, got_rows, [m for m, _ in made]))
    return seen


WHATS = [what for *_, what in WRITES]
STATUS = {"AccessDenied": 403, "NoSuchObject": 404, "NoSuchCollection": 404}


@pytest.mark.parametrize("what", WHATS)
def test_the_page_is_the_models(twins, what):
    (want, _, _), (got, _, _) = twins[what]
    if want[0] == "page":
        assert (got.code, got.text) == want[1:]
    else:
        _, name, message = want
        assert got.code == STATUS.get(name, 400)
        assert H.e(message) in got.text


@pytest.mark.parametrize("what", WHATS)
def test_the_page_leaves_the_models_audit_rows(twins, what):
    (_, want, _), (_, got, _) = twins[what]
    assert got == want


@pytest.mark.parametrize("what", WHATS)
def test_a_write_page_is_one_exchange(twins, what):
    (want, _, model_made), (got, _, made) = twins[what]
    if what == "annotate a collection, which has no object view":
        # nothing to keep: the GET asks, and is sent on to the listing
        assert made == ["<batch>", "open_object", "<batch>"]
        assert model_made == ["add_annotation"] + made[1:]
    elif what == "no write at all":
        assert made == ["<batch>"] and model_made == ["get_metadata"]
    else:
        assert made == ["<batch>"]
        assert len(model_made) > 1 or want[0] == "error"


def test_the_oracle_sees_each_outcome(twins):
    """The differential is not vacuous: pages of each kind, the 400s,
    the 403 and the 404 are all among the model's outcomes."""
    outcomes = {what: twins[what][0][0] for what in WHATS}
    assert outcomes["ingest with triples"][:2] == ("page", 200)
    assert "Upload" in outcomes["ingest with triples"][2]
    assert "<b>metadata file</b>" not in outcomes[
        "ingest whose metadata embeds an object"][2]
    assert "tiny preview" in outcomes[
        "ingest whose metadata embeds an object"][2]
    assert "wingspan" in outcomes["extract"][2]
    assert "Collection " in outcomes[
        "annotate a collection, which has no object view"][2]
    assert "wingspan = 3" in outcomes["edit"][2]
    assert "moved.txt" in outcomes["move"][2]
    for what, error in (("a refused triple", "MetadataError"),
                        ("a refused ingest", "AlreadyExists"),
                        ("metadata of nothing", "NoSuchObject"),
                        ("annotate, denied", "AccessDenied"),
                        ("edit, denied", "AccessDenied"),
                        ("lock nothing", "NoSuchObject")):
        assert outcomes[what][:2] == ("error", error), what


# -- the kept page ---------------------------------------------------------------

@pytest.fixture
def signed_on():
    app, browsers = web(direct_io=False)
    return app, browsers["sekar"]


ANNOTATE = {"path": f"{HOME}/thumb.txt", "ann_type": "comment",
            "text": "kept", "location": ""}
LOCATION = f"/open?path={H.url_quote(f'{HOME}/thumb.txt')}"


def get(app, browser, url):
    out = []
    made = exchanges(app.federation,
                     lambda: out.append(browser.get(url)), src=WWW)
    return out[0], [method for method, _request in made]


def annotate(app, browser):
    """POST the annotation without following the 303; its page is kept."""
    response = browser.post("/annotate", ANNOTATE, follow_redirects=False)
    assert response.code == 303 and response.header("Location") == LOCATION
    return response


def test_the_kept_page_is_served_once(signed_on):
    app, browser = signed_on
    annotate(app, browser)
    first, made = get(app, browser, LOCATION)
    assert made == [] and first.code == 200 and "kept" in first.text
    again, made = get(app, browser, LOCATION)
    assert made == ["open_object"] and again.text == first.text


def test_the_kept_page_is_not_served_to_another_session(signed_on):
    app, browser = signed_on
    annotate(app, browser)
    other = Browser(app)
    other.login("sekar@sdsc", "secret")
    page, made = get(app, other, LOCATION)
    assert made == ["open_object"] and "kept" in page.text
    page, made = get(app, browser, LOCATION)
    assert made == []           # still the first session's to take


def test_the_kept_page_is_not_served_for_another_url(signed_on):
    app, browser = signed_on
    annotate(app, browser)
    page, made = get(app, browser, f"/open?path={HOME}/notes.txt")
    assert made == ["open_object"] and "Object /demozone/home/sekar/notes" \
        in page.text
    # the session's next request took the page, so it is gone
    page, made = get(app, browser, LOCATION)
    assert made == ["open_object"]


def test_the_url_must_match_exactly(signed_on):
    app, browser = signed_on
    annotate(app, browser)
    _, made = get(app, browser, f"/open?path={HOME}/thumb.txt")   # unquoted
    assert made == ["open_object"]


def test_the_kept_page_goes_with_logout_and_expiry(signed_on):
    app, browser = signed_on
    annotate(app, browser)
    cookie = browser.cookie
    assert app.sessions._sessions[cookie].kept is not None
    browser.get("/logout")
    assert cookie not in app.sessions._sessions
    browser.login("sekar@sdsc", "secret")
    annotate(app, browser)
    app.federation.clock.advance(3600.0)
    page, made = get(app, browser, LOCATION)
    assert page.code == 401 and made == []


def test_a_refused_ingest_runs_no_dependent_and_keeps_no_page(signed_on):
    app, browser = signed_on
    fed = app.federation
    path = f"{HOME}/notes.txt"
    before = fed.mcat.audit_query()
    response = browser.post("/ingest", ingest_form(
        "notes.txt", **{"dc:Title": "Usurper", "uname1": "band",
                        "uvalue1": "K"}), follow_redirects=False)
    assert response.code == 400
    assert app.sessions._sessions[browser.cookie].kept is None
    # the refused ingest writes no audit row, and nothing after it ran
    assert fed.mcat.audit_query() == before
    assert ("band", "K") not in {(m["attr"], m["value"]) for m in
                                 session_client(app, browser).get_metadata(
                                     path)}
    _, made = get(app, browser, f"/open?path={H.url_quote(path)}")
    assert made == ["open_object"]


# -- across zones ----------------------------------------------------------------

FOREIGN = "/npaci-zone/pub/report.txt"


def zones():
    """Zone A serves MySRB; zone B holds a file sekar may read."""
    net = Network()
    a = Federation(zone="sdsc-zone", network=net)
    b = Federation(zone="npaci-zone", network=net)
    a.add_host("a-host")
    b.add_host("b-host")
    a.add_server("a-srb", "a-host", mcat=True)
    b.add_server("b-srb", "b-host", mcat=True)
    a.add_fs_resource("a-disk", "a-host")
    b.add_fs_resource("b-disk", "b-host")
    a.default_resource = "a-disk"
    b.default_resource = "b-disk"
    a.bootstrap_admin()
    b.bootstrap_admin("admin-b@npaci", "pw-b")
    a.federate_with(b)
    admin_b = SrbClient(b, "b-host", "b-srb", "admin-b@npaci", "pw-b")
    admin_b.login()
    admin_b.mkcoll("/npaci-zone/pub")
    admin_b.ingest(FOREIGN, b"inter-zone bytes")
    for path in ("/npaci-zone", "/npaci-zone/pub", FOREIGN):
        admin_b.grant(path, "sekar@sdsc", "read")
    a.add_user("sekar@sdsc", "pw", role="curator")
    admin_a = SrbClient(a, "a-host", "a-srb", "srbadmin@sdsc", "hunter2")
    admin_a.login()
    admin_a.grant("/sdsc-zone", "sekar@sdsc", "write")
    app = MySrbApp(a)
    browser = Browser(app)
    browser.login("sekar@sdsc", "pw")
    return app, browser


#: (route, form, what): a page in zone A that embeds zone B's file, and
#: a write zone A refuses because the path is zone B's
ZONE_WRITES = [
    ("/ingest", {"coll": "/sdsc-zone", "name": "here.txt",
                 "content": "local", "resource": "a-disk",
                 "container": "(none)", "uname1": "see",
                 "uvalue1": FOREIGN, "uunits1": "inline"},
     "ingest that embeds a foreign file"),
    ("/annotate", {"path": "/sdsc-zone/here.txt", "ann_type": "comment",
                   "text": "near", "location": ""}, "annotate here"),
    ("/annotate", {"path": FOREIGN, "ann_type": "comment",
                   "text": "far", "location": ""}, "annotate a foreign file"),
    ("/metadata", {"path": FOREIGN, "attr": "a", "value": "1"},
     "add metadata to a foreign file"),
]


def test_the_flow_works_across_zones():
    model_app, model_browser = zones()
    app, browser = zones()
    for route, form, what in ZONE_WRITES:
        (want, _), want_rows = audited(
            model_app.federation,
            lambda: model_post(model_app, model_browser, route, form))
        (got, made), got_rows = audited(
            app.federation, lambda: post(app, browser, route, form))
        assert [method for method, _ in made] == ["<batch>"], what
        assert got_rows == want_rows, what
        if want[0] == "page":
            assert (got.code, got.text) == want[1:], what
        else:
            assert want[1] == "UnsupportedOperation", what
            assert got.code == 400 and H.e(want[2]) in got.text, what
    page = browser.get(f"/open?path=/sdsc-zone/here.txt").text
    assert "inter-zone bytes" in page and "near" in page
