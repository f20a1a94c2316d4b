"""MySRB's object view is one exchange: the ``open_object`` op answers
everything ``/open`` shows, running ``stat``, ``get_metadata``,
``annotations``, the embedded objects' ``get`` and the contents' ``get``
(or a container's ``container_garbage``) at the server, each through its
own op plan.

``model_open_object`` is the view it replaced — two dependent exchanges,
the page's catalog calls and then what only their answer can name — and
stays here as the oracle.  On twin grids, built and driven alike, every
kind of object must render the same bytes (or fail with the same error)
and leave the same audit rows.  The two intended differences are pinned
on their own: a file under a registered directory now opens, and an
object over the inline limit no longer crosses to the web host whole."""

import pytest

from repro.core import Federation, SrbClient
from repro.core.planes.data import INLINE_LIMIT
from repro.errors import NoSuchObject, SrbError
from repro.mysrb import Browser, MySrbApp, views
from repro.mysrb import html as H
from repro.net.simnet import LAN, TRANSCON
from repro.util import paths
from tests.mysrb.test_batched_pages import exchanges
from tests.probes import counter

HOME = "/demozone/home/sekar"
WWW = "mysrb-www"
BIG = 100 * 1024                      # over the 64 KiB inline limit


# -- the oracle: the two-exchange view this op replaced ------------------------

def model_embeds(row):
    value = row.get("value")
    return isinstance(value, str) and value.startswith("/") and (
        row.get("meta_class") == "file-based" or row.get("units") == "inline")


def model_open_object(client, path):
    info, md, anns = (item.unwrap() for item in client.batch(
        ("stat", {"path": path}),
        ("get_metadata", {"path": path}),
        ("annotations", {"path": path})))
    if "kind" not in info:          # a collection's stat row has no kind
        return None
    kind = info["kind"]
    embedded = list(dict.fromkeys(row["value"] for row in md
                                  if model_embeds(row)))
    follow_up = [("get", {"path": p}) for p in embedded]
    if kind == "container":
        follow_up.append(("container_garbage", {"path": path}))
    elif kind != "shadow-dir":
        follow_up.append(("get", {"path": path}))
    answers = client.batch(*follow_up)

    top = H.metadata_pane(f"{kind} {path}", md, anns)
    top += views._render_metadata_extras(client, md,
                                         dict(zip(embedded, answers)))
    top += H.table(
        ["replica", "resource", "physical path", "size", "dirty"],
        [(r["replica_num"], r["resource"], r["physical_path"], r["size"],
          "yes" if r["is_dirty"] else "no") for r in info["replicas"]])

    data_type = info.get("data_type")
    if kind == "container":
        rows = [(H.link_to(f"/open?path={H.url_quote(m['path'])}", m["name"]),
                 m["offset"], m["size"]) for m in info["members"]]
        bottom = (f"<h4>Container members ({len(rows)})</h4>"
                  + (H.table(["member", "offset", "size"], rows)
                     if rows else "<p><i>empty container</i></p>")
                  + f"<p>{info['size'] or 0} bytes total, "
                  + f"{answers[-1].unwrap()} bytes reclaimable "
                  + "(compact via the Scommands or the client API).</p>")
    elif kind == "shadow-dir":
        bottom = (f"<p>registered directory over "
                  f"<code>{H.e(info['target'])}</code> on "
                  f"<code>{H.e(info['resource_hint'])}</code>; browse "
                  f"<a href='/browse?path={H.url_quote(path)}'>its cone</a>.</p>")
    else:
        try:
            data = answers[-1].unwrap()
        except SrbError as exc:
            data = f"[not retrievable: {exc}]".encode()
        if len(data) > INLINE_LIMIT:
            bottom = f"<p>[{len(data)} bytes; too large to display inline]</p>"
        elif data_type in ("html", "sql query", "url") or \
                data.lstrip()[:1] in (b"<",):
            bottom = data.decode("utf-8", "replace")     # inlineable content
        else:
            bottom = f"<pre>{H.e(data.decode('utf-8', 'replace'))}</pre>"
    nav = H.nav_bar(client.username if client.ticket else None,
                    paths.dirname(path))
    return H.page(f"Object {path}", top, bottom, nav=nav)


# -- twin grids ---------------------------------------------------------------

def build(direct_io=False, web_server="srb1"):
    """``standard_grid``'s deployment (with ``direct_io`` as given), one
    object of every kind under the curator's home, and two signed-on web
    clients: ``{"sekar": ..., "eve": ...}``."""
    fed = Federation(zone="demozone", direct_io=direct_io)
    for host, site in (("sdsc", "sdsc"), ("caltech", "caltech"),
                       ("laptop", "home"), (WWW, "web")):
        fed.add_host(host, site=site)
    fed.network.set_link("sdsc", "sdsc", LAN)
    fed.network.set_link("sdsc", "caltech", TRANSCON)
    fed.add_server("srb1", "sdsc", mcat=True)
    fed.add_server("srb2", "caltech")
    fed.add_fs_resource("unix-sdsc", "sdsc", is_cache=True)
    fed.add_fs_resource("unix-caltech", "caltech")
    fed.add_archive_resource("hpss-caltech", "caltech")
    fed.add_database_resource("dlib1", "sdsc")
    fed.add_logical_resource("logrsrc1", ["unix-sdsc", "hpss-caltech"])
    fed.default_resource = "unix-sdsc"
    fed.bootstrap_admin()
    admin = SrbClient(fed, "sdsc", "srb1", "srbadmin@sdsc", "hunter2")
    admin.login()
    admin.mkcoll("/demozone/home")
    fed.add_user("sekar@sdsc", "secret", role="curator")
    fed.add_user("eve@sdsc", "pw", role="reader")
    admin.grant("/demozone", "sekar@sdsc", "read")
    admin.grant("/demozone/home", "sekar@sdsc", "write")
    cur = SrbClient(fed, "laptop", "srb1", "sekar@sdsc", "secret")
    cur.login()
    cur.mkcoll(HOME)

    # data, with every metadata mode: a hot link, an inline object, a
    # metadata file, an inline object that is gone, an inline URL
    cur.ingest(f"{HOME}/notes.txt", b"wingspan = 1.25\n",
               data_type="ascii text")
    cur.ingest(f"{HOME}/thumb.txt", b"tiny preview")
    cur.ingest(f"{HOME}/notes.meta", b"site = sevilleta\nbands = 224\n")
    fed.web.publish("http://museum.org/t", b"<b>thumbnail</b>")
    for attr, value, kw in (
            ("Title", "Notes", dict(meta_class="type",
                                    schema_name="dublin-core")),
            ("related", f"{HOME}/thumb.txt", {}),
            ("thumbnail", f"{HOME}/thumb.txt", dict(units="inline")),
            ("metadata-file", f"{HOME}/notes.meta",
             dict(meta_class="file-based")),
            ("lost", f"{HOME}/gone.txt", dict(units="inline")),
            ("web", "http://museum.org/t", dict(units="inline"))):
        cur.add_metadata(f"{HOME}/notes.txt", attr, value, **kw)
    cur.add_annotation(f"{HOME}/notes.txt", "comment", "lovely")
    cur.ingest(f"{HOME}/page.html", b"<b>hi</b>", data_type="html")
    cur.ingest(f"{HOME}/big.dat", b"\x5a" * BIG, resource="logrsrc1")
    # registered: a file, one that grew past the inline limit after it
    # was registered, a directory, SQL, a URL, a method
    caltech = fed.resources.physical("unix-caltech").driver
    caltech.create("/outside/reg.txt", b"registered bytes")
    cur.register_file(f"{HOME}/reg.txt", "unix-caltech", "/outside/reg.txt")
    caltech.create("/outside/grew.txt", b"small")
    cur.register_file(f"{HOME}/grew.txt", "unix-caltech",
                      "/outside/grew.txt")
    caltech.write("/outside/grew.txt", b"g" * BIG)
    caltech.create("/archive/cone/sub/b.txt", b"beta")
    cur.register_directory(f"{HOME}/cone", "unix-caltech", "/archive/cone")
    from repro.db import Column
    fed.resources.physical("dlib1").driver.create_user_table(
        "m", [Column("v", "TEXT")]).insert({"v": "hello-db"})
    cur.register_sql(f"{HOME}/q", "dlib1", "SELECT v FROM m")
    cur.register_url(f"{HOME}/ext", "http://museum.org/t")
    fed.install_proxy_command("srb1", "hello", lambda args: b"hello, grid\n")
    cur.register_method(f"{HOME}/hi", "srb1", "hello")
    cur.link(f"{HOME}/notes.txt", f"{HOME}/alias")
    # a container holding a member eve may read and one she may not
    cur.mkcoll(f"{HOME}/pub")
    cur.mkcoll(f"{HOME}/secret")
    cur.create_container(f"{HOME}/pub/box", "logrsrc1")
    cur.ingest(f"{HOME}/pub/flyer.txt", b"come along",
               container=f"{HOME}/pub/box")
    cur.ingest(f"{HOME}/secret/plans.txt", b"at dawn",
               container=f"{HOME}/pub/box")
    cur.grant(f"{HOME}/pub/box", "eve@sdsc", "read")
    cur.grant(f"{HOME}/pub/flyer.txt", "eve@sdsc", "read")

    clients = {}
    for name, user, password in (("sekar", "sekar@sdsc", "secret"),
                                 ("eve", "eve@sdsc", "pw")):
        clients[name] = SrbClient(fed, WWW, web_server, user, password)
        clients[name].login()
    return fed, clients


#: (who, path) -> what the view is of
VIEWS = {
    ("sekar", "notes.txt"): "data with every metadata mode",
    ("sekar", "thumb.txt"): "data",
    ("sekar", "page.html"): "inlineable data",
    ("sekar", "big.dat"): "data over the inline limit, archive replica",
    ("sekar", "reg.txt"): "registered file",
    ("sekar", "grew.txt"): "registered file grown past the limit",
    ("sekar", "cone"): "registered directory",
    ("sekar", "q"): "sql",
    ("sekar", "ext"): "url",
    ("sekar", "hi"): "method",
    ("sekar", "alias"): "link",
    ("sekar", "pub/box"): "container",
    ("eve", "pub/box"): "container with a member hidden from the caller",
    ("sekar", "pub"): "collection",
    ("sekar", "absent.txt"): "missing",
    ("eve", "notes.txt"): "denied",
}


def render(view, fed, client, path):
    """``(outcome, audit rows written, exchanges, virtual seconds)`` of one
    object view."""
    audited = len(fed.mcat.audit_query())
    t0 = fed.clock.now
    out = []

    def run():
        try:
            out.append(("page", view(client, path)))
        except SrbError as exc:
            out.append(("error", type(exc).__name__, str(exc)))

    made = exchanges(fed, run, src=WWW)
    rows = [(r["principal"], r["action"], r["target"], r["detail"], r["ok"])
            for r in fed.mcat.audit_query()[audited:]]
    return out[0], rows, [method for method, _request in made], \
        fed.clock.now - t0


@pytest.fixture(scope="module", params=[False, True],
                ids=["pass-through", "direct_io"])
def twins(request):
    """Every view of :data:`VIEWS`, rendered in order by the model on
    one grid and by the view on its twin."""
    model_fed, model_clients = build(direct_io=request.param)
    fed, clients = build(direct_io=request.param)
    seen = {}
    for who, name in VIEWS:
        path = f"{HOME}/{name}"
        seen[who, name] = (
            render(model_open_object, model_fed, model_clients[who], path),
            render(views.open_object, fed, clients[who], path))
    return seen


@pytest.mark.parametrize("who, name", sorted(VIEWS))
def test_the_page_is_the_models(twins, who, name):
    (want, _, _, _), (got, _, _, _) = twins[who, name]
    assert got == want, VIEWS[who, name]


@pytest.mark.parametrize("who, name", sorted(VIEWS))
def test_the_view_leaves_the_models_audit_rows(twins, who, name):
    (_, want, _, _), (_, got, _, _) = twins[who, name]
    assert got == want, VIEWS[who, name]


@pytest.mark.parametrize("who, name", sorted(VIEWS))
def test_every_object_view_is_one_exchange(twins, who, name):
    (outcome, _, model_made, model_s), (_, _, made, seconds) = twins[who, name]
    assert made == ["open_object"]
    if outcome[0] == "page" and outcome[1] is not None:
        # a registered directory's view had nothing to ask a second time
        assert model_made == ["<batch>"] * (1 if name == "cone" else 2)
        assert seconds < model_s or name == "cone"


def test_the_oracle_sees_each_outcome(twins):
    """The differential is not vacuous: pages, a redirect (None), the
    404 and the 403 are all among the model's outcomes."""
    outcomes = {name: twins[who, name][0][0] for who, name in VIEWS
                if who == "sekar"}
    assert outcomes["pub"] == ("page", None)
    assert outcomes["absent.txt"][:2] == ("error", "NoSuchObject")
    assert twins["eve", "notes.txt"][0][0][:2] == ("error", "AccessDenied")
    page = outcomes["notes.txt"][1]
    for shown in ("tiny preview", "site = sevilleta", "[unavailable: ",
                  "<b>thumbnail</b>", "lovely", "related: "):
        assert shown in page
    assert f"[{BIG} bytes; too large to display inline]" in \
        outcomes["grew.txt"][1]
    eve_box = twins["eve", "pub/box"][0][0][1]
    assert "Container members (1)" in eve_box and "plans.txt" not in eve_box


# -- the two intended differences ----------------------------------------------

@pytest.fixture
def web():
    fed, clients = build()
    app = MySrbApp(fed, www_host=WWW)
    browser = Browser(app)
    browser.login("sekar@sdsc", "secret")
    return fed, clients, browser


def test_a_file_under_a_registered_directory_opens(web):
    """``/browse`` of the cone links ``b.txt`` to ``/open``, and ``get``
    reads it; the view used to answer 404 because it has no catalog row.
    It shows the contents under empty catalog panes."""
    fed, clients, browser = web
    path = f"{HOME}/cone/sub/b.txt"
    listing = browser.get(f"/browse?path={HOME}/cone/sub").text
    assert f'href="/open?path={H.url_quote(path)}"' in listing
    with pytest.raises(NoSuchObject):
        model_open_object(clients["sekar"], path)
    page = browser.get(f"/open?path={path}")
    assert page.code == 200
    assert f"shadow-file {path}" in page.text
    assert "<pre>beta</pre>" in page.text and "no metadata" in page.text
    # a path under the cone that holds no file is still the 404 it was
    for name in ("nothing.txt", "sub"):
        assert browser.get(f"/open?path={HOME}/cone/{name}").code == 404


def test_a_large_object_does_not_cross_whole_to_be_called_large(web):
    """A 4 MiB object: the page says how large it is, as it did, from a
    reply that carries the inline limit plus one byte of it.  The model
    pulled every byte to the web host: two exchanges and over a virtual
    second."""
    fed, clients, browser = web
    path = f"{HOME}/huge.dat"
    clients["sekar"].ingest(path, b"\x5a" * (4 << 20))
    limit = INLINE_LIMIT + 1
    reply = clients["sekar"].open_object(path)
    assert len(reply["contents"].value) == limit
    assert reply["length"] == 4 << 20
    assert limit < fed.rpc.last_timing.response_bytes < limit + 2048
    model = render(model_open_object, fed, clients["sekar"], path)
    got = render(views.open_object, fed, clients["sekar"], path)
    assert got[0] == model[0] and got[1] == model[1]
    assert "<p>[4194304 bytes; too large to display inline]</p>" in got[0][1]
    assert limit < fed.rpc.last_timing.response_bytes < limit + 2048
    assert (model[2], got[2]) == (["<batch>", "<batch>"], ["open_object"])
    assert model[3] > 1.0 > 5 * got[3]
    page = browser.get(f"/open?path={path}")
    assert page.code == 200 and "4194304 bytes; too large" in page.text


# -- where the page is served from ---------------------------------------------

def mcat_hops(fed, run):
    with fed.obs.tracer.trace("open") as root:
        run()
    return len(root.find("srb.mcat_hop"))


@pytest.mark.parametrize("name", ["notes.txt", "big.dat", "pub/box", "cone",
                                  "alias"])
def test_at_a_server_without_the_catalog_no_more_hops_and_less_time(name):
    """Served at ``srb2`` (caltech), each nested op pays the catalog
    round trip it paid as a batch item, and the view none of its own."""
    (model_fed, model_clients), (fed, clients) = \
        build(web_server="srb2"), build(web_server="srb2")
    path = f"{HOME}/{name}"
    t0 = model_fed.clock.now
    want = mcat_hops(model_fed, lambda: model_open_object(
        model_clients["sekar"], path))
    model_s, t0 = model_fed.clock.now - t0, fed.clock.now
    got = mcat_hops(fed, lambda: views.open_object(clients["sekar"], path))
    assert 0 < got <= want
    assert fed.clock.now - t0 < model_s


def test_a_foreign_zone_object_opens_in_one_exchange():
    """The op is forwardable: a path in a federated peer zone is opened
    by one forwarded call, which runs its nested ops at the peer."""
    def zones():
        fed, clients = build()
        peer = Federation(zone="npaci-zone", network=fed.network)
        peer.add_host("b-host")
        peer.add_server("b-srb", "b-host", mcat=True)
        peer.add_fs_resource("b-disk", "b-host")
        peer.default_resource = "b-disk"
        peer.bootstrap_admin("admin-b@npaci", "pw-b")
        fed.federate_with(peer)
        admin = SrbClient(peer, "b-host", "b-srb", "admin-b@npaci", "pw-b")
        admin.login()
        admin.mkcoll("/npaci-zone/pub")
        admin.ingest("/npaci-zone/pub/report.txt", b"inter-zone bytes")
        admin.add_metadata("/npaci-zone/pub/report.txt", "Title", "Report")
        admin.grant("/npaci-zone", "sekar@sdsc", "read")
        admin.grant("/npaci-zone/pub", "sekar@sdsc", "read")
        admin.grant("/npaci-zone/pub/report.txt", "sekar@sdsc", "read")
        return fed, peer, clients["sekar"]

    path = "/npaci-zone/pub/report.txt"
    model_fed, _, model_client = zones()
    want = render(model_open_object, model_fed, model_client, path)
    fed, peer, client = zones()
    got = render(views.open_object, fed, client, path)
    assert got[0] == want[0] and "inter-zone bytes" in got[0][1]
    assert got[2] == ["open_object"] and want[2] == ["<batch>", "<batch>"]
    assert counter(peer.obs.metrics, "srb.ops", server="b-srb", plane="data",
                                op="open_object") == 1


def test_under_direct_io_each_outcome_rides_its_own_redirect():
    """The contents and both embedded objects come resource -> web host
    on direct channels, whole; the caller settles each outcome's legs on
    its own, as it settled each item of the model's second batch."""
    fed, clients = build(direct_io=True)
    with fed.obs.tracer.trace("open") as root:
        page = views.open_object(clients["sekar"], f"{HOME}/notes.txt")
    assert "tiny preview" in page and "wingspan = 1.25" in page
    assert [(span.attrs["sink"], span.attrs["legs"])
            for span in root.find("srb.redirect")] == [(WWW, 1)] * 3
    reply = clients["sekar"].open_object(f"{HOME}/big.dat")
    assert len(reply["contents"].value) == reply["length"] == BIG


# -- an outcome fails on its own -----------------------------------------------

def embed_reg(fed):
    """``thumb.txt``'s view embeds ``reg.txt``, which is on unix-caltech."""
    cur = SrbClient(fed, "laptop", "srb1", "sekar@sdsc", "secret")
    cur.login()
    cur.add_metadata(f"{HOME}/thumb.txt", "scan", f"{HOME}/reg.txt",
                     units="inline")


def cut_caltech_from_the_web(fed):
    """No path between caltech and the web host."""
    embed_reg(fed)
    fed.network.partition("caltech", WWW)


def break_reg_reads(fed):
    """A bug, not an SRB error, in the read of ``reg.txt``'s bytes."""
    embed_reg(fed)
    driver = fed.resources.physical("unix-caltech").driver
    read = driver.read

    def buggy(path, *args, **kwargs):
        if path == "/outside/reg.txt":
            raise ValueError("torn page")
        return read(path, *args, **kwargs)
    driver.read = buggy


@pytest.mark.parametrize("direct_io, spoil", [
    (True, cut_caltech_from_the_web),
    (False, break_reg_reads), (True, break_reg_reads)],
    ids=["direct_io-dead-leg", "pass-through-bug", "direct_io-bug"])
@pytest.mark.parametrize("name", ["thumb.txt", "reg.txt"])
def test_a_failed_outcome_fails_only_its_own_part_of_the_page(
        direct_io, spoil, name):
    """An embedded object whose bytes cannot reach the web host (or
    whose read hits a bug) renders ``[unavailable: ...]``, and contents
    that cannot ``[not retrievable: ...]``, exactly as the model's
    per-item batch rendered them; the rest of the page stands."""
    (model_fed, model_clients), (fed, clients) = \
        build(direct_io=direct_io), build(direct_io=direct_io)
    spoil(model_fed)
    spoil(fed)
    path = f"{HOME}/{name}"
    want = render(model_open_object, model_fed, model_clients["sekar"], path)
    got = render(views.open_object, fed, clients["sekar"], path)
    assert want[0][0] == "page"
    assert got[0] == want[0] and got[1] == want[1]
    shown = "[unavailable: " if name == "thumb.txt" else "[not retrievable: "
    assert shown in got[0][1] and f"{name}" in got[0][1]
    if name == "thumb.txt":
        assert "<pre>tiny preview</pre>" in got[0][1]
