"""MySRB page renderers.

Each view builds one page of the web interface from live calls into the
SRB (through a real :class:`~repro.core.client.SrbClient`, so every page
load pays catalog and network costs like the real CGI did).

The two figures of the paper map to:

* :func:`browse` — Figure 1, "SRB Main page showing the Collections with
  different objects and Operations";
* :func:`ingest_form` — Figure 2, "File Ingestion Page with Metadata for
  Dublin Core Attributes and other user-defined attributes".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.client import SrbClient
from repro.core.planes.data import INLINE_LIMIT, embeds
from repro.errors import SrbError
from repro.mcat.dublin_core import DUBLIN_CORE_ELEMENTS
from repro.mcat.query import Condition, DisplayOnly, OPERATORS
from repro.mysrb import html as H
from repro.obs.metrics import format_value
from repro.util import paths

_EDITABLE_TYPES = ("ascii text", None)     # "the edit facility is allowed
                                           # only for a few data types"
#: Hard bound on rows rendered per listing/results page.  A query over a
#: huge collection must never materialize the whole hit set into one
#: HTML document; pages past the bound are reached by cursor links.
PAGE_BOUND = 200


_OWN_PAGE = ("open", "metadata", "annotate", "edit")     # the rest: /op


def editable(kind: str, data_type: Optional[str]) -> bool:
    """May MySRB edit this object in the browser?  The one definition:
    the listing offers the *edit* link by it and ``/edit`` refuses by it."""
    return kind == "data" and data_type in _EDITABLE_TYPES


def _operations_template(replicable: bool, can_edit: bool) -> List[str]:
    """The per-object operation links of the Figure 1 listing, split at
    the places the object's quoted path goes."""
    labels = (["open", "metadata", "annotate"] + ["replicate"] * replicable
              + ["edit"] * can_edit
              + ["copy", "move", "link", "lock", "delete"])
    hrefs = [f"/{label}?path=\0" if label in _OWN_PAGE
             else f"/op?action={label}&path=\0" for label in labels]
    return " ".join(
        f'<a class="op" href="{H.e(href)}">{H.e(label)}</a>'
        for label, href in zip(labels, hrefs)).split("\0")


# The anchors are the same for every row but for the path, so they are
# escaped here, once, not once per row.
_OPERATIONS = {(replicable, can_edit):
               _operations_template(replicable, can_edit)
               for replicable in (False, True) for can_edit in (False, True)}


def _object_row(obj: Dict[str, Any]) -> Sequence[object]:
    """One object's row of the Figure 1 listing.  The quoted path is
    unreserved characters and ``%XX`` only, so nothing built from it and
    constants needs escaping."""
    q = H.url_quote(obj["path"])
    kind, data_type = obj["kind"], obj["data_type"]
    operations = _OPERATIONS[kind in ("data", "registered"),
                             editable(kind, data_type)]
    return (H.RawHtml(f'<a href="/open?path={q}">{H.e(obj["name"])}</a>'),
            kind, data_type or "", obj["size"] or "",
            H.RawHtml(q.join(operations)))


def browse(client: SrbClient, path: str, cursor: Optional[str] = None,
           page_size: int = PAGE_BOUND) -> str:
    """Figure 1: the split-window collection view.

    Top pane: collection metadata.  Bottom pane: sub-collections and
    objects with per-object operations.  At most ``page_size`` entries
    render per page; larger collections continue through a *next page*
    cursor link instead of one unbounded document.
    """
    listing, md, anns = client.batch(
        ("list_collection_page",
         {"path": path, "limit": page_size, "cursor": cursor}),
        ("get_metadata", {"path": path}),
        ("annotations", {"path": path}))
    listing = listing.unwrap()
    shown = md.ok and anns.ok       # the top pane is best effort
    top = H.metadata_pane(f"Collection {path}", md.value if shown else [],
                          anns.value if shown else [])

    rows: List[Sequence[object]] = []
    for coll in listing["collections"]:
        q = H.url_quote(coll)
        rows.append((
            H.link_to(f"/browse?path={q}", paths.basename(coll) + "/"),
            "collection", "", "",
            H.RawHtml(f'<a class="op" href="/metadata?path={q}">metadata</a> '
                      f'<a class="op" href="/op?action=delete&path={q}">delete</a>'),
        ))
    rows.extend([_object_row(obj) for obj in listing["objects"]])
    bottom = "<h3>Contents</h3>" + (
        H.table(["name", "kind", "data type", "size", "operations"], rows)
        if rows else "<p><i>empty collection</i></p>")
    if listing.get("next_cursor") is not None:
        bottom += (f'<p><a class="next-page" href="/browse?'
                   f'path={H.url_quote(path)}&amp;'
                   f'cursor={H.url_quote(listing["next_cursor"])}">'
                   f'next page &raquo;</a></p>')
    bottom += (
        f'<p><a href="/ingest?coll={H.url_quote(path)}">Ingest a file</a> | '
        f'<a href="/mkcoll?coll={H.url_quote(path)}">New sub-collection</a> | '
        f'<a href="/register?coll={H.url_quote(path)}">Register object</a> | '
        f'<a href="/query?scope={H.url_quote(path)}">'
        f'<img alt="mySRB query" src="/static/query.gif" style="height:1em">'
        f'Query</a></p>')
    nav = H.nav_bar(client.username if client.ticket else None, path)
    return H.page(f"Collection {path}", top, bottom, nav=nav)


def _render_metadata_extras(client: SrbClient, md, fetched) -> str:
    """The paper's "creative" metadata modes, rendered below the triples.

    * a URL value whose units are ``inline`` is fetched and its contents
      shown ("if the URL is designated as being of 'inlineable' type then
      the mySRB shows the contents of the URL");
    * a value that is an SRB path becomes a clickable hot-link, and if
      designated ``inline`` its contents are embedded (thumbnails);
    * ``file-based`` metadata rows point at a metadata-carrying file in
      SRB whose triplets are shown (viewing only — not queryable).

    ``fetched`` maps the value of each row that
    :func:`~repro.core.planes.data.embeds` to the outcome of its ``get``.
    """
    parts = []
    for row in md:
        value = row.get("value")
        if not isinstance(value, str):
            continue
        if value.startswith(("http://", "https://", "ftp://")):
            if row.get("units") == "inline":
                try:
                    content = client.federation.web.fetch(
                        value, client.client_host).decode("utf-8", "replace")
                except SrbError as exc:
                    content = f"[unavailable: {exc}]"
                parts.append(f"<div class='inline-url'><b>{H.e(row['attr'])}"
                             f"</b> ({H.e(value)}):<br>{content}</div>")
            else:
                parts.append(f"<p>{H.e(row['attr'])}: "
                             f"<a href='{H.e(value)}'>{H.e(value)}</a></p>")
        elif value.startswith("/"):
            link = (f"<a href='/open?path={H.url_quote(value)}'>"
                    f"{H.e(value)}</a>")
            if not embeds(row):
                parts.append(f"<p>related: {link}</p>")
                continue
            file_based = row.get("meta_class") == "file-based"
            try:
                body = fetched[value].unwrap()
                shown = body.decode("utf-8", "replace") \
                    if file_based or len(body) <= INLINE_LIMIT else \
                    f"[{len(body)} bytes]"
            except SrbError as exc:
                shown = f"[unavailable: {exc}]"
            parts.append(
                f"<div class='filemeta'><b>metadata file</b> {link}:<br>"
                f"<pre>{H.e(shown)}</pre></div>" if file_based else
                f"<div class='inline-obj'><b>{H.e(row['attr'])}</b> {link}:"
                f"<br><pre>{H.e(shown)}</pre></div>")
    return "".join(parts)


def open_object(client: SrbClient, path: str) -> Optional[str]:
    """The split-window object view: attributes on top, contents below.

    "when a user 'opens' a file, the attributes about the file are
    displayed along with the contents of the file."

    One exchange, for every kind: the ``open_object`` op answers the
    whole page — the contents (never a container's bytes, and no more of
    them than the page shows inline), a container's dead space, and the
    objects the metadata embeds.  ``None`` when ``path`` is a
    collection, which has no object view.
    """
    view = client.open_object(path)
    info = view["stat"]
    if "kind" not in info:          # a collection's stat row has no kind
        return None
    kind, md, anns = info["kind"], view["metadata"], view["annotations"]
    top = H.metadata_pane(f"{kind} {path}", md, anns)
    top += _render_metadata_extras(client, md, view["embedded"])
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
                  + f"{info['garbage']} bytes reclaimable "
                  + "(compact via the Scommands or the client API).</p>")
    elif kind == "shadow-dir":
        bottom = (f"<p>registered directory over "
                  f"<code>{H.e(info['target'])}</code> on "
                  f"<code>{H.e(info['resource_hint'])}</code>; browse "
                  f"<a href='/browse?path={H.url_quote(path)}'>its cone</a>.</p>")
    else:
        try:
            data = view["contents"].unwrap()
        except SrbError as exc:
            data = f"[not retrievable: {exc}]".encode()
        if len(data) > INLINE_LIMIT:
            bottom = (f"<p>[{view['length']} bytes; too large to display "
                      "inline]</p>")
        elif data_type in ("html", "sql query", "url") or \
                data.lstrip()[:1] in (b"<",):
            bottom = data.decode("utf-8", "replace")     # inlineable content
        else:
            bottom = f"<pre>{H.e(data.decode('utf-8', 'replace'))}</pre>"
    nav = H.nav_bar(client.username if client.ticket else None,
                    paths.dirname(path))
    return H.page(f"Object {path}", top, bottom, nav=nav)


def _containers_question(coll: str):
    """The batch item asking which containers an ingest into ``coll``
    may choose from: a bounded query by kind, not the whole listing."""
    return ("query_page", {
        "scope": coll, "include_system": True, "limit": PAGE_BOUND,
        "conditions": [Condition("SYS:kind", "=", "container",
                                 display=False)]})


def _containers_in(coll: str, answer) -> List[str]:
    """The containers directly in ``coll`` (the query looks at the whole
    hierarchy under it); none when the question was refused."""
    if not answer.ok:
        return []
    coll = paths.normalize(coll)
    return [row[0] for row in answer.value["rows"]
            if paths.dirname(row[0]) == coll]


def ingest_form(client: SrbClient, coll: str,
                resources: Sequence[str]) -> str:
    """Figure 2: the ingestion form.

    Shows: file chooser (modelled as a content box), data type, resource
    *or* container choice, structural metadata required/suggested by the
    collection (with defaults and drop-down vocabularies), the Dublin
    Core entry block, and free user-defined attribute rows.
    """
    containers, structural = client.batch(
        _containers_question(coll),
        ("structural_metadata", {"coll": coll}))
    structural = structural.unwrap()
    containers = _containers_in(coll, containers)
    fields = [H.hidden_field("coll", coll)]
    fields.append(H.text_field("name", "File name"))
    fields.append(H.textarea("content", "File contents (file-browse upload)"))
    fields.append(H.text_field("data_type", "Data type", value="ascii text"))
    fields.append(H.select_field("resource", "Logical resource",
                                 list(resources)))
    fields.append(H.select_field("container", "Container (overrides resource)",
                                 ["(none)"] + list(containers)))

    if structural:
        fields.append("<h4>Collection metadata (required by the curator)</h4>")
        for req in structural:
            label = req["attr"] + (" *" if req["mandatory"] else "")
            if req["vocabulary"]:
                fields.append(H.select_field(
                    f"meta:{req['attr']}", label,
                    req["vocabulary"].split("|"),
                    selected=req["default_value"]))
            else:
                fields.append(H.text_field(f"meta:{req['attr']}", label,
                                           value=req["default_value"] or ""))
            if req["comment"]:
                fields.append(f"<p><i>{H.e(req['comment'])}</i></p>")

    fields.append("<h4>Dublin Core attributes</h4>")
    for el in DUBLIN_CORE_ELEMENTS:
        fields.append(H.text_field(f"dc:{el}", el))

    fields.append("<h4>User-defined attributes</h4>")
    for i in range(1, 4):
        fields.append(
            f'<p>name <input type="text" name="uname{i}" size="15"> '
            f'value <input type="text" name="uvalue{i}" size="20"> '
            f'units <input type="text" name="uunits{i}" size="8"></p>')

    top = (f"<h3>Ingest into {H.e(coll)}</h3>"
           "<p>Files from Unix, Windows and Macintosh can be ingested; "
           "for many files at once use the "
           f'<a href="/ingest-bulk?coll={H.url_quote(coll)}">multi-file '
           "ingestion</a> form (one batched round trip).</p>")
    bottom = H.form("/ingest", "".join(fields), submit="Ingest")
    nav = H.nav_bar(client.username if client.ticket else None, coll)
    return H.page(f"Ingest into {coll}", top, bottom, nav=nav)


def bulk_ingest_form(client: SrbClient, coll: str,
                     resources: Sequence[str], rows: int = 5) -> str:
    """Multi-file ingestion: N name/content rows, one bulk_ingest call."""
    (answer,) = client.batch(_containers_question(coll))
    containers = _containers_in(coll, answer)
    fields = [H.hidden_field("coll", coll)]
    fields.append(H.select_field("resource", "Logical resource",
                                 list(resources)))
    fields.append(H.select_field("container", "Container (overrides resource)",
                                 ["(none)"] + list(containers)))
    fields.append("<h4>Files</h4>")
    for i in range(1, rows + 1):
        fields.append(
            f'<p>name <input type="text" name="name{i}" size="20"> '
            f'contents <input type="text" name="content{i}" size="40"></p>')
    top = (f"<h3>Multi-file ingest into {H.e(coll)}</h3>"
           "<p>All files travel to the SRB server as a single batched "
           "request; empty rows are skipped.</p>")
    bottom = H.form("/ingest-bulk", "".join(fields), submit="Ingest all")
    nav = H.nav_bar(client.username if client.ticket else None, coll)
    return H.page(f"Bulk ingest into {coll}", top, bottom, nav=nav)


def bulk_ingest_results(client: SrbClient, coll: str,
                        results: Sequence[dict]) -> str:
    """Per-item outcome of a multi-file ingestion."""
    ok = sum(1 for r in results if "oid" in r)
    rows = [(r["path"],
             "ok" if "oid" in r else f"{r['error_type']}: {r['error']}")
            for r in results]
    top = f"<h3>Bulk ingest: {ok}/{len(results)} files loaded</h3>"
    bottom = H.table(["path", "outcome"], rows)
    nav = H.nav_bar(client.username if client.ticket else None, coll)
    return H.page("Bulk ingest results", top, bottom, nav=nav)


def metadata_form(client: SrbClient, path: str) -> str:
    """The insert-metadata form ("this operation can be performed as many
    times as required ... no limits")."""
    md = client.get_metadata(path)
    top = H.metadata_pane(f"Metadata of {path}", md)
    fields = [H.hidden_field("path", path)]
    fields.append(H.text_field("attr", "Attribute name"))
    fields.append(H.text_field("value", "Value"))
    fields.append(H.text_field("units", "Units"))
    fields.append(H.text_field("copy_from", "...or copy all metadata from "
                                            "SRB object"))
    fields.append(H.text_field("extract_method", "...or extract with method"))
    fields.append(H.text_field("sidecar", "sidecar object (for extraction)"))
    bottom = H.form("/metadata", "".join(fields), submit="Insert metadata")
    nav = H.nav_bar(client.username if client.ticket else None,
                    paths.dirname(path))
    return H.page(f"Metadata {path}", top, bottom, nav=nav)


def query_form(client: SrbClient, scope: str, n_conditions: int = 4) -> str:
    """The query page: drop-down of queryable attribute names, operator
    menu, value box, display checkbox — one row per condition."""
    attrs = client.queryable_attrs(scope, include_system=True)
    rows = []
    for i in range(1, n_conditions + 1):
        opts = "".join(f"<option>{H.e(a)}</option>" for a in [""] + attrs)
        ops = "".join(f"<option>{H.e(o)}</option>" for o in OPERATORS)
        rows.append(
            f"<tr><td><select name='attr{i}'>{opts}</select></td>"
            f"<td><select name='op{i}'>{ops}</select></td>"
            f"<td><input type='text' name='value{i}'></td>"
            f"<td><input type='checkbox' name='show{i}' value='1' checked>"
            f"</td></tr>")
    fields = (H.hidden_field("scope", scope) +
              "<table class='listing'><tr><th>metadata name</th>"
              "<th>comparison</th><th>value</th><th>display</th></tr>"
              + "".join(rows) + "</table>"
              + "<p>" + H.checkbox("annotations", "also query annotations")
              + " " + H.checkbox("system", "include system metadata", True)
              + "</p>")
    top = (f"<h3>Query collection {H.e(scope)}</h3>"
           "<p>The query is taken as a conjunctive (AND) query across the "
           "collection hierarchy under this collection.</p>")
    bottom = H.form("/query", fields, submit="Search")
    nav = H.nav_bar(client.username if client.ticket else None, scope)
    return H.page(f"Query {scope}", top, bottom, nav=nav)


def _query_link_params(scope: str,
                       conditions: Sequence[Condition | DisplayOnly],
                       include_annotations: bool,
                       include_system: bool) -> str:
    """GET parameters that round-trip a submitted query (for page links)."""
    parts = [f"scope={H.url_quote(scope)}", "run=1"]
    for i, cond in enumerate(conditions, start=1):
        parts.append(f"attr{i}={H.url_quote(cond.attr)}")
        if isinstance(cond, Condition):
            parts.append(f"op{i}={H.url_quote(cond.op)}")
            parts.append(f"value{i}={H.url_quote(str(cond.value))}")
            if cond.display:
                parts.append(f"show{i}=1")
        else:
            parts.append(f"show{i}=1")
    if include_annotations:
        parts.append("annotations=1")
    if include_system:
        parts.append("system=1")
    return "&amp;".join(parts)


def query_results(client: SrbClient, scope: str,
                  conditions: Sequence[Condition | DisplayOnly],
                  include_annotations: bool,
                  include_system: bool,
                  cursor: Optional[str] = None,
                  page_size: int = PAGE_BOUND) -> str:
    """Render one page of hits of a submitted query as a linked listing.

    At most ``page_size`` rows render per page (the hit set of a query
    over a large hierarchy is unbounded); further pages are fetched
    through the server-side cursor carried in the *next page* link,
    which round-trips the conditions as GET parameters.
    """
    result = client.query_page(scope, conditions,
                               include_annotations=include_annotations,
                               include_system=include_system,
                               limit=page_size, cursor=cursor)
    rows = []
    for row in result["rows"]:
        cells: List[object] = [
            H.link_to(f"/open?path={H.url_quote(str(row[0]))}", str(row[0]))]
        cells.extend(row[1:])
        rows.append(cells)
    shown = (f"{len(rows)} matching SRB objects"
             if result["next_cursor"] is None and cursor is None
             else f"{len(rows)} matching SRB objects on this page")
    top = (f"<h3>Query results in {H.e(scope)}</h3><p>{shown}.</p>")
    bottom = (H.table(result["columns"], rows)
              if rows else "<p><i>no matches</i></p>")
    if result["next_cursor"] is not None:
        params = _query_link_params(scope, conditions,
                                    include_annotations, include_system)
        bottom += (f'<p><a class="next-page" href="/query?{params}&amp;'
                   f'cursor={H.url_quote(result["next_cursor"])}">'
                   f'next page &raquo;</a></p>')
    nav = H.nav_bar(client.username if client.ticket else None, scope)
    return H.page("Query results", top, bottom, nav=nav)


def register_form(client: SrbClient, coll: str,
                  resources: Sequence[str]) -> str:
    """Registration of the five pointer kinds (file / directory / SQL /
    URL / method)."""
    common = H.hidden_field("coll", coll)
    file_f = H.form("/register/file", common
                    + H.text_field("name", "SRB name")
                    + H.select_field("resource", "Physical resource", resources)
                    + H.text_field("physical_path", "Path in resource"),
                    submit="Register file")
    dir_f = H.form("/register/directory", common
                   + H.text_field("name", "SRB name")
                   + H.select_field("resource", "Physical resource", resources)
                   + H.text_field("physical_dir", "Directory path"),
                   submit="Register directory")
    sql_f = H.form("/register/sql", common
                   + H.text_field("name", "SRB name")
                   + H.select_field("resource", "Database resource", resources)
                   + H.textarea("sql", "SELECT query (may be partial)")
                   + H.select_field("template", "Pretty-print template",
                                    ["HTMLREL", "HTMLNEST", "XMLREL"])
                   + "<p>" + H.checkbox("partial", "partial query") + "</p>",
                   submit="Register SQL")
    url_f = H.form("/register/url", common
                   + H.text_field("name", "SRB name")
                   + H.text_field("url", "URL (http/https/ftp)"),
                   submit="Register URL")
    method_f = H.form("/register/method", common
                      + H.text_field("name", "SRB name")
                      + H.text_field("server", "SRB server")
                      + H.text_field("command", "Command in server bin")
                      + "<p>" + H.checkbox("proxy_function",
                                           "compiled proxy function") + "</p>",
                      submit="Register method")
    top = (f"<h3>Register an object into {H.e(coll)}</h3>"
           "<p>No physical copy is maintained by SRB for registered "
           "objects; only a pointer is kept.</p>")
    bottom = ("<h4>File</h4>" + file_f + "<h4>Directory</h4>" + dir_f +
              "<h4>SQL query</h4>" + sql_f + "<h4>URL</h4>" + url_f +
              "<h4>Method / virtual data</h4>" + method_f)
    nav = H.nav_bar(client.username if client.ticket else None, coll)
    return H.page(f"Register into {coll}", top, bottom, nav=nav)


def structural_form(client: SrbClient, coll: str) -> str:
    """The curator's form for declaring required/suggested ingest metadata
    (defaults, restricted vocabularies, mandatory flags, comments)."""
    existing = client.structural_metadata(coll)
    top = (f"<h3>Structural metadata for {H.e(coll)}</h3>"
           "<p>These attributes are required or suggested when new items "
           "are added to the collection (and to every collection in the "
           "hierarchy under it).</p>")
    if existing:
        top += H.table(
            ["attribute", "default", "vocabulary", "mandatory", "comment"],
            [(r["attr"], r["default_value"], r["vocabulary"],
              "yes" if r["mandatory"] else "", r["comment"])
             for r in existing])
    fields = (H.hidden_field("coll", coll)
              + H.text_field("attr", "Attribute name")
              + H.text_field("default_value", "Default value")
              + H.text_field("vocabulary",
                             "Restricted vocabulary ('|'-separated)")
              + "<p>" + H.checkbox("mandatory", "mandatory at ingest")
              + "</p>" + H.text_field("comment", "Comment for ingestors"))
    bottom = H.form("/structural", fields, submit="Define attribute")
    nav = H.nav_bar(client.username if client.ticket else None, coll)
    return H.page(f"Structural metadata {coll}", top, bottom, nav=nav)


def resources_page(client: SrbClient) -> str:
    """Resource metadata ("the MySRB interface provides additional
    functionalities such as ... access to resource, user and container
    metadata")."""
    fed = client.federation
    phys_rows = []
    for name in fed.resources.physical_names():
        d = fed.resources.describe(name)
        phys_rows.append((d["name"], d["type"], d["host"], d["zone"],
                          "up" if d["up"] else "DOWN"))
    logical_rows = []
    for name in fed.resources.logical_names():
        d = fed.resources.describe(name)
        logical_rows.append((d["name"], ", ".join(d["members"])))
    top = ("<h3>Storage resources</h3>"
           "<p>Physical resources are single storage systems; logical "
           "resources tie several together and replicate synchronously "
           "on ingest.</p>")
    bottom = ("<h4>Physical</h4>"
              + H.table(["name", "type", "host", "zone", "state"], phys_rows)
              + "<h4>Logical</h4>"
              + (H.table(["name", "members"], logical_rows)
                 if logical_rows else "<p><i>none</i></p>"))
    nav = H.nav_bar(client.username if client.ticket else None,
                    f"/{fed.zone}")
    return H.page("Resources", top, bottom, nav=nav)


def status_page(client: SrbClient) -> str:
    """Grid status: the observability metrics registry, rendered live.

    One row per labeled counter series plus count/mean/max per histogram
    — the web view of what ``Sstat`` prints on the command line.
    """
    fed = client.federation
    metrics = fed.obs.metrics
    stat_rows = [(k, v) for k, v in sorted(fed.stats().items())]
    counter_rows = []
    for name in metrics.counter_names():
        for labels, value in metrics.series(name).items():
            counter_rows.append((name + labels, format_value(value)))
    # served-op totals per (server, plane), from the dispatch pipeline's
    # uniform srb.ops{server,plane,op} accounting
    plane_totals: dict = {}
    for labels, value in metrics.series("srb.ops").items():
        parts = dict(p.split("=", 1)
                     for p in labels.strip("{}").split(",") if "=" in p)
        key = (parts.get("server", "?"), parts.get("plane", "?"))
        plane_totals[key] = plane_totals.get(key, 0) + value
    plane_rows = [(srv, plane, format_value(value))
                  for (srv, plane), value in sorted(plane_totals.items())]
    hist_rows = []
    for name in metrics.histogram_names():
        for labels, h in metrics.histogram_series(name).items():
            hist_rows.append((name + labels, h.count,
                              f"{h.mean:.6f}", f"{h.max:.6f}"))
    # per-shard catalog table when the MCAT has more than one partition
    # or any replica (E16 deployments)
    shard_stats = fed.mcat.shard_stats()
    shard_html = ""
    if len(shard_stats) > 1 or shard_stats[0]["replicas"]:
        rows = [(s["shard"], s["objects"], s["collections"],
                 f"{s['busy_s']:.6f}", s["replicas"],
                 f"{s['replica_busy_s']:.6f}", s["pending"],
                 s["partitioned"])
                for s in shard_stats]
        shard_html = ("<h4>MCAT shards</h4>"
                      + H.table(["shard", "objects", "collections",
                                 "busy (s)", "replicas", "replica busy (s)",
                                 "pending log", "partitioned"],
                                rows))
    # the placement engine's measured path history (repro.policy): what
    # an "observed" policy ranks replicas with
    path_rows = [(p["src"], p["dst"], p["transfers"],
                  f"{p['rate_bps']:.0f}" if p["rate_bps"] is not None
                  else "-",
                  f"{p['latency_s']:.6f}" if p["latency_s"] is not None
                  else "-",
                  p["failures"], f"{p['fail_score']:.3f}")
                 for p in fed.placement.path_report()]
    placement_html = ""
    if path_rows:
        placement_html = (
            f"<h4>Placement paths (policy: "
            f"{H.e(fed.placement.policy_name)})</h4>"
            + H.table(["src", "dst", "transfers", "rate (B/s)",
                       "latency (s)", "failures", "fail score"],
                      path_rows))
    top = ("<h3>Grid status</h3>"
           "<p>Live counters from the federation-wide observability "
           "registry: network, RPC, server, storage and catalog "
           "activity since start-up (virtual time).</p>")
    bottom = ("<h4>Federation</h4>"
              + H.table(["stat", "value"],
                        [(k, str(v)) for k, v in stat_rows])
              + shard_html
              + placement_html
              + "<h4>Server ops by plane</h4>"
              + (H.table(["server", "plane", "ops"], plane_rows)
                 if plane_rows else "<p><i>none</i></p>")
              + "<h4>Counters</h4>"
              + (H.table(["metric", "value"], counter_rows)
                 if counter_rows else "<p><i>none</i></p>")
              + "<h4>Histograms (virtual seconds)</h4>"
              + (H.table(["metric", "count", "mean", "max"], hist_rows)
                 if hist_rows else "<p><i>none</i></p>"))
    nav = H.nav_bar(client.username if client.ticket else None,
                    f"/{fed.zone}")
    return H.page("Status", top, bottom, nav=nav)


def newuser_form(client: SrbClient, roles) -> str:
    """User registration ("the MySRB interface provides additional
    functionalities such as user registration") — sysadmin only."""
    fields = (H.text_field("username", "New user (name@domain)")
              + '<p><label>Password: <input type="password" name="password">'
                "</label></p>"
              + H.select_field("role", "Role", list(roles),
                               selected="reader"))
    top = ("<h3>Register a new SRB user</h3>"
           "<p>The role sets the default position in the access matrix "
           "from curator to public.</p>")
    bottom = H.form("/newuser", fields, submit="Register user")
    nav = H.nav_bar(client.username if client.ticket else None,
                    f"/{client.federation.zone}")
    return H.page("New user", top, bottom, nav=nav)


def login_form(message: str = "") -> str:
    """The sign-on page, optionally showing a failure message."""
    body = ""
    if message:
        body += f"<p style='color:red'>{H.e(message)}</p>"
    body += H.form("/login",
                   H.text_field("username", "User (name@domain)")
                   + '<p><label>Password: <input type="password" '
                     'name="password"></label></p>',
                   submit="Sign on")
    return H.simple_page("Sign on",
                         "<h2>mySRB - sign on</h2>"
                         "<p>Sessions use https with a unique session key "
                         "(60-minute limit).</p>" + body)


def error_page(status: str, message: str) -> str:
    """A minimal error page with a link back to the collections."""
    return H.simple_page(status, f"<h2>{H.e(status)}</h2>"
                                 f"<p>{H.e(message)}</p>"
                                 '<p><a href="/browse">back to collections'
                                 "</a></p>")


def help_page() -> str:
    """The on-line help the paper lists among MySRB's functionalities."""
    return H.simple_page("Help", """
<h2>mySRB on-line help</h2>
<ul>
<li><b>Collections</b>: browse the hierarchy; each entry lists per-object
operations (open, replicate, copy, move, link, lock, delete).</li>
<li><b>Ingest</b>: upload a file into a chosen logical resource or
container; the collection's curator may require metadata.</li>
<li><b>Register</b>: point SRB at files, directories, SQL queries, URLs
and methods that stay where they are.</li>
<li><b>Query</b>: conjunctive attribute search over the collection
hierarchy beneath the current collection.</li>
<li><b>Metadata</b>: insert triples by form, copy from another object, or
extract with a data-type method.</li>
</ul>""")
