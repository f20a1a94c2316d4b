"""MySRB renders a listing row from anchors escaped once at import and an
``e()`` that returns early; the renderers they replaced define what the
bytes must be.  ``model_*`` are those former implementations (every
constant label and href escaped again for every row); they stay here as
the oracle.  The one intended difference is which rows get an *edit*
link, so the oracle takes that verdict as an argument."""

from html import escape
from urllib.parse import quote

from hypothesis import given, strategies as st

from repro.mysrb import html as H
from repro.mysrb import views


def model_e(value):
    return escape("" if value is None else str(value), quote=True)


def model_link_to(href, label):
    return H.RawHtml(f'<a href="{model_e(href)}">{model_e(label)}</a>')


def model_object_operations(path, kind, can_edit):
    q = quote(path, safe="")
    ops = [("open", f"/open?path={q}")]
    ops.append(("metadata", f"/metadata?path={q}"))
    ops.append(("annotate", f"/annotate?path={q}"))
    if kind in ("data", "registered"):
        ops.append(("replicate", f"/op?action=replicate&path={q}"))
    if can_edit:
        ops.append(("edit", f"/edit?path={q}"))
    ops.append(("copy", f"/op?action=copy&path={q}"))
    ops.append(("move", f"/op?action=move&path={q}"))
    ops.append(("link", f"/op?action=link&path={q}"))
    ops.append(("lock", f"/op?action=lock&path={q}"))
    ops.append(("delete", f"/op?action=delete&path={q}"))
    return H.RawHtml(" ".join(
        f'<a class="op" href="{model_e(href)}">{model_e(label)}</a>'
        for label, href in ops))


def model_object_row(obj):
    return (model_link_to(f"/open?path={quote(obj['path'], safe='')}",
                          obj["name"]),
            obj["kind"], obj["data_type"] or "", obj["size"] or "",
            model_object_operations(
                obj["path"], obj["kind"],
                views.editable(obj["kind"], obj["data_type"])))


def model_table(headers, rows, css_class="listing"):
    head = "".join(f"<th>{model_e(h)}</th>" for h in headers)
    body = []
    for row in rows:
        cells = "".join(
            f"<td>{cell if isinstance(cell, H.RawHtml) else model_e(cell)}</td>"
            for cell in row)
        body.append(f"<tr>{cells}</tr>")
    return (f'<table class="{model_e(css_class)}"><tr>{head}</tr>'
            + "".join(body) + "</table>")


def model_nav_bar(session_user, current):
    links = [
        ("/browse", "Collections"),
        ("/resources", "Resources"),
        ("/status", "Status"),
        ("/query?scope=" + quote(current, safe=""), "mySRB Query"),
        ("/ingest?coll=" + quote(current, safe=""), "Ingest"),
        ("/register?coll=" + quote(current, safe=""), "Register"),
        ("/help", "Help"),
    ]
    out = "".join(f'<a href="{model_e(href)}">{model_e(label)}</a>'
                  for href, label in links)
    who = (f'<span style="float:right">{model_e(session_user)} '
           f'<a href="/logout">logout</a></span>'
           if session_user else '<span style="float:right">public</span>')
    return out + who


# what a name may hold that a renderer could get wrong: the five
# characters HTML escapes, the ones URLs reserve, the template's own
# placeholder, non-ASCII
NAME = st.text(st.one_of(
    st.sampled_from("&<>\"' %/?#=+~_.-aZ09\x00\x7fé日\U0001f600"),
    st.characters(blacklist_categories=["Cs"])), min_size=1, max_size=24)
KIND = st.sampled_from(["data", "registered", "link", "container", "sql",
                        "url", "method", "shadow-dir", "shadow-file"])
DATA_TYPE = st.sampled_from([None, "ascii text", "fits image", "html",
                             "sql query", "container", "a <b> & 'c'"])
OBJECT = st.builds(
    lambda coll, name, kind, data_type, size: {
        "path": f"/{coll}/{name}", "name": name, "kind": kind,
        "data_type": data_type, "size": size},
    NAME, NAME, KIND, DATA_TYPE, st.sampled_from([None, 0, 7, 2 ** 40]))
CELL = st.one_of(st.none(), st.integers(), NAME, NAME.map(H.RawHtml))


@given(st.lists(OBJECT, max_size=4))
def test_listing_rows_are_the_bytes_the_per_row_escaping_made(objs):
    headers = ["name", "kind", "data type", "size", "operations"]
    assert H.table(headers, [views._object_row(o) for o in objs]) == \
        model_table(headers, [model_object_row(o) for o in objs])


@given(st.lists(NAME, max_size=3), st.lists(st.lists(CELL, max_size=3),
                                            max_size=3), NAME)
def test_table_escapes_every_cell_that_is_not_raw_html(headers, rows, css):
    assert H.table(headers, rows, css) == model_table(headers, rows, css)


@given(st.one_of(st.none(), NAME), NAME)
def test_nav_bar(user, current):
    assert H.nav_bar(user, current) == model_nav_bar(user, current)


@given(st.one_of(st.none(), st.integers(), st.floats(), NAME))
def test_e_is_html_escape_of_the_text(value):
    assert H.e(value) == model_e(value)


def test_a_quoted_path_needs_no_escaping():
    """Why a row may splice ``url_quote(path)`` between anchors escaped
    beforehand: whatever the byte, what comes out is an unreserved
    character or ``%XX``, which ``e`` would hand back as it is — and
    never the character the template marks the path's place with."""
    for byte in range(256):
        quoted = H._URL_ESCAPES[byte]       # what url_quote writes for it
        assert quoted == quote(bytes([byte]), safe="")
        assert model_e(quoted) == quoted and "\0" not in quoted
        assert all(c.isascii() and c.isalnum() or c in "_.-~%"
                   for c in quoted)


def test_every_operations_template_is_the_model_with_the_path_cut_out():
    for kind in ("data", "registered", "link"):
        for data_type in (None, "ascii text", "fits image"):
            can_edit = views.editable(kind, data_type)
            parts = views._OPERATIONS[kind in ("data", "registered"),
                                      can_edit]
            assert "PATH".join(parts) == \
                model_object_operations("PATH", kind, can_edit)
            assert ("edit" in "".join(parts)) == (
                kind == "data" and data_type != "fits image")
