"""HTML rendering helpers for MySRB.

MySRB's browser interface "uses a split-window: the small top-window is
used to display metadata about data objects and collections, and the
larger bottom-window is used for displaying elements in a collection or
for displaying data objects accessed by the user."  We render that as a
single HTML page with two framed ``<div>`` panes (period browsers used a
frameset; the structure and content are the same).

Everything here is plain string assembly with systematic escaping — no
template engine, mirroring the CGI-era implementation.
"""

from __future__ import annotations

from html import escape
from typing import Dict, Iterable, Optional, Sequence

# urllib.parse.quote(safe="") as one translate table: every byte of the
# UTF-8 form that is not an RFC 3986 unreserved character becomes %XX.
# (The same trick is a loss for e(): html.escape's five str.replace passes
# over a short cell take a fifth of the time one str.translate does.)
_UNRESERVED = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                        b"0123456789_.-~")
_URL_ESCAPES = {byte: chr(byte) if byte in _UNRESERVED else f"%{byte:02X}"
                for byte in range(256)}


def e(value: object) -> str:
    """Escape any value for HTML text/attribute context."""
    text = "" if value is None else str(value)
    # most cells hold nothing to escape: five substring scans (no call)
    # tell, where escape() is a call and five str.replace calls
    if "&" in text or "<" in text or ">" in text or '"' in text \
            or "'" in text:
        return escape(text, quote=True)
    return text


def page(title: str, top_pane: str, bottom_pane: str,
         nav: str = "") -> str:
    """The split-window page layout (Figure 1/2 skeleton)."""
    return f"""<!DOCTYPE html>
<html>
<head><title>{e(title)} - mySRB</title>
<style>
  body {{ font-family: sans-serif; margin: 0; }}
  .nav {{ background: #003366; color: white; padding: 4px 8px; }}
  .nav a {{ color: #ffcc00; margin-right: 12px; }}
  .top-pane {{ height: 30%; overflow: auto; border-bottom: 3px solid #003366;
              padding: 8px; background: #f4f4ff; }}
  .bottom-pane {{ height: 70%; overflow: auto; padding: 8px; }}
  table.listing {{ border-collapse: collapse; }}
  table.listing td, table.listing th {{ border: 1px solid #999;
              padding: 2px 8px; }}
  .op {{ font-size: smaller; }}
</style>
</head>
<body>
<div class="nav">{nav}</div>
<div class="top-pane">{top_pane}</div>
<div class="bottom-pane">{bottom_pane}</div>
</body>
</html>"""


def simple_page(title: str, body: str) -> str:
    """A one-pane page (login, small forms, errors)."""
    return f"""<!DOCTYPE html>
<html><head><title>{e(title)} - mySRB</title></head>
<body>{body}</body></html>"""


def nav_bar(session_user: Optional[str], current: str) -> str:
    """The top navigation bar, with the signed-on user on the right."""
    q = url_quote(current)      # unreserved characters and %XX only
    who = (f'<span style="float:right">{e(session_user)} '
           f'<a href="/logout">logout</a></span>'
           if session_user else '<span style="float:right">public</span>')
    return ('<a href="/browse">Collections</a>'
            '<a href="/resources">Resources</a>'
            '<a href="/status">Status</a>'
            f'<a href="/query?scope={q}">mySRB Query</a>'
            f'<a href="/ingest?coll={q}">Ingest</a>'
            f'<a href="/register?coll={q}">Register</a>'
            '<a href="/help">Help</a>' + who)


def url_quote(text: str) -> str:
    """Percent-encode a value for use inside a URL query string."""
    # one character per UTF-8 byte, so that one table covers every input
    return text.encode("utf-8").decode("latin-1").translate(_URL_ESCAPES)


def table(headers: Sequence[str], rows: Iterable[Sequence[object]],
          css_class: str = "listing") -> str:
    """An HTML table; cells escape unless wrapped in RawHtml."""
    head = "".join(f"<th>{e(h)}</th>" for h in headers)
    body = []
    for row in rows:
        cells = "".join([f"<td>{cell if type(cell) is RawHtml else e(cell)}</td>"
                         for cell in row])
        body.append(f"<tr>{cells}</tr>")
    return (f'<table class="{e(css_class)}"><tr>{head}</tr>'
            + "".join(body) + "</table>")


class RawHtml(str):
    """Marks a string as pre-rendered HTML (skips escaping in table())."""


def link_to(href: str, label: str) -> RawHtml:
    """An escaped anchor, pre-marked as rendered HTML for table()."""
    return RawHtml(f'<a href="{e(href)}">{e(label)}</a>')


def metadata_pane(title: str, triples: Sequence[Dict[str, object]],
                  annotations: Sequence[Dict[str, object]] = ()) -> str:
    """The top window: attributes about the selected object/collection."""
    parts = [f"<h3>{e(title)}</h3>"]
    if triples:
        parts.append(table(
            ["attribute", "value", "units", "class"],
            [(t["attr"], t["value"], t.get("units"), t.get("meta_class"))
             for t in triples]))
    else:
        parts.append("<p><i>no metadata</i></p>")
    if annotations:
        parts.append("<h4>Annotations</h4>")
        parts.append(table(
            ["type", "author", "text"],
            [(a["ann_type"], a["author"], a["text"]) for a in annotations]))
    return "".join(parts)


def form(action: str, fields: str, submit: str = "Submit",
         method: str = "post") -> str:
    """A form wrapper with a submit button."""
    return (f'<form action="{e(action)}" method="{e(method)}">{fields}'
            f'<p><input type="submit" value="{e(submit)}"></p></form>')


def text_field(name: str, label: str, value: str = "",
               size: int = 40) -> str:
    """A labelled single-line text input."""
    return (f'<p><label>{e(label)}: '
            f'<input type="text" name="{e(name)}" value="{e(value)}" '
            f'size="{size}"></label></p>')


def textarea(name: str, label: str, value: str = "", rows: int = 6) -> str:
    """A labelled multi-line text input."""
    return (f'<p><label>{e(label)}:<br>'
            f'<textarea name="{e(name)}" rows="{rows}" cols="60">'
            f'{e(value)}</textarea></label></p>')


def select_field(name: str, label: str, options: Sequence[str],
                 selected: Optional[str] = None) -> str:
    """A labelled drop-down; options escape, one may be preselected."""
    opts = "".join(
        f'<option value="{e(o)}"{" selected" if o == selected else ""}>'
        f'{e(o)}</option>' for o in options)
    return (f'<p><label>{e(label)}: <select name="{e(name)}">{opts}'
            f'</select></label></p>')


def hidden_field(name: str, value: str) -> str:
    """A hidden input carrying state across a form submission."""
    return f'<input type="hidden" name="{e(name)}" value="{e(value)}">'


def checkbox(name: str, label: str, checked: bool = False) -> str:
    """A labelled checkbox posting value=1 when ticked."""
    return (f'<label><input type="checkbox" name="{e(name)}" value="1"'
            f'{" checked" if checked else ""}> {e(label)}</label>')
