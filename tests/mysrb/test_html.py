"""``url_quote``, which every MySRB link goes through, is one table
look-up per byte; the standard library function it replaced defines what
it must return.  (``e`` is ``html.escape`` behind a check that there is
anything to escape: pinned here too.)"""

from html import escape
from urllib.parse import quote

from hypothesis import given, strategies as st

from repro.mysrb.html import e, url_quote

# every character class the table tells apart, and some it does not
TEXT = st.text(st.one_of(
    st.sampled_from("&<>\"' %/?#=+~_.-aZ09\x00\x7f\x80\xffé日\U0001f600"),
    st.characters(blacklist_categories=["Cs"])), max_size=40)


@given(TEXT)
def test_e_is_html_escape_with_quotes(text):
    assert e(text) == escape(text, quote=True)


@given(TEXT)
def test_url_quote_is_urllib_quote_with_nothing_safe(text):
    assert url_quote(text) == quote(text, safe="")


def test_e_renders_none_as_empty_and_anything_else_through_str():
    assert e(None) == ""
    assert e(7) == "7" and e(1.5) == "1.5"
    assert e(["<a>"]) == "[&#x27;&lt;a&gt;&#x27;]"
