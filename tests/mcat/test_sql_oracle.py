"""The catalog query against the SQL engine (``sql_oracle.py``): on random
catalogs, bare and sharded, ``search`` returns the paths the SQL
``SELECT`` over the partitions' own tables returns."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mcat import Condition, Mcat, ShardedMcat, search
from repro.mcat import query
from tests.mcat.sql_oracle import compile_search, sql_paths

OWNER = "b@s"
# "ab" is no part of "a"'s subtree, whatever their spelling shares; two
# partitions hold "a" and "ab", and "d"
COLLS = ["/demozone/a", "/demozone/a/sub", "/demozone/ab", "/demozone/d"]
SCOPES = ["/demozone", "/demozone/a", "/demozone/a/sub"]
NUMBERS = ["1", "5", "5.0", "10", "-3", "0", "-0.0", "1e3", "1_000", " 7",
           "inf", "nan", "NaN"]
TEXTS = ["", "abc", "ibis", "Ibis", "i%", "heron", "10x"]
PATTERNS = ["%", "_", "i%", "%s", "i_is", "_b%", "1%"]
# "mag" holds numbers only and "species" text only, so the sorted
# indexes answer for them; "mixed" holds anything
VALUES = {"mag": [None] + NUMBERS, "species": [None] + TEXTS,
          "mixed": [None] + NUMBERS + TEXTS}
OPS = ["=", "<>", ">", "<", ">=", "<=", "like", "not like"]
WANTED = NUMBERS + TEXTS + PATTERNS
# what a condition on each attribute compares with: mostly values it may
# hold; SYS:size takes numbers only, since the text case has no SQL
POOLS = {attr: WANTED for attr in VALUES}
POOLS.update({"ANN:comment": WANTED, "ANN:rating": WANTED,
              "SYS:owner": [OWNER, "a", "c", "b%", "%s"],
              "SYS:kind": ["data", "d%", "e", "5", "_ata"],
              "SYS:data_type": ["fits image", "f%", "g", "%e", "1"],
              "SYS:size": ["0", "7", "1000"] + NUMBERS})


def agree(cats, scope, conditions, **flags) -> None:
    """Each catalog's ``search`` returns the SQL oracle's path set."""
    for m in cats:
        got = {row[0] for row in search(m, scope, conditions, **flags).rows}
        assert got == sql_paths(m, scope, conditions, **flags), \
            (type(m).__name__, scope, conditions, flags)


def catalogs():
    """A bare ``Mcat`` and a two-way sharded, replicated one, to be fed
    the same calls (so their ids agree)."""
    cats = [Mcat(), ShardedMcat(shards=2, replicas=1)]
    for coll in COLLS:
        for m in cats:
            cid = m.create_collection(coll, OWNER, now=0.0)
            # a collection's metadata id collides with an object's
            m.add_metadata("collection", cid, "mag", "5", by=OWNER, now=0.0)
    return cats


@st.composite
def conditions(draw, stored):
    """One condition, comparing with a value some object holds as often
    as with one from its attribute's pool."""
    attr = draw(st.sampled_from(list(POOLS)))
    ops = OPS[:6] if attr == "SYS:size" else OPS
    pool = POOLS[attr] if attr == "SYS:size" or not stored \
        else draw(st.sampled_from([stored, POOLS[attr]]))
    return Condition(attr, draw(st.sampled_from(ops)),
                     draw(st.sampled_from(pool)))


class TestSearchAgainstSql:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(st.data())
    def test_search_returns_what_the_select_returns(self, data):
        draw = data.draw
        cats = catalogs()
        stored = []
        for i in range(draw(st.integers(2, 10))):
            path = f"{draw(st.sampled_from(COLLS))}/o{i}"
            size = draw(st.sampled_from([None, 0, 7, 1000]))
            data_type = draw(st.sampled_from([None, "fits image"]))
            (oid,) = {m.create_object(path, "data", OWNER, now=0.0,
                                      size=size, data_type=data_type)
                      for m in cats}
            for attr in draw(st.lists(st.sampled_from(sorted(VALUES)),
                                      max_size=4)):
                value = draw(st.sampled_from(VALUES[attr]))
                stored += [value] if value is not None else []
                for m in cats:
                    m.add_metadata("object", oid, attr, value, by=OWNER,
                                   now=0.0)
            for ann_type in draw(st.lists(
                    st.sampled_from(["comment", "rating"]), max_size=2)):
                text = draw(st.sampled_from(NUMBERS + TEXTS))
                stored.append(text)
                for m in cats:
                    m.add_annotation("object", oid, ann_type, OWNER, text,
                                     now=0.0)
        for least in (0, 1, 1):
            agree(cats, draw(st.sampled_from(SCOPES)),
                  draw(st.lists(conditions(stored), min_size=least,
                                max_size=2)),
                  include_annotations=draw(st.booleans()),
                  include_system=draw(st.booleans()))


def test_sys_size_against_text_has_no_sql():
    with pytest.raises(ValueError, match="decimal string"):
        compile_search("/demozone", [Condition("SYS:size", "<", "abc")],
                       include_system=True)


def test_the_oracle_fails_when_numbers_compare_as_text():
    """Mutation check: with the catalog reading no query value as a
    number, every comparison is made on text, and the oracle says so."""
    cats = catalogs()
    for i, ra in enumerate(["12.5", "9", "nan", "ibis"]):
        (oid,) = {m.create_object(f"/demozone/a/o{i}", "data", OWNER,
                                  now=0.0) for m in cats}
        for m in cats:
            m.add_metadata("object", oid, "RA", ra, by=OWNER, now=0.0)
    queries = [[Condition("RA", op, wanted)]
               for op in OPS[:6] for wanted in ["nan", "10", "12.50"]]
    for conds in queries:
        agree(cats, "/demozone", conds)
    with mock.patch.object(query, "numeric", lambda text: None):
        with pytest.raises(AssertionError):
            for conds in queries:
                agree(cats, "/demozone", conds)
