"""The set-at-a-time query planner against the object-by-object one it
replaced (``query_oracle``): on random catalogs, both answer every query
with the same rows, ``matched`` count, cursor, rows scanned and catalog
ops, and show the caller's ``visible`` filter the same object rows.  A
materializing ``search`` is the page body at no limit on both sides.

The catalogs mix multi-valued attributes, NULL and ``""`` values,
numbers, text and NaN in one attribute, metadata on collections whose
ids collide with objects', and annotations; the queries use all eight
operators, ``SYS:``/``ANN:`` conditions, display-only attributes, a
filter that refuses some rows and limits that end mid-batch, on one
catalog and on four partitions.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mcat import Condition, DisplayOnly, Mcat, ShardedMcat, search, \
    search_page
from repro.mcat.query import OPERATORS
from repro.util.clock import SimClock
from tests.mcat import query_oracle

ZONE = "demozone"
OWNERS = ("sekar@sdsc", "wan@sdsc")
COLLS = (f"/{ZONE}/a", f"/{ZONE}/a/sub", f"/{ZONE}/b", f"/{ZONE}/c")
SCOPES = (f"/{ZONE}", f"/{ZONE}/a", f"/{ZONE}/b")
ATTRS = ("RA", "band", "note")
PSEUDO = ("SYS:owner", "SYS:size", "SYS:kind", "SYS:data_type",
          "ANN:comment", "ANN:rating")
TEXTS = ("1", "2.5", "-3", "10", "nan", "", "abc", "B", "a%", "%b%",
         "_", "2_", "x y")

values = st.one_of(st.none(), st.sampled_from(TEXTS))
objects = st.lists(st.fixed_dictionaries({
    "coll": st.sampled_from(COLLS),
    "owner": st.sampled_from(OWNERS),
    "data_type": st.sampled_from((None, "fits image", "ascii text")),
    "size": st.one_of(st.none(), st.integers(0, 20)),
    "metadata": st.lists(st.tuples(st.sampled_from(ATTRS), values),
                         min_size=1, max_size=5),
    "annotations": st.lists(st.tuples(st.sampled_from(("comment", "rating")),
                                      st.sampled_from(TEXTS)), max_size=2),
}), min_size=4, max_size=16)
catalogs = st.fixed_dictionaries({
    "objects": objects,
    "coll_metadata": st.lists(st.tuples(st.sampled_from(COLLS),
                                        st.sampled_from(ATTRS), values),
                              max_size=4),
})
attrs = st.one_of(st.sampled_from(ATTRS), st.sampled_from(PSEUDO))
condition = st.builds(Condition, attr=attrs, op=st.sampled_from(OPERATORS),
                      value=st.sampled_from(TEXTS), display=st.booleans())
conditions = st.lists(st.one_of(condition, condition,
                                st.builds(DisplayOnly, attr=attrs)),
                      max_size=3)
options = st.fixed_dictionaries({
    "include_annotations": st.booleans(),
    "include_system": st.booleans(),
})


def build(spec, shards):
    """The catalog ``spec`` describes; the same ids every time."""
    m = Mcat(zone=ZONE, clock=SimClock()) if shards == 1 else \
        ShardedMcat(zone=ZONE, clock=SimClock(), shards=shards)
    cids = {coll: m.create_collection(coll, OWNERS[0], now=0.0)
            for coll in COLLS}
    for i, obj in enumerate(spec["objects"]):
        oid = m.create_object(f"{obj['coll']}/f{i:02d}", "data", obj["owner"],
                              now=0.0, data_type=obj["data_type"],
                              size=obj["size"])
        for attr, value in obj["metadata"]:
            m.add_metadata("object", oid, attr, value, by=obj["owner"],
                           now=0.0)
        for ann_type, text in obj["annotations"]:
            m.add_annotation("object", oid, ann_type, obj["owner"], text,
                             now=0.0)
    for coll, attr, value in spec["coll_metadata"]:
        m.add_metadata("collection", cids[coll], attr, value, by=OWNERS[0],
                       now=0.0)
    return m


class Filter:
    """A ``visible`` that refuses the second owner's odd oids and keeps
    every row it was shown."""

    def __init__(self):
        self.shown = []

    def __call__(self, objs):
        self.shown.append(objs)
        return [obj["owner"] == OWNERS[0] or obj["oid"] % 2 == 0
                for obj in objs]


def answer(m, run, filtered, **kw):
    """What one query returned and cost, and what its filter saw."""
    metrics = m.obs.metrics
    rows0, ops0 = m._rows_scanned(), metrics.total("mcat.ops")
    matched0 = metrics.total("mcat.query_rows_matched")
    visible = Filter() if filtered else None
    result = run(m, visible=visible, **kw)
    return {"result": result,
            "matched": metrics.total("mcat.query_rows_matched") - matched0,
            "rows_scanned": m._rows_scanned() - rows0,
            "ops": metrics.total("mcat.ops") - ops0,
            "shown": visible.shown if filtered else None}


def old_and_new(spec, shards, run, filtered, **kw):
    with mock.patch.object(Mcat, "search_page",
                           query_oracle.run_search_page):
        old = answer(build(spec, shards), run, filtered, **kw)
    new = answer(build(spec, shards), run, filtered, **kw)
    assert new == old
    return new


SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(spec=catalogs, conds=conditions, opts=options,
       scope=st.sampled_from(SCOPES),
       filtered=st.booleans(), shards=st.sampled_from((1, 4)))
def test_search_answers_and_costs_as_the_row_by_row_planner(
        spec, conds, opts, scope, filtered, shards):
    new = old_and_new(spec, shards, search, filtered, scope=scope,
                      conditions=conds, **opts)
    assert new["result"].columns[0] == "path"


@SETTINGS
@given(spec=catalogs, conds=conditions, opts=options,
       scope=st.sampled_from(SCOPES), limit=st.integers(1, 4),
       cursor=st.one_of(st.none(), st.sampled_from(
           [f"{coll}/f{i:02d}" for coll in COLLS for i in (0, 3, 7)])),
       filtered=st.booleans(), shards=st.sampled_from((1, 4)))
def test_search_page_answers_and_costs_as_the_row_by_row_planner(
        spec, conds, opts, scope, limit, cursor, filtered, shards):
    new = old_and_new(spec, shards, search_page, filtered, scope=scope,
                      conditions=conds, limit=limit, cursor=cursor, **opts)
    assert len(new["result"].rows) <= limit


def test_the_oracle_is_the_one_compared():
    """A planner that answers differently is caught: the oracle is
    really what the old side runs."""
    spec = {"objects": [{"coll": COLLS[0], "owner": OWNERS[0],
                         "data_type": None, "size": None,
                         "metadata": [("RA", "1")], "annotations": []}],
            "coll_metadata": []}
    # one object: the cost rule walks, and tests the condition row by row
    conds = [Condition("RA", "=", "1")]
    with mock.patch.object(query_oracle, "_satisfies",
                           lambda vals, tests: False):
        with mock.patch.object(Mcat, "search_page",
                               query_oracle.run_search_page):
            old = answer(build(spec, 1), search, False, scope=SCOPES[0],
                         conditions=conds)
    new = answer(build(spec, 1), search, False, scope=SCOPES[0],
                 conditions=conds)
    assert len(old["result"].rows) == 0 and len(new["result"].rows) == 1
