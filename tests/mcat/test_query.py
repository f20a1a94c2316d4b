"""Unit tests for the MySRB-style conjunctive attribute query."""

import pytest

from repro.errors import QueryError
from repro.mcat import Condition, DisplayOnly, Mcat, queryable_attributes, search

OWNER = "sekar@sdsc"


@pytest.fixture
def mcat():
    m = Mcat()
    m.create_collection("/demozone/survey", OWNER, now=0.0)
    m.create_collection("/demozone/survey/north", OWNER, now=0.0)
    m.create_collection("/demozone/other", OWNER, now=0.0)
    objs = [
        ("/demozone/survey/a.fits", {"RA": "10.5", "JMAG": "5.0",
                                     "SURVEY": "2MASS"}),
        ("/demozone/survey/b.fits", {"RA": "200.0", "JMAG": "12.0",
                                     "SURVEY": "2MASS"}),
        ("/demozone/survey/north/c.fits", {"RA": "350.1", "JMAG": "8.5",
                                           "SURVEY": "2MASS"}),
        ("/demozone/other/d.fits", {"RA": "10.5", "SURVEY": "DSS"}),
    ]
    for path, attrs in objs:
        oid = m.create_object(path, "data", OWNER, now=0.0,
                              data_type="fits image", size=1000)
        for attr, value in attrs.items():
            m.add_metadata("object", oid, attr, value, by=OWNER, now=0.0)
    return m


class TestConditions:
    def test_operator_validated(self):
        with pytest.raises(QueryError):
            Condition("a", "~=", "x")

    def test_condition_without_value_rejected(self, mcat):
        with pytest.raises(QueryError):
            search(mcat, "/demozone", [Condition("RA", "=", None)])


class TestSearch:
    def test_equality(self, mcat):
        r = search(mcat, "/demozone/survey", [Condition("SURVEY", "=", "2MASS")])
        assert len(r) == 3

    def test_scope_limits_to_subtree(self, mcat):
        r = search(mcat, "/demozone/survey/north",
                   [Condition("SURVEY", "=", "2MASS")])
        assert [row[0] for row in r.rows] == ["/demozone/survey/north/c.fits"]

    def test_query_across_collections_from_above(self, mcat):
        # "one can query across collections by being above the collections"
        r = search(mcat, "/demozone", [Condition("SURVEY", "=", "2MASS")])
        assert len(r) == 3

    def test_numeric_range(self, mcat):
        r = search(mcat, "/demozone/survey", [Condition("JMAG", "<", "9")])
        assert {row[0] for row in r.rows} == {
            "/demozone/survey/a.fits", "/demozone/survey/north/c.fits"}

    def test_numeric_not_lexicographic(self, mcat):
        # "12.0" < "5.0" lexicographically but not numerically
        r = search(mcat, "/demozone/survey", [Condition("JMAG", ">", "9")])
        assert [row[0] for row in r.rows] == ["/demozone/survey/b.fits"]

    def test_conjunction(self, mcat):
        r = search(mcat, "/demozone",
                   [Condition("SURVEY", "=", "2MASS"),
                    Condition("JMAG", ">=", "8"), Condition("JMAG", "<=", "9")])
        assert [row[0] for row in r.rows] == ["/demozone/survey/north/c.fits"]

    def test_not_equal(self, mcat):
        r = search(mcat, "/demozone", [Condition("SURVEY", "<>", "2MASS")])
        assert [row[0] for row in r.rows] == ["/demozone/other/d.fits"]

    def test_like(self, mcat):
        r = search(mcat, "/demozone", [Condition("RA", "like", "10%")])
        assert len(r) == 2

    def test_not_like(self, mcat):
        r = search(mcat, "/demozone/survey",
                   [Condition("RA", "not like", "1%")])
        assert {row[0] for row in r.rows} == {
            "/demozone/survey/b.fits", "/demozone/survey/north/c.fits"}

    def test_display_values_in_result(self, mcat):
        r = search(mcat, "/demozone/survey",
                   [Condition("JMAG", "<", "6", display=True)])
        assert r.columns == ["path", "JMAG"]
        assert r.rows == [("/demozone/survey/a.fits", "5.0")]

    def test_display_false_omits_column(self, mcat):
        r = search(mcat, "/demozone/survey",
                   [Condition("JMAG", "<", "6", display=False)])
        assert r.columns == ["path"]

    def test_display_only_checkbox(self, mcat):
        # check the box without using the attr in any condition
        r = search(mcat, "/demozone/survey",
                   [Condition("JMAG", "<", "6", display=False),
                    DisplayOnly("RA")])
        assert r.columns == ["path", "RA"]
        assert r.rows[0][1] == "10.5"

    def test_missing_attribute_never_matches(self, mcat):
        r = search(mcat, "/demozone/survey", [Condition("GHOST", "=", "x")])
        assert len(r) == 0

    def test_limit(self, mcat):
        r = search(mcat, "/demozone", [Condition("SURVEY", "=", "2MASS")],
                   limit=2)
        assert len(r) == 2

    def test_system_metadata(self, mcat):
        r = search(mcat, "/demozone",
                   [Condition("SYS:owner", "=", OWNER)],
                   include_system=True)
        assert len(r) == 4

    def test_system_size_numeric(self, mcat):
        r = search(mcat, "/demozone",
                   [Condition("SYS:size", ">", "500")], include_system=True)
        assert len(r) == 4

    def test_annotations_queryable(self, mcat):
        oid = mcat.get_object("/demozone/survey/a.fits")["oid"]
        mcat.add_annotation("object", oid, "rating", OWNER, "excellent",
                            now=0.0)
        r = search(mcat, "/demozone",
                   [Condition("ANN:rating", "like", "exc%")],
                   include_annotations=True)
        assert [row[0] for row in r.rows] == ["/demozone/survey/a.fits"]

    def test_result_dicts(self, mcat):
        r = search(mcat, "/demozone/survey", [Condition("JMAG", "<", "6")])
        assert r.dicts()[0]["path"] == "/demozone/survey/a.fits"


class TestQueryableAttributes:
    def test_names_from_subtree(self, mcat):
        names = queryable_attributes(mcat, "/demozone/survey")
        assert set(names) == {"RA", "JMAG", "SURVEY"}

    def test_scoped(self, mcat):
        names = queryable_attributes(mcat, "/demozone/other")
        assert set(names) == {"RA", "SURVEY"}

    def test_structural_attrs_included(self, mcat):
        mcat.define_structural("/demozone/survey", "epoch")
        assert "epoch" in queryable_attributes(mcat, "/demozone/survey")

    def test_system_names_appended(self, mcat):
        names = queryable_attributes(mcat, "/demozone", include_system=True)
        assert "SYS:owner" in names


# -- queryable_attributes as it stood when it read the whole zone --------------
#
# Verbatim from the parent commit but for the sharded router hook (a
# sharded catalog is compared with the plain one holding the same rows):
# one ``row_dict`` per metadata row of the zone, one list walk per
# structural row.  Kept as the oracle for the index-driven version.

import cProfile

from hypothesis import given, settings, strategies as st

from repro.mcat import ShardedMcat
from repro.mcat.query import SYSTEM_ATTRS
from repro.mcat.schema import drop_attribute_indexes, \
    restore_attribute_indexes
from repro.util import paths


def oracle_queryable_attributes(mcat, scope, include_system=False):
    scope = paths.normalize(scope)
    names = set()
    objs = {row["oid"] for row in mcat.objects_in_collection(scope, recursive=True)}
    colls = {row["cid"]: row["path"] for row in mcat.subtree_collections(scope)}
    md = mcat.db.table("metadata")
    for rid in md.scan():
        row = md.row_dict(rid)
        if row["target_kind"] == "object" and row["target_id"] in objs:
            names.add(row["attr"])
        elif row["target_kind"] == "collection" and row["target_id"] in colls:
            names.add(row["attr"])
    st = mcat.db.table("structural_meta")
    for rid in st.scan():
        row = st.row_dict(rid)
        if row["coll_path"] in colls.values():
            names.add(row["attr"])
    out = sorted(names)
    if include_system:
        out.extend(SYSTEM_ATTRS)
    return out


TREE = ["/demozone/a", "/demozone/a/x", "/demozone/a/x/y", "/demozone/ab",
        "/demozone/b"]
NAMES = ["RA", "DEC", "species", "epoch", "units"]


class TestQueryableAttributesOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_index_driven_names_equal_the_full_scan(self, data):
        draw = data.draw
        cats = [Mcat(), ShardedMcat(shards=4), ShardedMcat(shards=1)]
        cids = {}
        for coll in TREE:           # the catalogs number collections
            cids[coll] = [m.create_collection(coll, OWNER, now=0.0)
                          for m in cats]         # each in its own way
        oids, mids = [], []
        indexed = True
        steps = draw(st.lists(st.sampled_from(
            ["object"] * 3 + ["triple"] * 5 + ["collection triple",
                                               "structural", "delete",
                                               "unlink", "indexes"]),
            min_size=3, max_size=25))
        for i, step in enumerate(steps):
            if step == "object":
                path = f"{draw(st.sampled_from(TREE))}/o{i}"
                (oid,) = {m.create_object(path, "data", OWNER, now=0.0)
                          for m in cats}
                oids.append(oid)
            elif step == "triple" and oids:
                target = draw(st.sampled_from(oids))
                attr = draw(st.sampled_from(NAMES))
                (mid,) = {m.add_metadata("object", target, attr, "v",
                                         by=OWNER, now=0.0) for m in cats}
                mids.append(mid)
            elif step == "collection triple":
                targets = cids[draw(st.sampled_from(TREE))]
                attr = draw(st.sampled_from(NAMES))
                (mid,) = {m.add_metadata("collection", cid, attr, None,
                                         by=OWNER, now=0.0)
                          for m, cid in zip(cats, targets)}
                mids.append(mid)
            elif step == "structural":
                coll = draw(st.sampled_from(TREE))
                attr = draw(st.sampled_from(NAMES + ["curated"]))
                for m in cats:
                    m.define_structural(coll, attr)
            elif step == "delete" and mids:
                mid = mids.pop(draw(st.integers(0, len(mids) - 1)))
                for m in cats:
                    m.delete_metadata(mid)
            elif step == "unlink" and oids:
                oid = oids.pop(draw(st.integers(0, len(oids) - 1)))
                gone = {r["mid"] for r in cats[0].get_metadata("object", oid)}
                mids = [mid for mid in mids if mid not in gone]
                for m in cats:
                    m.delete_object(oid)
            elif step == "indexes":
                plain, *fronts = cats
                for db in [plain.db] + [s.primary.db for m in fronts
                                        for s in m.shards]:
                    (drop_attribute_indexes if indexed
                     else restore_attribute_indexes)(db)
                indexed = not indexed
            scope = draw(st.sampled_from(["/", "/demozone"] + TREE))
            system = draw(st.booleans())
            want = oracle_queryable_attributes(cats[0], scope, system)
            for m in cats:
                assert queryable_attributes(m, scope, system) == want

    def test_no_work_per_metadata_row_of_the_zone(self):
        """The names in a two-object scope, next to 300 objects carrying
        6,000 triples: fewer Python-level calls than the zone has
        metadata rows (the full scan made two per row before anything
        else), and the same answer."""
        m = Mcat()
        m.create_collection("/demozone/small", OWNER, now=0.0)
        m.create_collection("/demozone/wide", OWNER, now=0.0)
        for name in ("p", "q"):
            oid = m.create_object(f"/demozone/small/{name}", "data", OWNER,
                                  now=0.0)
            m.add_metadata("object", oid, "a00", "v", by=OWNER, now=0.0)
            m.add_metadata("object", oid, "only-here", "v", by=OWNER, now=0.0)
        for i in range(300):
            oid = m.create_object(f"/demozone/wide/o{i}", "data", OWNER,
                                  now=0.0)
            m.add_metadata_bulk(
                [{"target_kind": "object", "target_id": oid,
                  "attr": f"a{j:02d}", "value": "v"} for j in range(20)],
                by=OWNER, now=0.0)
        profiler = cProfile.Profile()
        profiler.enable()
        names = queryable_attributes(m, "/demozone/small")
        profiler.disable()
        assert names == ["a00", "only-here"]
        calls = sum(entry.callcount for entry in profiler.getstats())
        assert calls < len(m.db.table("metadata")) == 6004
