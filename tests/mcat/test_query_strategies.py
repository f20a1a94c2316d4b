"""Tests for the index-driven query strategy (answers must be identical
to the scan strategy in every case; the plan differs only in cost)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mcat import Condition, DisplayOnly, Mcat, search
from repro.mcat.schema import drop_attribute_indexes
from repro.errors import QueryError

OWNER = "b@s"


@pytest.fixture
def mcat():
    m = Mcat()
    m.create_collection("/demozone/c", OWNER, now=0.0)
    m.create_collection("/demozone/c/sub", OWNER, now=0.0)
    m.create_collection("/demozone/other", OWNER, now=0.0)
    data = [
        ("/demozone/c/a", {"species": "ibis", "mag": "5.0"}),
        ("/demozone/c/b", {"species": "heron", "mag": "9.5"}),
        ("/demozone/c/sub/d", {"species": "ibis", "mag": "12.0"}),
        ("/demozone/other/e", {"species": "ibis"}),
    ]
    for path, attrs in data:
        oid = m.create_object(path, "data", OWNER, now=0.0)
        for attr, value in attrs.items():
            m.add_metadata("object", oid, attr, value, by=OWNER, now=0.0)
    return m


def both(mcat, scope, conditions, **kw):
    a = search(mcat, scope, conditions, strategy="scan", **kw)
    b = search(mcat, scope, conditions, strategy="index", **kw)
    assert a.columns == b.columns
    assert sorted(a.rows) == sorted(b.rows)
    return a


class TestEquivalence:
    def test_equality(self, mcat):
        r = both(mcat, "/demozone/c", [Condition("species", "=", "ibis")])
        assert len(r) == 2

    def test_scope_respected_by_index_plan(self, mcat):
        r = both(mcat, "/demozone/c/sub",
                 [Condition("species", "=", "ibis")])
        assert [row[0] for row in r.rows] == ["/demozone/c/sub/d"]

    def test_range(self, mcat):
        r = both(mcat, "/demozone/c", [Condition("mag", ">", "6")])
        assert len(r) == 2

    def test_like(self, mcat):
        r = both(mcat, "/demozone", [Condition("species", "like", "i%")])
        assert len(r) == 3

    def test_conjunction_intersects(self, mcat):
        r = both(mcat, "/demozone/c",
                 [Condition("species", "=", "ibis"),
                  Condition("mag", "<", "6")])
        assert [row[0] for row in r.rows] == ["/demozone/c/a"]

    def test_empty_result(self, mcat):
        r = both(mcat, "/demozone/c", [Condition("species", "=", "dodo")])
        assert len(r) == 0

    def test_display_columns_identical(self, mcat):
        r = both(mcat, "/demozone/c",
                 [Condition("species", "=", "ibis"), DisplayOnly("mag")])
        assert r.columns == ["path", "species", "mag"]


class TestFallbacks:
    def test_no_conditions_falls_back_to_scan(self, mcat):
        r = search(mcat, "/demozone/c", [DisplayOnly("species")],
                   strategy="index")
        assert len(r) == 3      # every object in scope (incl. sub/) listed

    def test_system_attrs_fall_back(self, mcat):
        r = search(mcat, "/demozone/c",
                   [Condition("SYS:owner", "=", OWNER)],
                   include_system=True, strategy="index")
        assert len(r) == 3

    def test_dropped_indexes_fall_back(self, mcat):
        drop_attribute_indexes(mcat.db)
        r = search(mcat, "/demozone/c", [Condition("species", "=", "ibis")],
                   strategy="index")
        assert len(r) == 2

    def test_unknown_strategy_rejected(self, mcat):
        with pytest.raises(QueryError):
            search(mcat, "/demozone/c", [], strategy="quantum")


class TestCost:
    def test_index_plan_touches_fewer_rows(self):
        m = Mcat()
        m.create_collection("/demozone/big", OWNER, now=0.0)
        for i in range(300):
            oid = m.create_object(f"/demozone/big/o{i}", "data", OWNER,
                                  now=0.0)
            m.add_metadata("object", oid, "common", str(i), by=OWNER, now=0.0)
            if i < 3:
                m.add_metadata("object", oid, "rare", "yes", by=OWNER,
                               now=0.0)

        def rows_touched(strategy):
            before = sum(m.db.table(t).rows_scanned for t in m.db.tables())
            search(m, "/demozone/big", [Condition("rare", "=", "yes")],
                   strategy=strategy)
            return sum(m.db.table(t).rows_scanned
                       for t in m.db.tables()) - before

        scan_cost = rows_touched("scan")
        index_cost = rows_touched("index")
        assert index_cost < scan_cost / 5


conditions_strategy = st.lists(
    st.tuples(st.sampled_from(["species", "mag", "ghost"]),
              st.sampled_from(["=", "<>", ">", "<", "like"]),
              st.sampled_from(["ibis", "heron", "5.0", "9", "i%", "x"])),
    min_size=1, max_size=3)


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(conditions_strategy)
    def test_random_queries_agree(self, mcat, conds):
        conditions = [Condition(a, op, v) for a, op, v in conds]
        both(mcat, "/demozone", conditions)


# -- the semantics oracle for the set-at-a-time plans --------------------------
#
# What a condition means is defined twice over here, both independent of
# the planner: ``oracle_match`` is ``query._match`` as it stood before
# conditions were compiled and probed (verbatim), evaluated over a plain
# model of the catalog; and ``strategy="scan"`` is the catalog's own
# row-by-row plan.  Every plan has to return what they return.

from repro.db.sql import like_to_regex
from repro.mcat import ShardedMcat, search_page
from repro.mcat.schema import restore_attribute_indexes


def oracle_match(op, stored_value, stored_num, wanted):
    if stored_value is None or wanted is None:
        return False
    if op in ("like", "not like"):
        hit = bool(like_to_regex(wanted).match(stored_value))
        return hit if op == "like" else not hit
    try:
        wanted_num = float(wanted)
    except ValueError:
        wanted_num = None
    if stored_num is not None and wanted_num is not None:
        a, b = stored_num, wanted_num
    else:
        a, b = stored_value, wanted
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == ">":
        return a > b
    if op == "<":
        return a < b
    if op == ">=":
        return a >= b
    if op == "<=":
        return a <= b
    raise QueryError(f"unknown operator {op!r}")


def oracle_num(value):
    try:
        return None if value is None else float(value)
    except ValueError:
        return None


# "ab" is no part of "a"'s subtree, whatever their spelling shares
COLLS = ["/demozone/a", "/demozone/a/sub", "/demozone/ab", "/demozone/b"]
SCOPES = ["/", "/demozone", "/demozone/a", "/demozone/a/sub", "/demozone/b"]
# numbers (some only float() would call one), text, and NaN, which is
# neither; "mag" holds numbers only and "species" text only, so the
# sorted indexes answer for them, and "mixed" holds anything
NUMBERS = ["1", "5", "5.0", "10", "100", "-3", "0", "-0.0", "1e3", "1_000",
           " 7", "7", "inf", "-inf"]
TEXTS = ["", "abc", "ibis", "i%", "Ibis", "heron"]
VALUES = {"mag": [None] + NUMBERS, "species": [None] + TEXTS,
          "mixed": [None, "nan", "NaN"] + NUMBERS + TEXTS}
ATTRS = sorted(VALUES)
WANTED = VALUES["mixed"][1:] + ["%", "_", "i_is", "%n"]
OPS = ["=", "<>", ">", "<", ">=", "<=", "like", "not like"]
SYS_OR_ANN = ["SYS:size", "SYS:owner", "SYS:kind", "ANN:comment",
              "ANN:rating"]


class Twin:
    """The same catalog four times: a bare ``Mcat``, the catalog over
    four partitions and over one (fed the same calls, so ids agree), and
    a model of dicts."""

    def __init__(self):
        self.cats = [Mcat(), ShardedMcat(shards=4), ShardedMcat(shards=1)]
        self.objects = {}        # oid -> (path, size)
        self.triples = {}        # mid -> [oid, attr, value]
        self.notes = {}          # oid -> [(ann_type, text)]
        for coll in COLLS:
            cids = [m.create_collection(coll, OWNER, now=0.0)
                    for m in self.cats]
            # collections carry metadata too, under ids that collide with
            # object ids: a probe must tell the two kinds apart
            for m, cid in zip(self.cats, cids):
                m.add_metadata("collection", cid, "mag", "5", by=OWNER,
                               now=0.0)

    def dbs(self):
        plain, *fronts = self.cats
        return [plain.db] + [s.primary.db for m in fronts for s in m.shards]

    def add_object(self, coll, name, size):
        path = f"{coll}/{name}"
        if any(p == path for p, _s in self.objects.values()):
            return
        oids = {m.create_object(path, "data", OWNER, now=0.0, size=size)
                for m in self.cats}
        (oid,) = oids
        self.objects[oid] = (path, size)

    def add_triple(self, oid, attr, value):
        mids = {m.add_metadata("object", oid, attr, value, by=OWNER, now=0.0)
                for m in self.cats}
        (mid,) = mids
        self.triples[mid] = [oid, attr, value]

    def annotate(self, oid, ann_type, text):
        for m in self.cats:
            m.add_annotation("object", oid, ann_type, OWNER, text, now=0.0)
        self.notes.setdefault(oid, []).append((ann_type, text))

    def update_triple(self, mid, value):
        for m in self.cats:
            m.update_metadata(mid, value)
        self.triples[mid][2] = value

    def delete_triple(self, mid):
        for m in self.cats:
            m.delete_metadata(mid)
        del self.triples[mid]

    def delete_object(self, oid):
        for m in self.cats:
            m.delete_object(oid)
        del self.objects[oid]
        self.notes.pop(oid, None)
        for mid in [k for k, t in self.triples.items() if t[0] == oid]:
            del self.triples[mid]

    # -- the model's answer -------------------------------------------------

    def values_of(self, oid, include_annotations, include_system):
        out = {}
        for _mid, (owner, attr, value) in sorted(self.triples.items()):
            if owner == oid:
                out.setdefault(attr, []).append((value, oracle_num(value)))
        if include_annotations:
            for ann_type, text in self.notes.get(oid, []):
                out.setdefault("ANN:" + ann_type, []).append((text, None))
        if include_system:
            size = self.objects[oid][1]
            out["SYS:owner"] = [(OWNER, None)]
            out["SYS:kind"] = [("data", None)]
            if size is not None:
                out["SYS:size"] = [(str(size), float(size))]
        return out

    def expected(self, scope, conditions, include_annotations,
                 include_system, visible=None):
        real = [c for c in conditions if isinstance(c, Condition)]
        shown = []
        for c in conditions:
            if (c.display if isinstance(c, Condition) else True) \
                    and c.attr not in shown:
                shown.append(c.attr)
        prefix = scope.rstrip("/") + "/"
        rows = []
        for oid, (path, _size) in self.objects.items():
            if not path.startswith(prefix):
                continue
            if visible is not None and not visible([{"oid": oid}])[0]:
                continue
            values = self.values_of(oid, include_annotations, include_system)
            if all(any(oracle_match(c.op, v, n, c.value)
                       for v, n in values.get(c.attr, []))
                   for c in real):
                rows.append((path,) + tuple(
                    "; ".join(v for v, _n in values.get(attr, [])
                              if v is not None) or None
                    for attr in shown))
        return ["path"] + shown, sorted(rows)


def drain(m, scope, conditions, limit, **kw):
    rows, cursor = [], None
    while True:
        page = search_page(m, scope, conditions, limit=limit, cursor=cursor,
                           **kw)
        assert len(page.rows) <= limit
        rows.extend(page.rows)
        if page.next_cursor is None:
            return page.columns, rows
        assert page.rows, "a page with a cursor carries at least one row"
        assert page.next_cursor == page.rows[-1][0]
        assert cursor is None or page.next_cursor > cursor
        cursor = page.next_cursor


def odd_oids_only(objs):
    return [obj["oid"] % 2 == 1 for obj in objs]


conditions_of = st.lists(
    st.one_of(
        st.builds(Condition, st.sampled_from(ATTRS), st.sampled_from(OPS),
                  st.sampled_from(WANTED), st.booleans()),
        st.builds(Condition, st.sampled_from(ATTRS), st.sampled_from(OPS),
                  st.sampled_from(WANTED), st.booleans()),
        st.builds(Condition, st.sampled_from(SYS_OR_ANN),
                  st.sampled_from(OPS), st.sampled_from(WANTED + [OWNER]),
                  st.booleans()),
        st.builds(DisplayOnly, st.sampled_from(ATTRS + SYS_OR_ANN))),
    max_size=4)


class TestEveryPlanAgainstTheOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(st.data())
    def test_index_scan_paged_sharded_all_agree(self, data):
        twin = Twin()
        draw = data.draw
        for i in range(draw(st.integers(3, 10))):
            twin.add_object(draw(st.sampled_from(COLLS)), f"o{i:02d}",
                            draw(st.sampled_from([None, 0, 7, 1000])))
        indexed = True
        steps = draw(st.lists(st.sampled_from(
            ["triple"] * 6 + ["update", "delete", "annotate", "unlink",
                              "indexes"] + ["query"] * 4),
            min_size=4, max_size=30))
        for step in steps + ["query"]:
            oids = sorted(twin.objects)
            mids = sorted(twin.triples)
            if step == "triple" and oids:
                attr = draw(st.sampled_from(ATTRS))
                twin.add_triple(draw(st.sampled_from(oids)), attr,
                                draw(st.sampled_from(VALUES[attr])))
            elif step == "update" and mids:
                mid = draw(st.sampled_from(mids))
                twin.update_triple(mid, draw(st.sampled_from(
                    VALUES[twin.triples[mid][1]])))
            elif step == "delete" and mids:
                twin.delete_triple(draw(st.sampled_from(mids)))
            elif step == "annotate" and oids:
                twin.annotate(draw(st.sampled_from(oids)),
                              draw(st.sampled_from(["comment", "rating"])),
                              draw(st.sampled_from(WANTED)))
            elif step == "unlink" and len(oids) > 2:
                twin.delete_object(draw(st.sampled_from(oids)))
            elif step == "indexes":
                for db in twin.dbs():
                    (drop_attribute_indexes if indexed
                     else restore_attribute_indexes)(db)
                indexed = not indexed
            elif step == "query":
                self.check(twin, draw)

    def check(self, twin, draw):
        scope = draw(st.sampled_from(SCOPES))
        conditions = draw(conditions_of)
        flags = {"include_annotations": draw(st.booleans()),
                 "include_system": draw(st.booleans())}
        visible = draw(st.sampled_from([None, odd_oids_only]))
        limit = draw(st.integers(1, 4))
        columns, want = twin.expected(scope, conditions, visible=visible,
                                      **flags)
        for m in twin.cats:
            for strategy in ("scan", "index", "auto"):
                got = search(m, scope, conditions, strategy=strategy,
                             visible=visible, **flags)
                assert (got.columns, got.rows) == (columns, want), strategy
                cut = search(m, scope, conditions, strategy=strategy,
                             visible=visible, limit=limit, **flags)
                assert cut.rows == want[:limit], strategy
            assert drain(m, scope, conditions, limit, visible=visible,
                         **flags) == (columns, want)


class TestProbeBoundaries:
    """Each comparison a sorted index answers, at, below and above a
    stored value, against the row-by-row plan."""

    @pytest.fixture
    def m(self):
        m = Mcat()
        m.create_collection("/demozone/c", OWNER, now=0.0)
        stored = [("1", "abc"), ("5", "ibis"), ("5.0", "ibis"), ("-0.0", ""),
                  ("10", "heron"), ("inf", "Ibis"), (None, None)]
        for i, (mag, species) in enumerate(stored):
            oid = m.create_object(f"/demozone/c/o{i}", "data", OWNER, now=0.0)
            m.add_metadata("object", oid, "mag", mag, by=OWNER, now=0.0)
            m.add_metadata("object", oid, "species", species, by=OWNER,
                           now=0.0)
        return m

    @pytest.mark.parametrize("op", ["=", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("attr, wanted", [
        ("mag", "5"), ("mag", "5.0"), ("mag", "0"), ("mag", "7"),
        ("mag", "inf"), ("mag", "-inf"), ("mag", "1e999"),
        ("species", "ibis"), ("species", "i"), ("species", ""),
        ("species", "zebra"), ("mag", "ibis"), ("species", "5")])
    def test_probe_equals_scan(self, m, op, attr, wanted):
        from repro.mcat.query import _Probe
        cond = Condition(attr, op, wanted)
        want = {row[0] for row in search(m, "/demozone/c", [cond],
                                         strategy="scan").rows}
        probe = _Probe(m.db.table("metadata"), cond)
        # a number asked of the text-only attribute is the one pair here
        # that needs the row-by-row test: every row is a text straggler
        assert (probe.span is None) == ((attr, wanted) == ("species", "5"))
        by_oid = {o["oid"]: o["path"]
                  for o in m.objects_in_collection("/demozone/c")}
        got = {by_oid[oid] for oid in probe.targets(m.db.table("metadata"))}
        assert got == want
        if probe.span is not None:
            assert probe.count == len(want)

    @pytest.mark.parametrize("op", OPS)
    def test_nan_is_never_probed_for(self, m, op):
        from repro.mcat.query import _Probe
        cond = Condition("mag", op, "nan")
        assert _Probe(m.db.table("metadata"), cond).span is None
        both(m, "/demozone/c", [cond])


class TestCountsPickThePlan:
    """The planner's choices, read off its own metrics and counters."""

    def build(self, objects=400):
        m = Mcat()
        m.create_collection("/demozone/big", OWNER, now=0.0)
        for i in range(objects):
            oid = m.create_object(f"/demozone/big/o{i:04d}", "data", OWNER,
                                  now=0.0)
            m.add_metadata("object", oid, "seq", str(i), by=OWNER, now=0.0)
            m.add_metadata("object", oid, "field", str(i % 40), by=OWNER,
                           now=0.0)
        return m

    def page_plans(self, m):
        return {plan for plan in ("index", "scan")
                if m.obs.metrics.get("mcat.queries", strategy="page",
                                       plan=plan)}

    def test_a_selective_condition_pages_off_the_index(self):
        m = self.build()
        page = search_page(m, "/demozone/big",
                           [Condition("field", "=", "7")], limit=5)
        assert len(page.rows) == 5 and page.next_cursor is not None
        assert self.page_plans(m) == {"index"}

    def test_a_broad_condition_pages_off_the_walk(self):
        m = self.build()
        page = search_page(m, "/demozone/big",
                           [Condition("seq", ">=", "10")], limit=5)
        assert len(page.rows) == 5
        assert self.page_plans(m) == {"scan"}

    def test_pages_off_the_index_chain_like_any_other(self):
        m = self.build()
        conditions = [Condition("field", "=", "7")]
        want = search(m, "/demozone/big", conditions, strategy="scan")
        assert len(want) == 10
        for limit in (3, 5, 10):
            assert drain(m, "/demozone/big", conditions, limit) == \
                (want.columns, want.rows)
        assert self.page_plans(m) == {"index"}

    def test_a_page_filled_mid_batch_resumes_after_its_last_row(self):
        m = Mcat()
        m.create_collection("/demozone/c", OWNER, now=0.0)
        for i, flag in enumerate(["y", "y", "n", "y", "y"]):
            oid = m.create_object(f"/demozone/c/o{i}", "data", OWNER, now=0.0)
            m.add_metadata("object", oid, "flag", flag, by=OWNER, now=0.0)
        # the walk's second batch is the last one, and the page fills on
        # its first row: the second row is still owed
        first = search_page(m, "/demozone/c", [Condition("flag", "<>", "n")],
                            limit=3)
        assert [r[0] for r in first.rows] == [
            "/demozone/c/o0", "/demozone/c/o1", "/demozone/c/o3"]
        assert first.next_cursor == "/demozone/c/o3"
        rest = search_page(m, "/demozone/c", [Condition("flag", "<>", "n")],
                           limit=3, cursor=first.next_cursor)
        assert [r[0] for r in rest.rows] == ["/demozone/c/o4"]
        assert rest.next_cursor is None

    def test_matched_counts_what_met_the_conditions_visible_or_not(self):
        m = self.build()

        def every_other(objs):
            return [i % 2 == 0 for i in range(len(objs))]

        for strategy in ("scan", "index"):
            got = search(m, "/demozone/big", [Condition("field", "=", "7")],
                         strategy=strategy, visible=every_other)
            assert len(got) == 5
        series = m.obs.metrics.series("mcat.query_rows_matched")
        assert sorted(series.values()) == [10, 10]

    def test_the_smallest_condition_drives(self):
        m = self.build()
        conditions = [Condition("seq", ">=", "0"),       # all 400 rows
                      Condition("field", "=", "7")]      # 10 rows
        for order in (conditions, conditions[::-1]):
            before = m._rows_scanned()
            got = search(m, "/demozone/big", order, strategy="index")
            assert len(got) == 10
            # ten probe rows, ten object rows, two triples each: the
            # 400-row condition is verified on the survivors, not probed
            assert m._rows_scanned() - before == 40

    def test_probing_goes_on_while_it_is_the_cheaper_step(self):
        m = self.build()
        before = m._rows_scanned()
        got = search(m, "/demozone/big",
                     [Condition("seq", "<", "200"),      # 200 rows
                      Condition("seq", ">=", "190")],    # 210 rows
                     strategy="index")
        assert len(got) == 10
        # 200 survivors cost 600 rows to fetch; the 210-row probe first
        assert m._rows_scanned() - before == 200 + 210 + 10 + 20

    def test_scope_is_a_subtree_not_a_spelling(self):
        m = Mcat()
        for coll in ("/demozone/a", "/demozone/ab"):
            m.create_collection(coll, OWNER, now=0.0)
            oid = m.create_object(f"{coll}/x", "data", OWNER, now=0.0)
            m.add_metadata("object", oid, "k", "v", by=OWNER, now=0.0)
        r = both(m, "/demozone/a", [Condition("k", "=", "v")])
        assert [row[0] for row in r.rows] == ["/demozone/a/x"]
        page = search_page(m, "/demozone/a", [Condition("k", "=", "v")])
        assert page.rows == r.rows and page.next_cursor is None

    def test_two_conditions_on_one_attribute_are_not_one_range(self):
        m = Mcat()
        m.create_collection("/demozone/c", OWNER, now=0.0)
        oid = m.create_object("/demozone/c/two-valued", "data", OWNER,
                              now=0.0)
        for value in ("1", "100"):
            m.add_metadata("object", oid, "JMAG", value, by=OWNER, now=0.0)
        r = both(m, "/demozone/c", [Condition("JMAG", ">=", "10"),
                                    Condition("JMAG", "<", "20")])
        assert [row[0] for row in r.rows] == ["/demozone/c/two-valued"]

    def test_no_probe_of_an_attribute_that_mixes_numbers_and_text(self):
        m = Mcat()
        m.create_collection("/demozone/c", OWNER, now=0.0)
        for name, value in (("n", "5"), ("t", "abc"), ("u", "1")):
            oid = m.create_object(f"/demozone/c/{name}", "data", OWNER,
                                  now=0.0)
            m.add_metadata("object", oid, "mixed", value, by=OWNER, now=0.0)
        # "abc" > "2" as text, 5 > 2 as numbers, 1 is neither
        r = both(m, "/demozone/c", [Condition("mixed", ">", "2")])
        assert [row[0] for row in r.rows] == ["/demozone/c/n",
                                              "/demozone/c/t"]
