"""Cursor-paged catalog queries: ``search_page``,
``objects_in_collection_page`` and their sharded fan-out+merge variants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mcat import Mcat, ShardedMcat
from repro.mcat.query import Condition, DisplayOnly, search, search_page
from repro.util.clock import SimClock

OWNER = "sekar@sdsc"
ZONE = "demozone"
SCOPE = f"/{ZONE}/proj"


def seed(m, projects=("alpha", "beta", "gamma"), objs=9):
    """The same dataset on any Mcat-shaped catalog."""
    m.create_collection(SCOPE, OWNER, now=0.0)
    for proj in projects:
        m.create_collection(f"{SCOPE}/{proj}", OWNER, now=0.0)
        for i in range(objs):
            oid = m.create_object(f"{SCOPE}/{proj}/f{i}", "data", OWNER,
                                  now=0.0, size=100 + i)
            m.add_metadata("object", oid, "proj", proj, by=OWNER, now=0.0)
            m.add_metadata("object", oid, "parity",
                           "even" if i % 2 == 0 else "odd",
                           by=OWNER, now=0.0)
    return m


@pytest.fixture(params=["plain", "sharded", "one-shard"])
def mcat(request):
    if request.param == "plain":
        return seed(Mcat(zone=ZONE, clock=SimClock()))
    return seed(ShardedMcat(zone=ZONE, clock=SimClock(),
                            shards=4 if request.param == "sharded" else 1))


def drain_search(m, conditions, limit, **kw):
    rows, cursor, pages = [], None, 0
    while True:
        page = search_page(m, SCOPE, conditions, limit=limit, cursor=cursor,
                           **kw)
        assert len(page.rows) <= limit
        rows.extend(page.rows)
        pages += 1
        cursor = page.next_cursor
        if cursor is None:
            return rows, pages


QUERIES = [
    [Condition("parity", "=", "even"), DisplayOnly("proj")],
    [DisplayOnly("proj")],
    [Condition("proj", "=", "beta")],
    [Condition("proj", "like", "%a"), Condition("parity", "<>", "even")],
]


class TestSearchPage:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(conds=st.sampled_from(QUERIES), limit=st.integers(1, 30),
           refused=st.integers(2, 5))
    def test_parity_with_search(self, mcat, conds, limit, refused):
        """``search`` is the drained pages, whatever their size, with a
        filter that refuses every ``refused``-th oid."""
        def visible(objs):
            return [obj["oid"] % refused != 0 for obj in objs]
        full = search(mcat, SCOPE, conds, visible=visible)
        paged, _pages = drain_search(mcat, conds, limit, visible=visible)
        assert paged == full.rows

    def test_rows_path_ordered_no_dups(self, mcat):
        rows, _pages = drain_search(mcat, [DisplayOnly("proj")], limit=5)
        paths = [r[0] for r in rows]
        assert paths == sorted(paths)
        assert len(paths) == len(set(paths)) == 27

    def test_columns_match_search(self, mcat):
        conds = [Condition("proj", "=", "alpha")]
        assert (search_page(mcat, SCOPE, conds, limit=3).columns
                == search(mcat, SCOPE, conds).columns)

    def test_exact_fit_ends_cleanly(self, mcat):
        # 27 hits in pages of 9: page 3 must carry next_cursor None
        _rows, pages = drain_search(mcat, [DisplayOnly("proj")], limit=9)
        assert pages == 3

    def test_selective_filter_fills_pages(self, mcat):
        # 'even' matches 5 of every 9 objects: pages still fill to limit
        page = search_page(mcat, SCOPE, [Condition("parity", "=", "even")],
                           limit=10)
        assert len(page.rows) == 10
        assert page.next_cursor is not None


class TestObjectsPage:
    def test_parity_with_enumerator(self, mcat):
        full = [o["path"] for o in
                mcat.objects_in_collection(SCOPE, recursive=True)]
        rows, cursor = [], None
        while True:
            batch, cursor = mcat.objects_in_collection_page(
                SCOPE, cursor=cursor, limit=4)
            rows.extend(o["path"] for o in batch)
            if cursor is None:
                break
        assert rows == sorted(full)

    def test_non_recursive_skips_nested(self, mcat):
        batch, cursor = mcat.objects_in_collection_page(
            SCOPE, limit=100, recursive=False)
        assert batch == [] and cursor is None   # objects live one level down
        batch, cursor = mcat.objects_in_collection_page(
            f"{SCOPE}/alpha", limit=100, recursive=False)
        assert len(batch) == 9 and cursor is None


class TestPageCharging:
    def test_page_cost_o_page_not_o_subtree(self):
        m = Mcat(zone=ZONE, clock=SimClock())
        m.create_collection(SCOPE, OWNER, now=0.0)
        m.create_objects([{"path": f"{SCOPE}/f{i:05d}", "kind": "data"}
                          for i in range(3000)], OWNER, now=0.0)
        before = m.busy_s
        m.objects_in_collection_page(SCOPE, limit=10)
        page_cost = m.busy_s - before
        before = m.busy_s
        m.objects_in_collection(SCOPE, recursive=True)
        full_cost = m.busy_s - before
        assert page_cost < full_cost / 20

    def test_sharded_page_bounded_per_shard(self):
        m = seed(ShardedMcat(zone=ZONE, clock=SimClock(), shards=4),
                 objs=50)
        busy_before = m.busy_s
        page = search_page(m, SCOPE, [DisplayOnly("proj")], limit=10)
        busy_page = m.busy_s - busy_before
        assert len(page.rows) == 10
        busy_before = m.busy_s
        search(m, SCOPE, [DisplayOnly("proj")])
        busy_full = m.busy_s - busy_before
        # every shard serves O(page) per fetch vs the full fan-out scan
        assert busy_page < busy_full / 2
