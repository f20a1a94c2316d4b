"""Property: cursor pagination is stable under concurrent mutation.

A keyset scan interleaved with inserts and deletes must deliver every
row that existed for the *whole* scan exactly once — no duplicates, no
skips — because the cursor is a path position, not an offset (an
offset cursor shifts when rows before it appear or vanish).  Checked on
the plain catalog and across a four-way sharded one, whose pages are a
fan-out+merge over per-shard keyset scans.
"""

from hypothesis import given, settings, strategies as st

from repro.mcat import Mcat, ShardedMcat
from repro.util.clock import SimClock

OWNER = "sekar@sdsc"
ZONE = "demozone"
COLL = f"/{ZONE}/scan"

INITIAL_POOL = [f"f{i:02d}" for i in range(30)]
INSERT_POOL = [f"g{i:02d}" for i in range(30)]


def build(kind, names):
    m = (Mcat(zone=ZONE, clock=SimClock()) if kind == "plain"
         else ShardedMcat(zone=ZONE, clock=SimClock(),
                          shards=4 if kind == "sharded" else 1))
    m.create_collection(COLL, OWNER, now=0.0)
    oids = {}
    for name in sorted(names):
        oids[name] = m.create_object(f"{COLL}/{name}", "data", OWNER,
                                     now=0.0)
    return m, oids


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["plain", "sharded", "one-shard"]),
    initial=st.sets(st.sampled_from(INITIAL_POOL), min_size=4, max_size=20),
    page_size=st.integers(min_value=1, max_value=6),
    mutations=st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]),
                  st.integers(min_value=0, max_value=29)),
        max_size=12),
)
def test_stable_rows_delivered_exactly_once(kind, initial, page_size,
                                            mutations):
    m, oids = build(kind, initial)
    mutations = list(mutations)
    inserted = set()
    survivors = set(initial)     # rows present from scan start to end

    seen, cursor = [], None
    while True:
        batch, cursor = m.objects_in_collection_page(
            COLL, cursor=cursor, limit=page_size)
        seen.extend(o["path"] for o in batch)
        if cursor is None:
            break
        # interleave one mutation between page fetches
        if mutations:
            op, idx = mutations.pop(0)
            if op == "insert":
                name = INSERT_POOL[idx]
                if name not in inserted:
                    oids[name] = m.create_object(f"{COLL}/{name}", "data",
                                                 OWNER, now=1.0)
                    inserted.add(name)
            else:
                name = INITIAL_POOL[idx]
                if name in survivors:
                    m.delete_object(oids[name])
                    survivors.discard(name)

    # no path is ever delivered twice (the cursor is strictly monotone)
    assert len(seen) == len(set(seen))
    assert seen == sorted(seen)
    # every row that existed for the whole scan arrived exactly once
    stable = {f"{COLL}/{name}" for name in survivors}
    assert stable <= set(seen)
    # nothing outside the union of initial+inserted ever appears
    legal = {f"{COLL}/{n}" for n in set(initial) | inserted}
    assert set(seen) <= legal


def hidden_every_third(objs):
    """A visibility filter in the shape the metadata plane passes to the
    query engine: object rows in, one verdict per row out."""
    return [int(obj["name"][1:]) % 3 != 0 for obj in objs]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["plain", "sharded", "one-shard"]),
    initial=st.sets(st.sampled_from(INITIAL_POOL), min_size=4, max_size=20),
    page_size=st.integers(min_value=1, max_value=6),
    tagged=st.booleans(),
    mutations=st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]),
                  st.integers(min_value=0, max_value=29)),
        max_size=12),
)
def test_query_pages_deliver_each_stable_visible_row_once(
        kind, initial, page_size, tagged, mutations):
    """The same contract one level up, with the ACL filter inside the
    page: ``search_page`` closes a page at ``page_size`` *visible*
    matches and its cursor is the last row delivered, so hiding rows
    neither skips nor repeats a visible one — whether the page comes off
    the walk (no condition) or, mostly, off the attribute index (a
    condition few objects meet: ``tagged``)."""
    from repro.mcat.query import Condition, search_page
    m, oids = build(kind, initial)
    conditions = [Condition("tag", "=", "yes")] if tagged else []

    def matches(name):
        return not tagged or int(name[1:]) % 7 == 1

    def tag(name, now):
        if tagged and matches(name):
            m.add_metadata("object", oids[name], "tag", "yes", by=OWNER,
                           now=now)

    for name in oids:
        tag(name, 0.0)
    mutations = list(mutations)
    inserted = set()
    survivors = set(initial)

    seen, cursor = [], None
    while True:
        page = search_page(m, COLL, conditions, limit=page_size,
                           cursor=cursor, visible=hidden_every_third)
        assert len(page.rows) <= page_size
        seen.extend(row[0] for row in page.rows)
        cursor = page.next_cursor
        if cursor is None:
            break
        # a page that promises more was full: hidden rows do not count
        assert len(page.rows) == page_size
        if mutations:
            op, idx = mutations.pop(0)
            if op == "insert":
                name = INSERT_POOL[idx]
                if name not in inserted:
                    oids[name] = m.create_object(f"{COLL}/{name}", "data",
                                                 OWNER, now=1.0)
                    tag(name, 1.0)
                    inserted.add(name)
            else:
                name = INITIAL_POOL[idx]
                if name in survivors:
                    m.delete_object(oids[name])
                    survivors.discard(name)

    def shown(names):
        return {f"{COLL}/{n}" for n in names
                if matches(n) and int(n[1:]) % 3 != 0}

    assert len(seen) == len(set(seen))
    assert seen == sorted(seen)
    assert shown(survivors) <= set(seen)
    assert set(seen) <= shown(set(initial) | inserted)
