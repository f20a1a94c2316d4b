"""Two catalogs in the same state charge the same rows for the same
read, whatever reads came before: a primary, its caught-up replica, and
a copy restored from a dump of it (``import_catalog(export_catalog(...))``)
each look a collection up by its path index, so none of them charges a
read by what it happened to read before.  Renames are included, in
place and across partitions."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SrbError
from repro.mcat import ShardedMcat
from repro.mcat.dump import export_catalog, import_catalog

OWNER = "sekar@sdsc"
PATHS = ("/demozone/a", "/demozone/a/b", "/demozone/c", "/demozone/a/b/d",
         "/demozone/z", "/demozone/e")
READS = ("get_collection", "lookup", "queryable_attributes")
#: on two partitions "a", "c" and "z" key partition 1 and "e" partition
#: 0, so a -> z renames in place and c <-> e across partitions
RENAMES = (("/demozone/a", "/demozone/z"), ("/demozone/z", "/demozone/a"),
           ("/demozone/c", "/demozone/e"), ("/demozone/e", "/demozone/c"),
           ("/demozone/a/b", "/demozone/a/y"))

steps = st.lists(st.one_of(
    st.tuples(st.sampled_from(("mkcoll", "rmcoll", "object") + READS),
              st.sampled_from(PATHS)),
    st.tuples(st.just("rename"), st.sampled_from(RENAMES))), max_size=12)


def apply(m, kind, arg):
    """One write, or one read the catalog routes to a replica."""
    try:
        if kind == "mkcoll":
            m.create_collection(arg, OWNER, now=0.0)
        elif kind == "rmcoll":
            m.remove_collection(arg)
        elif kind == "object":
            m.create_object(f"{arg}/f", "data", OWNER, now=0.0)
        elif kind == "rename":
            old, new = arg
            if m.lookup(old) is not None and m.lookup(new) is None:
                m.rename_subtree(old, new)
        else:
            getattr(m, kind)(arg)
    except SrbError:
        pass


def charged(catalog, op, path):
    """Rows one read charges on one copy of the catalog."""
    before = catalog._rows_scanned()
    try:
        getattr(catalog, op)(path)
    except SrbError:
        pass
    return catalog._rows_scanned() - before


def restored(m):
    return import_catalog(export_catalog(*(s.primary for s in m.shards)))


@pytest.mark.parametrize("shards", [1, 2])
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=steps)
def test_the_same_read_charges_the_same_rows_on_replica_and_primary(
        shards, steps):
    # the copies are compared once, at the end: a probe is a read too, and
    # reading every path on every copy after each step would give them
    # the same history, which is the one thing that must not matter
    m = ShardedMcat(shards=shards, replicas=1)
    for kind, arg in steps:
        apply(m, kind, arg)
    copy = restored(m)
    for probe in PATHS:
        k = m.shard_of_path(probe)
        replica = m._read(k)            # caught up with its primary
        for op in READS:
            rows = charged(m.shards[k].primary, op, probe)
            assert charged(replica, op, probe) == rows, (op, probe)
            assert charged(copy.shards[k].primary, op, probe) == rows, \
                (op, probe)


def test_a_new_collection_is_known_to_the_replica_at_once():
    m = ShardedMcat(shards=1, replicas=1)
    m.create_collection("/demozone/x", OWNER, now=0.0)
    replica = m._read(0)
    assert charged(replica, "get_collection", "/demozone/x") == \
        charged(m.shards[0].primary, "get_collection", "/demozone/x")


def test_a_read_after_a_rename_charges_alike_on_replica_and_primary():
    # a rename emptied a path cache that only reads warmed again, so the
    # read below charged 0 rows on the replica, which had served it
    # before, and 1 on the primary, which had not
    m = ShardedMcat(shards=1, replicas=1)
    for path in ("/demozone/a", "/demozone/c"):
        m.create_collection(path, OWNER, now=0.0)
    m.rename_subtree("/demozone/a", "/demozone/z")
    m.get_collection("/demozone/c")             # served by the replica
    replica = m._read(0)
    assert charged(replica, "get_collection", "/demozone/c") == \
        charged(m.shards[0].primary, "get_collection", "/demozone/c") == 1
