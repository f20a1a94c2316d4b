"""A read replica charges a read as its primary does, whatever reads came
before: it learns each collection's row id when the insert is applied,
as the primary does when it inserts, and forgets it with the delete.

Renames are left out: a rename empties both caches, and the reads after
it warm only the copy that serves them, so the two can still differ
(CHANGES.md, the ``FOUND:`` line on ``rename_subtree``)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SrbError
from repro.mcat import ShardedMcat

OWNER = "sekar@sdsc"
PATHS = ("/demozone/a", "/demozone/a/b", "/demozone/c", "/demozone/a/b/d")
READS = ("get_collection", "lookup", "queryable_attributes")

steps = st.lists(st.tuples(
    st.sampled_from(("mkcoll", "rmcoll", "object") + READS),
    st.sampled_from(PATHS)), max_size=12)


def apply(m, kind, path):
    """One write, or one read the catalog routes to a replica."""
    try:
        if kind == "mkcoll":
            m.create_collection(path, OWNER, now=0.0)
        elif kind == "rmcoll":
            m.remove_collection(path)
        elif kind == "object":
            m.create_object(f"{path}/f", "data", OWNER, now=0.0)
        else:
            getattr(m, kind)(path)
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


@pytest.mark.parametrize("shards", [1, 2])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=steps)
def test_the_same_read_charges_the_same_rows_on_replica_and_primary(
        shards, steps):
    m = ShardedMcat(shards=shards, replicas=1)
    for kind, path in steps:
        apply(m, kind, path)
        for probe in PATHS:
            k = m.shard_of_path(probe)
            replica = m._read(k)        # caught up with its primary
            for op in READS:
                assert charged(m.shards[k].primary, op, probe) == \
                    charged(replica, op, probe), (op, probe)


def test_a_new_collection_is_known_to_the_replica_at_once():
    m = ShardedMcat(shards=1, replicas=1)
    m.create_collection("/demozone/x", OWNER, now=0.0)
    replica = m._read(0)
    assert charged(replica, "get_collection", "/demozone/x") == \
        charged(m.shards[0].primary, "get_collection", "/demozone/x") == 0
