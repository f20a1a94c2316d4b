"""The catalog's one subtree reader and its one rename, against the
whole-table scans and the in-place rename they replaced
(:mod:`tests.mcat.subtree_oracle`).

The reader (``Mcat._subtree_collections``, ``Mcat._subtree`` and the
requirements ``Mcat._renamed`` finds on the collections) selects the
rows the scans did.  A rename, in place or across partitions,
leaves every table as the old in-place rename did, except that the
requirements defined on the moved collections move with them, as the
old cross-partition copy moved them.  And a rename charges the rows of
the subtree, whatever the size of the catalog around it.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, \
    strategies as st

from repro.mcat import Mcat, ShardedMcat
from repro.util import paths
from tests.mcat.subtree_oracle import scan_rename, scan_subtree
from tests.mcat.test_rename_properties import build, tree

OWNER = "u@d"
ZONE = "demozone"
#: which collections carry a requirement (indexes into the sorted list)
requirements = st.lists(st.integers(0, 40), max_size=6)
#: fresh names for a rename's destination at the partition level
FRESH = [f"n{i}" for i in range(40)]

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def fill(spec, picks, mcat=None):
    """``build``'s catalog, plus a metadata triple on each object and a
    mandatory requirement on each picked collection.  Returns the
    catalog and its collections (``/z`` among them), sorted."""
    mcat, collections, objects = build(spec, mcat)
    colls = sorted(collections | {"/z"})
    for oid in objects.values():
        mcat.add_metadata("object", oid, "k", "v", by=OWNER, now=0.0)
    for i, pick in enumerate(picks):
        mcat.define_structural(colls[pick % len(colls)], f"A{i}",
                               mandatory=True)
    return mcat, colls


def partitions(cat):
    return [s.primary for s in cat.shards] if isinstance(cat, ShardedMcat) \
        else [cat]


def tables(cat):
    """Each table's live rows over every partition, as sorted reprs: a
    row keeps its ids when a rename moves it to another partition."""
    names = partitions(cat)[0].db.tables()
    return {name: sorted(repr(row) for part in partitions(cat)
                         for row in part.db.table(name).snapshot_rows()
                         if row is not None) for name in names}


def move_requirements(mcat, old, new):
    """What the cross-partition rename did, and the in-place one did not:
    the requirements on the moved collections follow them."""
    st_ = mcat.db.table("structural_meta")
    for rid in list(st_.scan()):
        path = st_.value(rid, "coll_path")
        if path == old or paths.is_ancestor(old, path):
            st_.update_row(rid, {"coll_path": paths.relocate(path, old,
                                                             new)})


class TestTheReaderSelectsWhatTheScansDid:
    @pytest.mark.parametrize("shards", [None, 4], ids=["Mcat", "K=4"])
    @SETTINGS
    @given(spec=tree, picks=requirements, at=st.integers(0, 40))
    def test_collections_objects_and_requirements(self, shards, spec,
                                                  picks, at):
        cat, colls = fill(spec, picks, None if shards is None
                          else ShardedMcat(zone="z", shards=shards))
        prefix = (colls + ["/"])[at % (len(colls) + 1)]
        for part in partitions(cat):
            want_colls, want_objs, want_structural = scan_subtree(part,
                                                                  prefix)
            assert [rid for _path, rid in part._subtree_collections(
                prefix)] == want_colls
            assert part._subtree(prefix, True) == want_objs
            assert sorted(rid for _t, rid, changes in part._renamed(
                prefix, "/elsewhere") if "coll_path" in changes) \
                == want_structural


class TestOneRename:
    @SETTINGS
    @given(spec=tree, picks=requirements, at=st.integers(0, 40),
           to=st.integers(0, 40))
    def test_in_place_is_the_oracle_and_the_requirements_move(
            self, spec, picks, at, to):
        cat, colls = fill(spec, picks)
        oracle, _colls = fill(spec, picks)
        old = colls[at % len(colls)]
        # a fresh name in a collection outside the moved subtree
        outside = [c for c in colls + ["/"]
                   if c != old and not paths.is_ancestor(old, c)]
        new = outside[to % len(outside)].rstrip("/") + "/moved"
        assert cat.rename_subtree(old, new) == scan_rename(oracle, old, new)
        move_requirements(oracle, old, new)
        for name in cat.db.tables():
            assert cat.db.table(name).snapshot_rows() == \
                oracle.db.table(name).snapshot_rows(), name

    @pytest.mark.parametrize("cross", [False, True],
                             ids=["same-partition", "cross-partition"])
    @SETTINGS
    @given(spec=tree, picks=requirements, at=st.integers(0, 40))
    def test_sharded_is_the_oracle_and_the_requirements_move(
            self, cross, spec, picks, at):
        cat, colls = fill(spec, picks, ShardedMcat(zone="z", shards=4))
        oracle, _colls = fill(spec, picks, ShardedMcat(zone="z", shards=4))
        # below the partition level: a sharded catalog refuses the rest
        movable = [c for c in colls if paths.depth(c) >= 2]
        assume(movable)
        old = movable[at % len(movable)]
        src = cat.shard_of_path(old)
        new = next(f"/z/{name}" for name in FRESH
                   if (cat.shard_of_path(f"/z/{name}") != src) == cross)
        source = oracle.shards[src].primary
        assert cat.rename_subtree(old, new) == scan_rename(source, old, new)
        move_requirements(source, old, new)
        assert tables(cat) == tables(oracle)


class TestRenameCost:
    def rows_to_rename(self, elsewhere):
        """Rows charged to rename a 10-object collection in a catalog
        holding ``elsewhere`` more objects."""
        m = Mcat(zone=ZONE)
        for coll in ("moving", "other"):
            m.create_collection(f"/{ZONE}/{coll}", OWNER, now=0.0)
        for coll, n in (("moving", 10), ("other", elsewhere)):
            m.create_objects([{"path": f"/{ZONE}/{coll}/f{i}",
                               "kind": "data"} for i in range(n)],
                             OWNER, now=0.0)
        before = m.obs.metrics.total("mcat.rows_scanned")
        assert m.rename_subtree(f"/{ZONE}/moving", f"/{ZONE}/moved") == 11
        return m.obs.metrics.total("mcat.rows_scanned") - before

    def test_a_rename_charges_its_subtree_not_the_catalog(self):
        # the whole-table scans charged every collection and object:
        # 314 rows, then 3,014; the one reader charges the moving
        # collection's row and its 10 objects', and the destination's
        # parent, which the rename checks exists
        assert self.rows_to_rename(300) == self.rows_to_rename(3000) == 12
