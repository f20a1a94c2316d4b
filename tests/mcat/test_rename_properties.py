"""Property tests for subtree renames (the migration/move primitive)."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mcat import Mcat

OWNER = "u@d"

names = st.sampled_from(["a", "b", "c", "d"])
tree = st.lists(st.lists(names, min_size=1, max_size=3), min_size=1,
                max_size=6)


def build(paths_spec, mcat=None):
    """Fill a catalog (a new ``Mcat`` of zone ``z`` by default) with
    collections/objects from component lists."""
    mcat = Mcat(zone="z") if mcat is None else mcat
    collections = set()
    objects = {}
    for comps in paths_spec:
        # all but the last component are collections; last is an object
        coll = "/z"
        ok = True
        for c in comps[:-1]:
            coll = f"{coll}/{c}"
            if coll in objects:
                ok = False
                break
            if coll not in collections:
                mcat.create_collection(coll, OWNER, now=0.0)
                collections.add(coll)
        if not ok:
            continue
        opath = f"{coll}/{comps[-1]}"
        if opath in objects or opath in collections:
            continue
        oid = mcat.create_object(opath, "data", OWNER, now=0.0)
        objects[opath] = oid
    return mcat, collections, objects


class TestRenameProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tree)
    def test_rename_preserves_object_population(self, spec):
        mcat, collections, objects = build(spec)
        mcat.create_collection("/z/dst", OWNER, now=0.0)
        count_before = mcat.total_objects()
        mcat.rename_subtree("/z", "/z2")
        # every object still exists exactly once, under the new prefix
        assert mcat.total_objects() == count_before
        for opath, oid in objects.items():
            moved = "/z2" + opath[len("/z"):]
            assert mcat.get_object(moved)["oid"] == oid
            assert mcat.find_object(opath) is None

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tree)
    def test_rename_roundtrip_is_identity(self, spec):
        mcat, collections, objects = build(spec)
        before = sorted(
            (row["path"], row["oid"])
            for row in mcat.objects_in_collection("/z", recursive=True))
        mcat.rename_subtree("/z", "/tmp-zone")
        mcat.rename_subtree("/tmp-zone", "/z")
        after = sorted(
            (row["path"], row["oid"])
            for row in mcat.objects_in_collection("/z", recursive=True))
        assert before == after

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tree)
    def test_parent_pointers_consistent_after_rename(self, spec):
        mcat, collections, objects = build(spec)
        mcat.rename_subtree("/z", "/z9")
        from repro.util import paths as P
        for row in mcat._collections.row_dicts(
                [rid for _path, rid in mcat._subtree_collections("/z9")]):
            if row["path"] == "/z9":
                continue
            assert row["parent"] == P.dirname(row["path"])
            assert "cid" in mcat.lookup(row["parent"])
