"""Unit tests for ACL evaluation (permission ladder, inheritance, groups,
roles, public access)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.auth.users import PUBLIC, Principal, UserRegistry
from repro.core.access import AccessController, satisfies
from repro.errors import AccessDenied
from repro.mcat import Mcat

SEKAR = Principal.parse("sekar@sdsc")
MOORE = Principal.parse("moore@sdsc")
WAN = Principal.parse("mwan@sdsc")


@pytest.fixture
def env():
    mcat = Mcat()
    users = UserRegistry()
    for p in ("sekar@sdsc", "moore@sdsc", "mwan@sdsc"):
        users.add_user(p, "pw")
    mcat.create_collection("/demozone/cultures", str(SEKAR), now=0.0)
    mcat.create_collection("/demozone/cultures/avian", str(SEKAR), now=0.0)
    oid = mcat.create_object("/demozone/cultures/avian/ibis.jpg", "data",
                             str(SEKAR), now=0.0)
    return mcat, users, AccessController(mcat, users), oid


class TestLadder:
    def test_levels_imply_weaker(self):
        assert satisfies("own", "write")
        assert satisfies("write", "read")
        assert satisfies("own", "read")

    def test_weaker_does_not_imply_stronger(self):
        assert not satisfies("read", "write")
        assert not satisfies("write", "own")

    def test_read_implies_annotate(self):
        # "annotations can be inserted by any user with a read permission"
        assert satisfies("read", "annotate")
        assert satisfies("annotate", "annotate")
        assert not satisfies("annotate", "write")


class TestOwnership:
    def test_owner_has_own(self, env):
        mcat, users, ac, oid = env
        obj = mcat.get_object_by_id(oid)
        assert ac.permission_on_object(SEKAR, obj) == "own"

    def test_stranger_has_nothing(self, env):
        mcat, users, ac, oid = env
        obj = mcat.get_object_by_id(oid)
        assert ac.permission_on_object(MOORE, obj) is None

    def test_collection_owner(self, env):
        mcat, users, ac, oid = env
        assert ac.permission_on_collection(SEKAR, "/demozone/cultures") == "own"


class TestObjectGrants:
    def test_direct_grant(self, env):
        mcat, users, ac, oid = env
        mcat.grant("object", oid, str(MOORE), "read")
        obj = mcat.get_object_by_id(oid)
        assert ac.permission_on_object(MOORE, obj) == "read"

    def test_require_raises_on_insufficient(self, env):
        mcat, users, ac, oid = env
        mcat.grant("object", oid, str(MOORE), "read")
        obj = mcat.get_object_by_id(oid)
        with pytest.raises(AccessDenied):
            ac.require_object(MOORE, obj, "write")

    def test_require_passes_on_sufficient(self, env):
        mcat, users, ac, oid = env
        mcat.grant("object", oid, str(MOORE), "write")
        obj = mcat.get_object_by_id(oid)
        ac.require_object(MOORE, obj, "read")

    def test_denial_counted(self, env):
        mcat, users, ac, oid = env
        obj = mcat.get_object_by_id(oid)
        with pytest.raises(AccessDenied):
            ac.require_object(MOORE, obj, "read")
        assert ac.denials == 1


class TestInheritance:
    def test_collection_grant_covers_cone(self, env):
        mcat, users, ac, oid = env
        cid = mcat.get_collection("/demozone/cultures")["cid"]
        mcat.grant("collection", cid, str(MOORE), "read")
        obj = mcat.get_object_by_id(oid)          # two levels below
        assert ac.permission_on_object(MOORE, obj) == "read"

    def test_nearer_stronger_grant_wins(self, env):
        mcat, users, ac, oid = env
        top = mcat.get_collection("/demozone/cultures")["cid"]
        sub = mcat.get_collection("/demozone/cultures/avian")["cid"]
        mcat.grant("collection", top, str(MOORE), "read")
        mcat.grant("collection", sub, str(MOORE), "write")
        obj = mcat.get_object_by_id(oid)
        assert ac.permission_on_object(MOORE, obj) == "write"

    def test_object_grant_beats_weak_collection_grant(self, env):
        mcat, users, ac, oid = env
        top = mcat.get_collection("/demozone/cultures")["cid"]
        mcat.grant("collection", top, str(MOORE), "read")
        mcat.grant("object", oid, str(MOORE), "own")
        obj = mcat.get_object_by_id(oid)
        assert ac.permission_on_object(MOORE, obj) == "own"

    def test_collection_permission_on_subcollection(self, env):
        mcat, users, ac, oid = env
        top = mcat.get_collection("/demozone/cultures")["cid"]
        mcat.grant("collection", top, str(MOORE), "write")
        assert ac.permission_on_collection(
            MOORE, "/demozone/cultures/avian") == "write"


class TestGroups:
    def test_group_grant(self, env):
        mcat, users, ac, oid = env
        users.create_group("curators")
        users.add_to_group("curators", str(MOORE))
        mcat.grant("object", oid, "group:curators", "write")
        obj = mcat.get_object_by_id(oid)
        assert ac.permission_on_object(MOORE, obj) == "write"
        assert ac.permission_on_object(WAN, obj) is None

    def test_leaving_group_loses_access(self, env):
        mcat, users, ac, oid = env
        users.create_group("g")
        users.add_to_group("g", str(MOORE))
        mcat.grant("object", oid, "group:g", "read")
        users.remove_from_group("g", str(MOORE))
        obj = mcat.get_object_by_id(oid)
        assert ac.permission_on_object(MOORE, obj) is None


class TestPublicAndRoles:
    def test_star_grant_covers_everyone(self, env):
        mcat, users, ac, oid = env
        mcat.grant("object", oid, "*", "read")
        obj = mcat.get_object_by_id(oid)
        assert ac.permission_on_object(PUBLIC, obj) == "read"
        assert ac.permission_on_object(MOORE, obj) == "read"

    def test_public_principal_grant(self, env):
        mcat, users, ac, oid = env
        mcat.grant("object", oid, str(PUBLIC), "read")
        obj = mcat.get_object_by_id(oid)
        assert ac.permission_on_object(PUBLIC, obj) == "read"

    def test_public_cannot_write_with_read_grant(self, env):
        mcat, users, ac, oid = env
        mcat.grant("object", oid, "*", "read")
        obj = mcat.get_object_by_id(oid)
        with pytest.raises(AccessDenied):
            ac.require_object(PUBLIC, obj, "write")

    def test_sysadmin_owns_everything(self, env):
        mcat, users, ac, oid = env
        users.add_user("root@sdsc", "pw", role="sysadmin")
        obj = mcat.get_object_by_id(oid)
        root = Principal.parse("root@sdsc")
        assert ac.permission_on_object(root, obj) == "own"
        assert ac.permission_on_collection(root, "/demozone/cultures") == "own"

    def test_unknown_principal_is_just_denied(self, env):
        mcat, users, ac, oid = env
        ghost = Principal.parse("ghost@nowhere")
        obj = mcat.get_object_by_id(oid)
        assert ac.permission_on_object(ghost, obj) is None

    def test_can_helpers(self, env):
        mcat, users, ac, oid = env
        obj = mcat.get_object_by_id(oid)
        assert ac.can_objects(SEKAR, [obj], "own") == [True]
        assert ac.can_objects(MOORE, [obj], "read") == [False]
        assert ac.can_collection(SEKAR, "/demozone/cultures", "write")


class TestBatchDecision:
    """``can_objects`` decides a listing at once; what it decides is what
    ``permission_on_object`` says row by row, and what it asks the catalog
    does not grow with the rows."""

    COLLS = ["/demozone/cultures", "/demozone/cultures/avian",
             "/demozone/open"]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_verdicts_as_row_by_row(self, data):
        draw = data.draw
        mcat, users = Mcat(), UserRegistry()
        for p in ("sekar@sdsc", "moore@sdsc", "mwan@sdsc"):
            users.add_user(p, "pw")
        users.add_user("root@sdsc", "pw", role="sysadmin")
        users.create_group("curators")
        users.add_to_group("curators", "mwan@sdsc")
        ac = AccessController(mcat, users)
        principals = ["moore@sdsc", "mwan@sdsc", "group:curators", "*",
                      "public@srb"]
        cids = {c: mcat.create_collection(c, str(SEKAR), now=0.0)
                for c in self.COLLS}
        objs = []
        for i in range(draw(st.integers(1, 8))):
            owner = draw(st.sampled_from(["sekar@sdsc", "moore@sdsc"]))
            oid = mcat.create_object(
                f"{draw(st.sampled_from(self.COLLS))}/o{i}", "data", owner,
                now=0.0)
            objs.append(mcat.get_object_by_id(oid))
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(["object", "collection"]))
            target = draw(st.sampled_from(objs))["oid"] if kind == "object" \
                else cids[draw(st.sampled_from(self.COLLS))]
            mcat.grant(kind, target, draw(st.sampled_from(principals)),
                       draw(st.sampled_from(["read", "annotate", "write",
                                             "own"])))
        who = Principal.parse(draw(st.sampled_from(
            ["sekar@sdsc", "moore@sdsc", "mwan@sdsc", "root@sdsc",
             "ghost@nowhere"])))
        wanted = draw(st.sampled_from(["read", "annotate", "write", "own"]))
        row_by_row = []
        for obj in objs:
            held = ac.permission_on_object(who, obj)
            row_by_row.append(held is not None and satisfies(held, wanted))
        checks = ac.checks
        assert ac.can_objects(who, objs, wanted) == row_by_row
        assert ac.checks - checks == len(objs)
        assert ac.can_objects(who, [], wanted) == []

    def test_catalog_ops_do_not_grow_with_the_rows(self, env):
        mcat, users, ac, _oid = env
        mcat.grant("collection",
                   mcat.get_collection("/demozone/cultures")["cid"],
                   str(MOORE), "read")

        def ops_for(n):
            rows = [mcat.get_object_by_id(mcat.create_object(
                f"/demozone/cultures/avian/b{n}-{i}", "data", str(SEKAR),
                now=0.0)) for i in range(n)]
            out = {}
            for who, wanted in ((SEKAR, "own"), (MOORE, "read"),
                                (MOORE, "write"), (WAN, "read")):
                before = mcat.obs.metrics.total("mcat.ops")
                ac.can_objects(who, rows, wanted)
                out[str(who), wanted] = \
                    mcat.obs.metrics.total("mcat.ops") - before
            return out

        few, many = ops_for(3), ops_for(300)
        assert few == many
        # the owner costs the catalog nothing; an inherited grant costs the
        # chain of four collections (a row and its grants each); whoever
        # that does not settle costs one more op for every row's own grants
        assert few == {(str(SEKAR), "own"): 0, (str(MOORE), "read"): 8,
                       (str(MOORE), "write"): 9, (str(WAN), "read"): 9}
