"""Cross-zone policy, checked against the whole dispatch registry.

Rather than spot-checking a handful of operations, these tests walk every
registered op that takes a subject path and assert the declarative zone
policy holds uniformly: *forwardable* reads on a foreign-zone path
execute at the peer zone's MCAT server (its ``ops_served`` advances, ours
does not), and *writes* refuse the foreign path with
``UnsupportedOperation`` before any work happens in either zone.

The op list is static so pytest can parametrize at collection time; a
completeness test pins it to the live registry, so adding an op without
classifying it here fails loudly.
"""

import inspect

import pytest

from repro.core import Federation, SrbClient
from repro.errors import SrbError, UnsupportedOperation
from repro.net.simnet import Network

FOREIGN_FILE = "/npaci-zone/pub/report.txt"
FOREIGN_COLL = "/npaci-zone/pub"

#: Every registered op with a scope argument (see test_list_is_complete).
SCOPED_OPS = [
    "add_annotation", "add_metadata", "annotations", "checkin", "checkout",
    "compact_container", "container_garbage", "copy", "copy_metadata",
    "create_container", "define_structural", "delete", "delete_metadata",
    "extract_metadata", "get", "get_metadata", "get_version", "grant",
    "ingest", "ingest_replica", "link", "list_collection",
    "list_collection_page", "lock",
    "migrate_collection", "mkcoll", "move", "open_object", "physical_move",
    "pin", "put",
    "query", "query_page", "queryable_attrs", "register_directory",
    "register_file",
    "register_method", "register_replica", "register_sql", "register_url",
    "replicate", "revoke", "rmcoll", "stat", "structural_metadata",
    "sync_container", "synchronize", "unlock", "unpin", "update_metadata",
    "verify_checksums", "versions",
]

#: Ops that run other ops through their own plans at the server that
#: serves them, and how many: each of those counts as served there too
#: (``open_object`` of a data file: stat, get_metadata, annotations, get).
NESTED_OPS = {"open_object": 4}

#: The ops that take no subject path and therefore never zone-check.
UNSCOPED_OPS = {"auth_challenge", "auth_login", "bulk_ingest", "bulk_get",
                "bulk_query_metadata", "audit_log"}

#: Filler values for required non-scope parameters.  Writes raise before
#: the handler ever sees them; reads reach the peer, which may still
#: reject them (any SrbError there proves the call was forwarded).
FILLERS = {
    "dst": "/npaci-zone/pub/copy-dst.txt",
    "target": "/outside/elsewhere",
    "data": b"x",
    "conditions": [],
    "mid": 1,
    "version_num": 1,
    "resource": "a-disk",
    "physical_path": "/outside/x",
    "physical_dir": "/outside/dir",
    "sql": "SELECT x FROM t",
    "url": "http://example.org/r",
    "server": "a-srb",
    "command": "srbps",
    "attr": "series",
    "value": "v",
    "method": "m",
    "logical_resource": "a-disk",
    "principal_str": "sekar@sdsc",
    "permission": "read",
    "ann_type": "note",
    "text": "t",
}


@pytest.fixture
def zones():
    """Two federated zones; sekar@sdsc (zone A) may read zone B's pub."""
    net = Network()
    a = Federation(zone="sdsc-zone", network=net)
    b = Federation(zone="npaci-zone", network=net)
    a.add_host("a-host")
    b.add_host("b-host")
    a.add_server("a-srb", "a-host", mcat=True)
    b.add_server("b-srb", "b-host", mcat=True)
    a.add_fs_resource("a-disk", "a-host")
    b.add_fs_resource("b-disk", "b-host")
    a.default_resource = "a-disk"
    b.default_resource = "b-disk"
    a.bootstrap_admin()
    b.bootstrap_admin("admin-b@npaci", "pw-b")
    a.federate_with(b)

    admin_b = SrbClient(b, "b-host", "b-srb", "admin-b@npaci", "pw-b")
    admin_b.login()
    admin_b.mkcoll(FOREIGN_COLL)
    admin_b.ingest(FOREIGN_FILE, b"inter-zone bytes")
    admin_b.grant("/npaci-zone", "sekar@sdsc", "read")
    admin_b.grant(FOREIGN_COLL, "sekar@sdsc", "read")
    admin_b.grant(FOREIGN_FILE, "sekar@sdsc", "read")

    a.add_user("sekar@sdsc", "pw", role="curator")
    user_a = SrbClient(a, "a-host", "a-srb", "sekar@sdsc", "pw")
    user_a.login()
    return a, b, user_a


def _build_call(a_srv, name):
    """The façade bound method plus kwargs aiming the op at zone B."""
    spec = a_srv.dispatch.get(name).spec
    fn = getattr(a_srv, name)
    scope_value = (FOREIGN_COLL if spec.scope_arg in ("coll", "scope")
                   else FOREIGN_FILE)
    kwargs = {spec.scope_arg: scope_value}
    for param in inspect.signature(fn).parameters.values():
        if param.name in ("ticket", spec.scope_arg):
            continue
        if param.default is inspect.Parameter.empty:
            kwargs[param.name] = FILLERS[param.name]
    return spec, fn, kwargs


def test_list_is_complete(zones):
    a, b, user_a = zones
    registry = a.server("a-srb").dispatch
    assert {s.name for s in registry.specs()
            if s.scope_arg} == set(SCOPED_OPS)
    assert {s.name for s in registry.specs()
            if not s.scope_arg} == UNSCOPED_OPS


@pytest.mark.parametrize("name", SCOPED_OPS)
def test_foreign_zone_policy(zones, name):
    a, b, user_a = zones
    a_srv = a.server("a-srb")
    b_srv = b.server("b-srb")
    spec, fn, kwargs = _build_call(a_srv, name)
    a_before = a_srv.ops_served
    b_before = b_srv.ops_served

    if spec.forwardable:
        try:
            fn(user_a.ticket, **kwargs)
        except UnsupportedOperation as exc:
            pytest.fail(f"{name} is declared forwardable but refused the "
                        f"foreign path: {exc}")
        except SrbError:
            pass  # rejected by the *peer* — still proves it forwarded
        assert b_srv.ops_served == b_before + 1 + NESTED_OPS.get(name, 0), \
            f"{name}: peer server did not serve the forwarded call"
        assert a_srv.ops_served == a_before, \
            f"{name}: forwarded call must not count as a local op"
    else:
        assert spec.write
        with pytest.raises(UnsupportedOperation, match="foreign zone"):
            fn(user_a.ticket, **kwargs)
        assert a_srv.ops_served == a_before
        assert b_srv.ops_served == b_before, \
            f"{name}: refused write must never reach the peer"
