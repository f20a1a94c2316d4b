"""SrbClient's surface (repro.core.client): every registered op is
reachable, the forwards generated from the ``@rpc_op`` declarations are
real methods shaped like their handlers, and they send what the
hand-written forwards they replaced sent."""

import ast
import copy
import inspect

import pytest

from repro.core import Federation, SrbClient
from repro.mcat import Condition
from repro.net.wire import DeferredPayload

#: the login handshake, reached through ``login``
HANDSHAKE = {"auth_challenge", "auth_login"}

#: written methods named other than the op they send
RENAMED = {"ls_page": "list_collection_page", "verify": "verify_checksums"}

#: the public surface before the forwards were generated, as
#: ``inspect.signature`` prints it without ``self`` — the generated ones
GENERATED = {
    "add_annotation":
        "(path: 'str', ann_type: 'str', text: 'str', location: "
        "'Optional[str]' = None) -> 'int'",
    "add_metadata":
        "(path: 'str', attr: 'str', value: 'Optional[str]', units: "
        "'Optional[str]' = None, meta_class: 'str' = 'user', schema_name: "
        "'Optional[str]' = None) -> 'int'",
    "annotations": "(path: 'str') -> 'List[Dict[str, Any]]'",
    "bulk_get":
        "(targets: 'Sequence[str]', via_container: 'Optional[str]' = None) "
        "-> 'List[Dict[str, Any]]'",
    "bulk_ingest":
        "(items: 'Sequence[Dict[str, Any]]', resource: 'Optional[str]' = "
        "None, container: 'Optional[str]' = None) -> 'List[Dict[str, Any]]'",
    "bulk_query_metadata":
        "(targets: 'Sequence[str]', meta_class: 'Optional[str]' = None) -> "
        "'List[Dict[str, Any]]'",
    "checkin": "(path: 'str', data: 'Optional[bytes]' = None) -> 'int'",
    "checkout": "(path: 'str') -> 'None'",
    "compact_container": "(path: 'str') -> 'int'",
    "container_garbage": "(path: 'str') -> 'int'",
    "copy":
        "(src: 'str', dst: 'str', resource: 'Optional[str]' = None) -> "
        "'int'",
    "copy_metadata": "(src: 'str', dst: 'str') -> 'int'",
    "create_container": "(path: 'str', logical_resource: 'str') -> 'int'",
    "define_structural":
        "(coll: 'str', attr: 'str', default_value: 'Optional[str]' = None, "
        "vocabulary: 'Optional[Sequence[str]]' = None, mandatory: 'bool' = "
        "False, comment: 'Optional[str]' = None) -> 'int'",
    "delete": "(path: 'str', replica_num: 'Optional[int]' = None) -> 'None'",
    "delete_metadata": "(path: 'str', mid: 'int') -> 'None'",
    "extract_metadata":
        "(path: 'str', method: 'str', sidecar: 'Optional[str]' = None) -> "
        "'int'",
    "get_metadata":
        "(path: 'str', meta_class: 'Optional[str]' = None) -> "
        "'List[Dict[str, Any]]'",
    "get_version": "(path: 'str', version_num: 'int') -> 'bytes'",
    "ingest":
        "(path: 'str', data: 'bytes', resource: 'Optional[str]' = None, "
        "container: 'Optional[str]' = None, data_type: 'Optional[str]' = "
        "None, metadata: 'Optional[Dict[str, str]]' = None) -> 'int'",
    "ingest_replica": "(path: 'str', data: 'bytes', resource: 'str') -> 'int'",
    "link": "(target: 'str', link_path: 'str') -> 'int'",
    "lock":
        "(path: 'str', lock_type: 'str' = 'shared', lifetime_s: "
        "'Optional[float]' = None) -> 'int'",
    "migrate_collection": "(coll: 'str', resource: 'str') -> 'int'",
    "mkcoll": "(path: 'str') -> 'int'",
    "move": "(src: 'str', dst: 'str') -> 'None'",
    "open_object": "(path: 'str') -> 'Dict[str, Any]'",
    "physical_move": "(path: 'str', resource: 'str') -> 'None'",
    "pin":
        "(path: 'str', resource: 'str', lifetime_s: 'Optional[float]' = "
        "None) -> 'int'",
    "put": "(path: 'str', data: 'bytes') -> 'None'",
    "query":
        "(scope: 'str', conditions: 'Sequence[Condition | DisplayOnly]', "
        "include_annotations: 'bool' = False, include_system: 'bool' = "
        "False) -> 'QueryResult'",
    "query_page":
        "(scope: 'str', conditions: 'Sequence[Condition | DisplayOnly]', "
        "include_annotations: 'bool' = False, include_system: 'bool' = "
        "False, limit: 'int' = 100, cursor: 'Optional[str]' = None) -> "
        "'Dict[str, Any]'",
    "queryable_attrs":
        "(scope: 'str', include_system: 'bool' = False) -> 'List[str]'",
    "register_directory":
        "(path: 'str', resource: 'str', physical_dir: 'str') -> 'int'",
    "register_file":
        "(path: 'str', resource: 'str', physical_path: 'str', data_type: "
        "'Optional[str]' = None, metadata: 'Optional[Dict[str, str]]' = "
        "None) -> 'int'",
    "register_method":
        "(path: 'str', server: 'str', command: 'str', proxy_function: "
        "'bool' = False) -> 'int'",
    "register_replica":
        "(path: 'str', target: 'str', resource: 'Optional[str]' = None) -> "
        "'int'",
    "register_sql":
        "(path: 'str', resource: 'str', sql: 'str', template: 'str' = "
        "'HTMLREL', partial: 'bool' = False) -> 'int'",
    "register_url": "(path: 'str', url: 'str') -> 'int'",
    "replicate": "(path: 'str', resource: 'str') -> 'int'",
    "rmcoll": "(path: 'str') -> 'None'",
    "stat": "(path: 'str') -> 'Dict[str, Any]'",
    "structural_metadata": "(coll: 'str') -> 'List[Dict[str, Any]]'",
    "sync_container": "(path: 'str') -> 'int'",
    "synchronize": "(path: 'str') -> 'int'",
    "unlock": "(path: 'str') -> 'int'",
    "unpin": "(path: 'str', resource: 'str') -> 'int'",
    "update_metadata":
        "(path: 'str', mid: 'int', value: 'Optional[str]', units: "
        "'Optional[str]' = None) -> 'None'",
    "versions": "(path: 'str') -> 'List[Dict[str, Any]]'",
}

#: ... and the written ones: the session, pipelining, the streams and
#: pages, and the methods that send their op differently (module
#: docstring of repro.core.client)
WRITTEN = {
    "audit_log":
        "(principal_filter: 'Optional[str]' = None, action: 'Optional[str]'"
        " = None, target: 'Optional[str]' = None) -> 'List[Dict[str, Any]]'",
    # an item is (op, kwargs) or (op, kwargs, the earlier items it needs)
    "batch": "(*items: 'Tuple[Any, ...]') -> 'List[BatchItemResult]'",
    "connect": "(server_name: 'str') -> 'None'",
    "get":
        "(path: 'str', replica_num: 'Optional[int]' = None, args: "
        "'Optional[str]' = None, sql_remainder: 'Optional[str]' = None, "
        "stripes: 'Union[int, str, None]' = None) -> 'bytes'",
    "grant": "(path: 'str', principal: 'str', permission: 'str') -> 'None'",
    "iter_ls": "(path: 'str', page_size: 'int' = 100)",
    "iter_query":
        "(scope: 'str', conditions: 'Sequence[Condition | DisplayOnly]', "
        "include_annotations: 'bool' = False, include_system: 'bool' = "
        "False, page_size: 'int' = 100)",
    "iter_query_pages":
        "(scope: 'str', conditions: 'Sequence[Condition | DisplayOnly]', "
        "include_annotations: 'bool' = False, include_system: 'bool' = "
        "False, page_size: 'int' = 100)",
    "login":
        "(username: 'Optional[str]' = None, password: 'Optional[str]' = "
        "None) -> 'Ticket'",
    "logout": "() -> 'None'",
    "ls": "(path: 'str') -> 'Dict[str, Any]'",
    "ls_page":
        "(path: 'str', limit: 'int' = 100, cursor: 'Optional[str]' = None) "
        "-> 'Dict[str, Any]'",
    "revoke": "(path: 'str', principal: 'str') -> 'None'",
    "verify": "(path: 'str')",
}


def written_in_the_class_body():
    from repro.core import client
    tree = ast.parse(inspect.getsource(client))
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
              and node.name == "SrbClient"]
    return {node.name for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def public_methods():
    return {name for name, member in vars(SrbClient).items()
            if not name.startswith("_") and inspect.isfunction(member)}


def shape(fn):
    sig = inspect.signature(fn)
    return str(sig.replace(parameters=list(sig.parameters.values())[1:]))


class TestCompleteness:
    def test_every_op_is_reached_and_nothing_else_is_public(self, fed):
        ops = set(fed.server("srb1").dispatch.names()) - HANDSHAKE
        surface = public_methods()
        assert {name for name in vars(SrbClient)
                if not name.startswith("_")} == surface
        assert surface == set(GENERATED) | set(WRITTEN)
        by_own_name = surface & ops
        assert ops == by_own_name | set(RENAMED.values())
        assert set(RENAMED) <= surface

    def test_what_is_written_is_only_what_differs(self):
        assert written_in_the_class_body() == set(WRITTEN)
        assert len(GENERATED) == 49

    @pytest.mark.parametrize("name", sorted({**GENERATED, **WRITTEN}))
    def test_public_signature_is_unchanged(self, name):
        assert shape(getattr(SrbClient, name)) == \
            {**GENERATED, **WRITTEN}[name]


class TestGeneratedForwards:
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_a_forward_is_its_handler_as_a_method(self, fed, name):
        handler = fed.server("srb1").dispatch.get(name).impl
        forward = vars(SrbClient)[name]
        assert inspect.isfunction(forward)
        assert forward.__name__ == name
        assert forward.__qualname__ == f"SrbClient.{name}"
        assert forward.__module__ == "repro.core.client"
        assert forward.__doc__ == handler.__doc__
        mine = inspect.signature(forward)
        theirs = inspect.signature(handler)
        assert list(mine.parameters.values())[1:] == \
            list(theirs.parameters.values())[2:]
        assert mine.return_annotation == theirs.return_annotation

    def test_a_sequence_costs_what_a_list_costs(self, grid):
        curator, home = grid.curator, grid.home
        for i in range(3):
            curator.ingest(f"{home}/s{i}.txt", b"x" * (i + 1))
            curator.add_metadata(f"{home}/s{i}.txt", "n", str(i))
        targets = [f"{home}/s{i}.txt" for i in range(3)]
        conditions = [Condition("n", "<", "2")]
        net = grid.fed.obs.metrics

        def cost(run):
            before = net.total("net.bytes")
            run()
            return net.total("net.bytes") - before

        for shaped in (list, tuple, lambda seq: (x for x in seq)):
            assert cost(lambda: curator.bulk_get(shaped(targets))) == \
                cost(lambda: curator.bulk_get(targets))
            assert cost(lambda: curator.query(home, shaped(conditions))) == \
                cost(lambda: curator.query(home, conditions))

    @pytest.mark.parametrize("direct_io", [False, True])
    def test_bulk_ingest_leaves_the_callers_items_alone(self, direct_io):
        fed = Federation(zone="demozone", direct_io=direct_io)
        fed.add_host("sdsc")
        fed.add_host("laptop")
        fed.add_server("srb1", "sdsc", mcat=True)
        fed.add_fs_resource("unix-sdsc", "sdsc")
        fed.default_resource = "unix-sdsc"
        fed.bootstrap_admin()
        client = SrbClient(fed, "laptop", "srb1", "srbadmin@sdsc", "hunter2")
        client.login()
        client.mkcoll("/demozone/c")
        items = [{"path": "/demozone/c/a", "data": b"alpha"},
                 {"path": "/demozone/c/b", "data": b"beta",
                  "metadata": {"k": "v"}}]
        before = copy.deepcopy(items)
        seen = []
        client._call = lambda method, /, **kw: seen.append(kw) or \
            SrbClient._call(client, method, **kw)
        assert all("oid" in row for row in client.bulk_ingest(items))
        assert items == before
        sent = seen[0]["items"]
        assert all(mine is not theirs for mine, theirs in zip(sent, items))
        assert all((type(item["data"]) is DeferredPayload) == direct_io
                   for item in sent)
