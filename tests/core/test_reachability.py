"""What no surface reaches is deleted, or says why it stays.

Two checks over the source, read as text (``ast``), not run:

1. Every op the servers register is called by an Scommand (a row of
   ``scommands.shell.FORWARDS`` or a written ``cmd_``) or by a MySRB
   route or view, through the client method that sends it.  An op no
   user surface reaches is in ``ADMIN_ONLY`` (``tools/surfaces.py``,
   the one walk of the surfaces, which ``tools/gendocs.py`` prints in
   DESIGN.md's op table) with its reason.
2. Every public function or method under ``src/repro`` is referenced
   somewhere in ``src/`` other than by its own definition — by name, as
   an attribute, or as a string — or is in :data:`API_ONLY` with its
   reason.  A name ``gridbench/tracing.LAYER_ENTRYPOINTS`` declares is
   referenced: ``resolve_entrypoints`` raises if it goes.

Both dicts are frozen like the lint allowlists: an entry that suppresses
nothing is itself a failure, so they only shrink.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"


def _surfaces():
    """``tools/surfaces.py``: the one walk of the Scommands and MySRB,
    which ``tools/gendocs.py`` prints in DESIGN.md's op table."""
    spec = importlib.util.spec_from_file_location(
        "surfaces", ROOT / "tools" / "surfaces.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


surfaces = _surfaces()
OPS = surfaces.OPS
ADMIN_ONLY = surfaces.ADMIN_ONLY

#: public names only tests, benchmarks or programs call: name -> why
API_ONLY = {
    "active": "Tracer.active: tests read the open span stack",
    "active_count": "SessionManager: tests count live sessions",
    "add_row": "ResultTable: benchmark tables are built from tests",
    "add_to_group": "UserRegistry: group membership, set up by tests",
    "all_rows": "Table: tests read a table's live rows as dicts",
    "anti_entropy": "ShardedMcat: replica repair, driven by benchmark E16",
    "cache_sweep": "Federation: an operator's staging-cache sweep",
    "call_at": "SimClock: timers scheduled by tests",
    "can_collection": "AccessController: the boolean twin of "
                      "require_collection, for programs",
    "compact_log": "ShardedMcat: write-log truncation, driven by tests",
    "connect": "SrbClient: switch servers ('connect to any SRB server')",
    "create_group": "UserRegistry: groups are created by programs",
    "create_user_table": "DatabaseResourceDriver: the tables a registered "
                         "SQL object reads are made by programs",
    "deregister": "ServiceRegistry: tests take a service off the registry",
    "dicts": "ResultSet, QueryResult, QueryPage: rows as dicts, for "
             "programs",
    "disable_user": "UserRegistry: an administrator's action",
    "distrust_zone": "TicketAuthority: undo federate_with's trust",
    "drop_attribute_indexes": "mcat.schema: the index-free baseline "
                              "benchmark E4 measures",
    "drop_table": "Database: schema change, for programs",
    "events": "Tracer.events: tests read a trace as a flat list",
    "federate_with": "Federation: zones are peered by the program that "
                     "builds them",
    "file_count": "MemFsDriver: tests and benchmarks count stored files",
    "find": "Span.find: tests look a span up by name",
    "group_members": "UserRegistry: lists a group, for programs",
    "has_table": "Database: schema probe, for programs",
    "heal": "Network: tests heal a partition",
    "heal_replica": "ShardedMcat: tests reconnect a catalog replica",
    "install_proxy_command": "Federation: an administrator fills a "
                             "server's bin directory",
    "is_published": "WebSpace: tests check a URL is served",
    "iter_bulk_query_metadata": "SrbClient: paged batch metadata, for "
                                "programs",
    "iter_query": "SrbClient: query rows one by one, for programs and "
                  "gridbench",
    "locks_on": "LockManager: tests list an object's locks",
    "methods_for": "ExtractionRegistry: lists extraction methods, for "
                   "programs",
    "p50": "LoadReport: the median latency benchmarks report",
    "p99": "LoadReport: the tail latency benchmarks report",
    "partition": "Network: tests cut a link",
    "partition_replica": "ShardedMcat: tests cut a catalog replica off",
    "password_ok": "UserRegistry: a plain password check, for programs",
    "publish": "WebSpace: the web pages URL objects point at are put up "
               "by programs",
    "purge_expired": "SessionManager: an operator's session sweep",
    "remove_from_group": "UserRegistry: group membership, for programs",
    "remove_transfer_observer": "Network: benchmarks detach an observer",
    "remove_user": "UserRegistry: an administrator's action",
    "reset_queues": "Network: tests and benchmarks empty link queues",
    "restore_attribute_indexes": "mcat.schema: undoes "
                                 "drop_attribute_indexes",
    "scalar": "ResultSet.scalar: one value of a SQL answer, for programs",
    "schemas_for": "SchemaRegistry: the schemas for a data type",
    "set_down": "Network: tests and benchmarks take a host down",
    "set_role": "UserRegistry: an administrator's action",
    "set_up": "Network: tests and benchmarks bring a host back",
    "shed_fraction": "LoadReport: share of requests shed, for "
                     "benchmarks",
    "sum_matching": "MetricsRegistry: tests total a family of series",
    "touch": "SessionManager: tests refresh a session",
    "unpublish": "WebSpace: tests take a page down",
}


def _surface_ops():
    """The ops the Scommands and MySRB reach."""
    return set(surfaces.surface_ops())


def test_every_op_has_a_surface_or_a_reason():
    reached = _surface_ops()
    assert sorted(OPS - reached - ADMIN_ONLY.keys()) == [], \
        "an op no Scommand or MySRB page reaches: give it one, or say " \
        "why in ADMIN_ONLY"
    assert sorted(ADMIN_ONLY.keys() & reached) == [], \
        "ADMIN_ONLY names an op a surface now reaches: delete the entry"
    assert sorted(ADMIN_ONLY.keys() - OPS) == []


def _entrypoint_names():
    spec = importlib.util.spec_from_file_location(
        "gridbench_tracing", ROOT / "gridbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {name for _layer, _module, _cls, names in tracing.LAYER_ENTRYPOINTS
            if isinstance(names, tuple) for name in names}


def _unreferenced():
    """Public functions and methods under ``src/repro`` (not ``@rpc_op``
    handlers, whose reach is the first check, nor ``cmd_`` methods, the
    Scommands themselves) that nothing in ``src/`` names."""
    defined, used = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(surfaces.parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                op = any("rpc_op" in ast.dump(dec)
                         for dec in node.decorator_list)
                if not (node.name.startswith(("_", "cmd_")) or op):
                    defined.setdefault(node.name, []).append(
                        f"{path.relative_to(ROOT)}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                used.add(node.value)
    used |= _entrypoint_names()
    return {name: where for name, where in defined.items()
            if name not in used}


def test_every_public_function_has_a_caller_or_a_reason():
    unreferenced = _unreferenced()
    missing = {name: where for name, where in unreferenced.items()
               if name not in API_ONLY}
    assert missing == {}, \
        "nothing in src/ calls these: delete them, or say why in API_ONLY"
    assert sorted(API_ONLY.keys() - unreferenced.keys()) == [], \
        "API_ONLY names something src/ now calls (or that is gone): " \
        "delete the entry"


def test_the_rails_see_what_they_claim_to():
    """The scans are not vacuous: the table rows and the written
    commands count, and a known unreferenced name is found."""
    reached = _surface_ops()
    assert {"mkcoll", "compact_container", "define_structural",
            "register_url", "list_collection_page", "query_page",
            "verify_checksums", "auth_login"} <= reached
    assert "connect" in _unreferenced()
