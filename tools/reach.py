"""Which functions of ``src/repro`` nothing the grid runs enters.

    python tools/reach.py [--check]

runs each of these in its own process, with a call tracer (function
entry only, no line events) loaded by a ``sitecustomize`` on
``PYTHONPATH``, so a re-executed or child process is traced too:

* ``BENCHMARK.json``'s ``command`` at ``--smoke``: the six workloads;
* every ``examples/*.py``, and ``benchmarks/`` under pytest;
* ``python -m tests.surface_calls``: each op once, each Scommand and
  each MySRB route at least once.

It prints each function defined under ``src/repro`` (``path::Qualname``,
abstract methods skipped) that none of them entered, with its reason
from :data:`REACH_EXEMPT`.  With ``--check`` it exits 1 when such a
function has no reason, or when a reason names a function that is
entered or gone.  ``tests/core/test_reachability.py`` reads the dict.
The traced ``benchmarks/`` take some minutes.
"""
import ast, json, os, subprocess, sys, tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SITE = """import atexit, os, sys
entered = set()
def write():
    sys.settrace(None)
    with open(os.path.join({out!r}, str(os.getpid())), "a") as f:
        f.writelines(f"{{c.co_filename}}::{{c.co_qualname}}\\n"
                     for c in entered if c.co_filename.startswith({src!r}))
atexit.register(write)
sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))
"""

# What runs a function that nothing traced enters.  A reason is the
# wrapper table, or begins with one of KINDS and names the test that
# drives the code: a surface; a fault or refusal path; or a paper
# capability no workload loads yet.
KINDS = ("a surface", "a fault", "a refusal",
         "a paper capability no workload loads yet")
WRAPPER = "gridbench's wrapper table, item 10"
SHARDED = ("a surface on a catalog of more than one partition "
           "(Federation(mcat_shards=)), which no workload builds: "
           "tests/mcat/test_shard.py, tests/mcat/test_dump.py")
LOB = ("a paper capability no workload loads yet: files kept as LOBs of "
       "a database resource, tests/storage/test_database_driver.py")
SQL = ("a paper capability no workload loads yet: a registered SQL "
       "object's query, tests/db/test_engine.py::")

#: ``path::Qualname`` -> what runs it, though nothing traced enters it
REACH_EXEMPT = {
    **dict.fromkeys([
        "auth/tickets.py::TicketAuthority.delegate",
        "core/replication.py::pick_clean_available",
        "db/engine.py::Database.execute_page",
        "mcat/query.py::queryable_attributes",
        "mcat/query.py::search_page",
        "obs/trace.py::Tracer.event",
        "storage/archive.py::ArchiveDriver.append",
        "storage/archive.py::ArchiveDriver.list_dir",
        "storage/archive.py::ArchiveDriver.size",
        "storage/archive.py::ArchiveDriver.write",
        "storage/base.py::StorageDriver.copy_within",
        "storage/memfs.py::MemFsDriver.write",
        "util/paths.py::depth",
        "util/paths.py::from_components"], WRAPPER),
    **dict.fromkeys([f"mcat/shard.py::{name}" for name in (
        "ShardedMcat._collect_object_rows",
        "ShardedMcat._collect_target_rows",
        "ShardedMcat._delete_source_rows", "ShardedMcat._fanout",
        "ShardedMcat._insert_rows", "ShardedMcat._note_restore",
        "ShardedMcat._rows_scanned", "ShardedMcat.busy_s",
        "ShardedMcat.move_object", "ShardedMcat.oid_table",
        "ShardedMcat.remove_collection", "ShardedMcat.rename_subtree",
        "ShardedMcat.structural_for", "ShardedMcat.total_objects",
        "ShardedMcat.total_replicas", "_merge_names",
        "_merge_object_pages", "_merge_rows", "_merge_search_pages",
        "_of_mid", "_of_target_pair", "_pinned", "_route_scope.<locals>."
        "routed", "merge_keyset_pages")], SHARDED),
    **dict.fromkeys([f"storage/database.py::DatabaseResourceDriver.{name}"
                     for name in ("_lob_rid", "append", "create", "delete",
                                  "exists", "list_dir", "read", "size",
                                  "used_bytes", "write")], LOB),
    "db/engine.py::Database._hash_join": SQL + "TestJoin",
    "db/engine.py::Database._order": SQL + "TestOrderAfterGroupBy",
    "db/sql.py::Aggregate.__str__": SQL + "TestAggregates (an output "
                                          "column's name)",
    "db/sql.py::ColumnRef.__str__": SQL + "TestOrderAfterGroupBy",
    # surfaces no traced run drives
    "core/planes/data.py::DataService._prefetch_container":
        "a paper capability no workload loads yet: a working set read "
        "through its container, tests/core/test_bulk_ops.py::TestBulkGet",
    "mcat/catalog.py::Mcat.get_replica":
        "a surface: a get of a registered SQL or URL object's numbered "
        "replica, tests/core/test_server_registered.py::TestRegisteredSql"
        "::test_register_replica_sql",
    "mcat/catalog.py::Mcat.grants_for_bulk":
        "a surface: a listing by a principal whose right is an object "
        "grant, tests/core/test_access.py",
    "mysrb/views.py::_query_link_params":
        "a surface: MySRB's next-page link under query results, "
        "tests/mysrb/test_paging.py",
    "net/simnet.py::DataChannel.add_to":
        "a surface on a Federation(direct_io=True) grid, which no workload "
        "builds: grouped channel legs, tests/net/test_station.py",
    "net/simnet.py::DataChannel.finish":
        "a surface on a Federation(direct_io=True) grid, which no workload "
        "builds: grouped channel legs, tests/net/test_station.py",
    "policy/policies.py::ObservedPolicy.source_order":
        "a surface on a grid whose placement policy is 'observed', which "
        "no workload selects: tests/policy/test_placement_policies.py",
    "policy/policies.py::ObservedPolicy.source_order.<locals>.key":
        "a surface on a grid whose placement policy is 'observed', which "
        "no workload selects: tests/policy/test_placement_policies.py",
    "scommands/__main__.py::main":
        "a surface: python -m repro.scommands, tests/core/test_scommands"
        ".py::test_the_entry_point_runs_a_script_from_stdin",
    # faults and refusals
    "auth/tickets.py::_channel_error":
        "a refusal: a forged, stale or spent channel ticket, "
        "tests/auth/test_channel_tickets.py",
    "core/federation.py::Federation.__getattr__":
        "a refusal: a federation with no MCAT server, tests/core/"
        "test_federation_admin.py::test_mcat_server_required",
    "core/planes/data.py::DataService._ingest.<locals>.fail":
        "a fault: one item of a bulk ingest fails, "
        "tests/core/test_bulk_ops.py::TestBulkIngest",
    "core/planes/data.py::_item_error":
        "a refusal: a bulk item that fails alone, tests/core/test_bulk_ops"
        ".py::TestBulkIngest::test_per_item_failures_isolated",
    "core/planes/data.py::DataService.bulk_get.<locals>.failed":
        "a fault: one item's delivery leg fails, tests/core/test_bulk_ops"
        ".py::TestBulkGet::test_a_failed_delivery_fails_its_item_only",
    "db/table.py::Table._refuse":
        "a refusal: a row whose key clashes in a unique index, "
        "tests/db/test_table.py",
    "errors.py::DependencyFailed.__init__":
        "a fault: a batch item does not run because one it needs failed "
        "(a refused MySRB ingest), tests/net/test_rpc.py::TestDependentItems, "
        "tests/mysrb/test_write_pages.py",
    "errors.py::MandatoryMetadataMissing.__init__":
        "a refusal: an ingest without its collection's mandatory "
        "metadata, tests/core/test_server_data.py",
    "mcat/catalog.py::_refuse_non_text":
        "a refusal: metadata whose name or value is not text, "
        "tests/core/test_server_metadata.py",
    "mcat/shard.py::ShardedMcat._spans_shards":
        "a refusal: a rename at the partition level of a catalog of more "
        "than one partition, tests/mcat/test_shard.py",
    "mcat/shard.py::ShardedMcat.compact_log":
        "a fault: a catalog replica's write log is truncated once every "
        "reachable replica applied it, tests/integration/test_shard_repair.py",
    "mcat/shard.py::ShardedMcat.heal_replica":
        "a fault: a catalog replica cut off, then healed, "
        "tests/integration/test_shard_repair.py",
    "mcat/shard.py::ShardedMcat.partition_replica":
        "a fault: a catalog replica cut off, then healed, "
        "tests/integration/test_shard_repair.py",
    "mysrb/views.py::error_page":
        "a refusal: MySRB's 4xx pages, tests/mysrb/test_app.py::TestBrowse",
    "net/rpc.py::ServiceRegistry.call_batch.<locals>.failed":
        "a fault: one item of a batch fails alone, "
        "tests/net/test_rpc.py::TestCallBatch",
    "net/simnet.py::Network.heal":
        "a fault: a link cut between two hosts heals, tests/net/test_simnet.py",
    "net/simnet.py::Network.partition":
        "a fault: a link cut between two hosts, tests/net/test_simnet.py",
    "net/simnet.py::ServiceStation.reset":
        "a fault: a host that restarts forgets its queues, "
        "tests/net/test_station.py",
    # paper capabilities no workload loads yet
    "auth/users.py::UserRegistry.add_to_group":
        "a paper capability no workload loads yet: a grant to a group, "
        "tests/core/test_access.py::test_group_grant",
    "auth/users.py::UserRegistry.create_group":
        "a paper capability no workload loads yet: a grant to a group, "
        "tests/core/test_access.py::test_group_grant",
    "auth/users.py::UserRegistry.remove_from_group":
        "a paper capability no workload loads yet: a grant to a group, "
        "tests/core/test_access.py::test_leaving_group_loses_access",
    "core/federation.py::Federation._install_builtin_proxies.<locals>."
    "extract": "a paper capability no workload loads yet: the extraction "
               "proxy function in a server's bin, "
               "tests/core/test_server_registered.py",
    "core/federation.py::Federation.cache_sweep":
        "a paper capability no workload loads yet: SRB cache management, "
        "tests/core/test_federation_admin.py",
    "core/federation.py::Federation.install_proxy_command":
        "a paper capability no workload loads yet: an administrator puts a "
        "method object's command in a server's bin, "
        "tests/core/test_server_registered.py",
    "mcat/dump.py::import_catalog":
        "a paper capability no workload loads yet: a catalog restored from "
        "its Sdump, tests/mcat/test_dump.py",
    "mcat/extraction.py::ExtractionRegistry.extract":
        "a paper capability no workload loads yet: an extraction run "
        "outside a server, tests/mcat/test_extraction.py",
    "workload/synth.py::hyperspectral_files":
        "a paper capability no workload loads yet: the LTER hyperspectral "
        "collection, tests/workload/test_synth.py",
    "auth/users.py::UserRegistry.disable_user":
        "a refusal: the sign-on of a user an administrator disabled, "
        "tests/auth/test_users.py::TestAuthentication::"
        "test_disabled_user_rejected",
    "storage/memfs.py::MemFsDriver.used_bytes":
        "a refusal: a write past a resource's capacity (StorageFull), "
        "tests/storage/test_replace.py::"
        "test_a_refused_overwrite_keeps_the_old_file_and_charges_nothing",
}


def runs():
    """``(command, working directory)`` of every traced run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return ([(bench + ["--smoke"], ROOT)]
            + [([sys.executable, str(p)], ROOT)
               for p in sorted((ROOT / "examples").glob("*.py"))]
            + [([sys.executable, "-m", "pytest", ".", "-q", "-x",
                 "-p", "no:cacheprovider", "--benchmark-disable"],
                ROOT / "benchmarks"),
               ([sys.executable, "-m", "tests.surface_calls"], ROOT)])


def entered():
    """The ``path::Qualname`` of every function the runs entered."""
    with tempfile.TemporaryDirectory() as out:
        (Path(out) / "sitecustomize.py").write_text(
            SITE.format(out=out, src=str(SRC) + os.sep))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([out, str(SRC.parent)]))
        for command, cwd in runs():
            subprocess.run(command, cwd=cwd, env=env, check=True)
        return {line[len(str(SRC)) + 1:]
                for f in Path(out).glob("[0-9]*")
                for line in f.read_text().splitlines()}


def defined():
    """Every function under ``src/repro``, less abstract methods: its
    ``path::Qualname`` -> its ``ast`` node."""
    nodes = {}

    def visit(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not any("abstractmethod" in ast.unparse(d)
                           for d in child.decorator_list):
                    nodes[f"{rel}::{prefix}{child.name}"] = child
                visit(child, rel, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, rel, prefix)
    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), "")
    return nodes


def main(check):
    unreached = defined().keys() - entered()
    for name in sorted(unreached):
        print(name, "--", REACH_EXEMPT.get(name, "NO REASON"))
    stale = sorted(REACH_EXEMPT.keys() - unreached)
    for name in stale:
        print("entered or gone, yet listed:", name)
    return int(check and bool(stale or unreached - REACH_EXEMPT.keys()))


if __name__ == "__main__":
    sys.exit(main("--check" in sys.argv[1:]))
