"""The catalog's route table (repro.mcat.shard.ROUTES): it is complete,
what it generates are real methods, and one partition with no replica
is bound straight through."""

import ast
import inspect
import pathlib

import pytest

from repro.mcat import Mcat, ShardedMcat
from repro.mcat.shard import COMPOSED, MCAT_OPS, ROUTES

ZONE = "demozone"

#: the front's own API: where a path lives, and the replica/repair ops
FRONT_ONLY = {"shard_of_path", "shard_stats", "replication_lag",
              "partition_replica", "heal_replica", "anti_entropy",
              "compact_log"}

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: catalog ops nothing in ``src/`` outside ``repro/mcat/`` calls: name ->
#: why the op stays.  Frozen like ``tools/reach.py``'s ``REACH_EXEMPT``: an
#: entry that suppresses nothing is itself a failure, so it only shrinks.
CATALOG_ONLY: dict = {}


def written_in_the_class_body():
    from repro.mcat import shard
    tree = ast.parse(inspect.getsource(shard))
    (front,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "ShardedMcat"]
    return {node.name for node in front.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def public_functions(cls):
    return {name for name, member in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(member)}


class TestCompleteness:
    def test_every_partition_op_is_routed_exactly_once(self):
        assert set(MCAT_OPS) == public_functions(Mcat)
        # a table row, a composed op or a body in the class — one of them
        written_out = written_in_the_class_body() - FRONT_ONLY \
            - {"busy_s"}
        ways = [set(ROUTES), set(COMPOSED), written_out]
        assert sum(map(len, ways)) == len(set().union(*ways))
        assert set().union(*ways) == set(MCAT_OPS)
        assert written_out == {
            "remove_collection", "oid_table", "move_object",
            "rename_subtree", "structural_for",
            "total_objects", "total_replicas"}

    def test_nothing_else_is_public_on_the_front(self):
        assert public_functions(ShardedMcat) == set(MCAT_OPS) | FRONT_ONLY

    @pytest.mark.parametrize("name", sorted(ROUTES))
    def test_a_generated_op_is_a_method_like_the_partitions(self, name):
        routed = vars(ShardedMcat)[name]
        assert inspect.isfunction(routed)
        assert routed.__name__ == name
        assert routed.__qualname__ == f"ShardedMcat.{name}"
        assert routed.__doc__ == getattr(Mcat, name).__doc__


def called_outside_the_catalog():
    """Names called as an attribute (``x.name(...)``) by the code under
    ``src/repro`` that is not ``repro/mcat/``: what the grid calls of
    its catalog.  A string naming an op (a route row, a ``getattr``)
    calls nothing."""
    called = set()
    for path in sorted(SRC.rglob("*.py")):
        if (SRC / "mcat") in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return called


class TestOnlyTheOpsTheGridCalls:
    def test_every_catalog_op_is_called_by_the_grid_or_has_a_reason(self):
        called = called_outside_the_catalog()
        uncalled = sorted(set(MCAT_OPS) - called - CATALOG_ONLY.keys())
        assert uncalled == [], \
            "nothing outside repro/mcat/ calls these catalog ops: delete " \
            "them, make them partition helpers, or say why in CATALOG_ONLY"
        assert sorted(CATALOG_ONLY.keys() - (set(MCAT_OPS) - called)) == \
            [], "CATALOG_ONLY names an op the grid now calls (or that " \
            "is gone): delete the entry"

    def test_the_rail_sees_what_it_claims_to(self):
        called = called_outside_the_catalog()
        # a handler's catalog call counts; a catalog-internal one does not
        assert {"rename_subtree", "lookup", "create_objects"} <= called
        assert "_subtree_collections" not in called


class TestOnePartitionIsBoundThrough:
    def test_ops_are_the_partitions_bound_methods(self):
        m = ShardedMcat(zone=ZONE)
        only = m.shards[0].primary
        for name in MCAT_OPS:
            assert getattr(m, name) == getattr(only, name), name
        # the id directories exist to route: none kept, nobody watching
        assert only.db._observer is None
        assert not any(m._dir.values())

    @pytest.mark.parametrize("shape", [dict(shards=2), dict(replicas=1)],
                             ids=["K=2", "R=1"])
    def test_anything_more_is_routed(self, shape):
        m = ShardedMcat(zone=ZONE, **shape)
        assert not set(MCAT_OPS) & set(vars(m))
        assert m.shards[0].primary.db._observer is not None
