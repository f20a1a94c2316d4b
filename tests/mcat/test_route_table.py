"""The catalog's route table (repro.mcat.shard.ROUTES): it is complete,
what it generates are real methods, and one partition with no replica
is bound straight through."""

import ast
import inspect

import pytest

from repro.mcat import Mcat, ShardedMcat
from repro.mcat.shard import COMPOSED, MCAT_OPS, ROUTES

ZONE = "demozone"

#: the front's own API: where a path lives, and the replica/repair ops
FRONT_ONLY = {"shard_of_path", "shard_stats", "replication_lag",
              "partition_replica", "heal_replica", "anti_entropy",
              "compact_log"}


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
            - {"cid_cache_hits", "busy_s"}
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
