"""Stateful property test: sharded catalog under partitions and repair.

A hypothesis RuleBasedStateMachine drives a ShardedMcat (3 shards, one
replica each) with a mix of creates, deletes, metadata writes,
cross-shard renames, replica partitions/heals and anti-entropy passes,
while keeping a plain-Python model of the expected namespace.  The
invariants assert, after every rule, that:

* every object the model knows resolves (reads may be served by a
  replica that was partitioned mid-write and later healed),
* there is no catalog row without a reachable copy — every replica row
  points at a live object row on some shard,
* there are no orphaned rows — metadata rows always have a live target,
* the id directories route every live oid/cid to the shard that holds
  the row.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import SrbError
from repro.mcat import ShardedMcat

OWNER = "sekar@sdsc"
ZONE = "demozone"
PROJECTS = ["alpha", "beta", "gamma", "delta", "epsilon"]
NAMES = [f"f{i}" for i in range(5)]


class ShardRepairMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        # a replica catches up before it serves a read, so the model
        # invariants can demand exact resolution after every rule
        self.m = ShardedMcat(zone=ZONE, shards=3, replicas=1)
        for proj in PROJECTS:
            self.m.create_collection(f"/{ZONE}/{proj}", OWNER, now=0.0)
        self.model = {}      # path -> oid
        self.now = 0.0

    def tick(self):
        self.now += 1.0
        return self.now

    # -- rules ----------------------------------------------------------

    @rule(proj=st.sampled_from(PROJECTS), name=st.sampled_from(NAMES))
    def create(self, proj, name):
        path = f"/{ZONE}/{proj}/{name}"
        if path in self.model:
            return
        oid = self.m.create_object(path, "data", OWNER, now=self.tick())
        self.m.add_replica(oid, "r0", f"/vault{path}", 64, now=self.now)
        self.model[path] = oid

    @rule(proj=st.sampled_from(PROJECTS), name=st.sampled_from(NAMES))
    def delete(self, proj, name):
        path = f"/{ZONE}/{proj}/{name}"
        oid = self.model.pop(path, None)
        if oid is None:
            return
        for rep in self.m.replicas(oid):
            self.m.remove_replica(oid, rep["replica_num"])
        self.m.delete_object(oid)

    @rule(proj=st.sampled_from(PROJECTS), name=st.sampled_from(NAMES),
          value=st.text(min_size=1, max_size=6, alphabet="abcdef123"))
    def tag(self, proj, name, value):
        oid = self.model.get(f"/{ZONE}/{proj}/{name}")
        if oid is None:
            return
        self.m.add_metadata("object", oid, "tag", value, by=OWNER,
                            now=self.tick())

    @rule(src=st.sampled_from(PROJECTS), dst=st.sampled_from(PROJECTS))
    def rename_across(self, src, dst):
        if src == dst:
            return
        old, new = f"/{ZONE}/{src}", f"/{ZONE}/{dst}/sub"
        if self.m.lookup(new) is not None \
                or any(p.startswith(new + "/") or p == new
                       for p in self.model):
            return
        try:
            moved = self.m.rename_subtree(old, new)
        except SrbError:
            return
        assert moved >= 1
        remap = {}
        for path, oid in self.model.items():
            if path.startswith(old + "/"):
                remap[new + path[len(old):]] = oid
            else:
                remap[path] = oid
        self.model = remap
        # the partition root must survive renames (it is recreated by
        # rename only when the whole subtree moved away)
        if self.m.lookup(old) is None:
            self.m.create_collection(old, OWNER, now=self.tick())

    @rule(k=st.integers(min_value=0, max_value=2))
    def partition(self, k):
        self.m.partition_replica(k, 0)

    @rule(k=st.integers(min_value=0, max_value=2))
    def heal(self, k):
        self.m.heal_replica(k, 0)

    @rule()
    def repair(self):
        reachable = sum(1 for s in self.m.shards for r in s.replicas
                        if not r.partitioned)
        stats = self.m.anti_entropy()
        assert stats["checked"] == reachable
        # after repair every reachable replica is caught up
        assert self.m.replication_lag() == 0

    @rule()
    def compact(self):
        self.m.compact_log()

    # -- invariants -----------------------------------------------------

    def primaries(self):
        return [s.primary for s in self.m.shards]

    @invariant()
    def model_objects_resolve(self):
        if not hasattr(self, "m"):
            return
        for path, oid in self.model.items():
            row = self.m.get_object(path)
            assert row["oid"] == oid

    @invariant()
    def no_row_without_reachable_copy(self):
        if not hasattr(self, "m"):
            return
        live_oids = set()
        for p in self.primaries():
            t = p.db.table("objects")
            live_oids |= {t.value(r, "oid") for r in t.scan()}
        assert live_oids == set(self.model.values())
        for p in self.primaries():
            t = p.db.table("replicas")
            for rid in t.scan():
                assert t.value(rid, "oid") in live_oids

    @invariant()
    def no_orphaned_metadata(self):
        if not hasattr(self, "m"):
            return
        live_oids = set(self.model.values())
        for p in self.primaries():
            t = p.db.table("metadata")
            for rid in t.scan():
                if t.value(rid, "target_kind") == "object":
                    assert t.value(rid, "target_id") in live_oids

    @invariant()
    def directories_route_to_owning_shard(self):
        if not hasattr(self, "m"):
            return
        for k, p in enumerate(self.primaries()):
            t = p.db.table("objects")
            for rid in t.scan():
                oid = t.value(rid, "oid")
                assert self.m._shard_of_id("oid", oid) == k


ShardRepairMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

TestShardRepairMachine = ShardRepairMachine.TestCase
