"""Stateful property test: random operation sequences vs a model.

A hypothesis RuleBasedStateMachine drives a single-zone grid with a mix
of namespace, data, replication, locking and metadata operations while
maintaining a plain-Python model of the expected state.  After every
rule the invariants assert that:

* every live object's bytes match the model (default read),
* the namespace listing matches the model exactly,
* replica bookkeeping stays consistent (numbers unique, exactly one
  clean copy after unsynced writes, none dirty after synchronize),
* the virtual clock never goes backwards,
* the grid breaks none of ``tests/invariants.py``'s invariants.

A second client, on a host of its own, ingests onto a remote and a
logical resource and into a container, with payloads that are
sometimes larger than one relay block, so the walk crosses the relay.

The same machine walks a catalog of two partitions with a read replica
each (``Federation(mcat_shards=2, mcat_replicas=1)``): replicas serve
reads, and no replica diverges from its primary.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import Federation, SrbClient
from repro.core.planes.base import RELAY_BLOCK
from repro.errors import LockConflict, SrbError
from tests.invariants import check_invariants

NAMES = [f"f{i}" for i in range(6)]
COLL = "/z/w"
MEMBERS = [f"m{i}" for i in range(3)]
MEMBER_COLL = "/z/c"
BOX = "/z/box"
#: a few bytes, or a few bytes repeated past one relay block
PAYLOADS = st.one_of(
    st.binary(min_size=1, max_size=40),
    st.binary(min_size=1, max_size=4).map(
        lambda b: b * (RELAY_BLOCK // len(b) + 1)))


class GridMachine(RuleBasedStateMachine):
    #: the federation's knobs
    KNOBS = {}

    @initialize()
    def build(self):
        self.fed = Federation(zone="z", **self.KNOBS)
        self.fed.add_host("h0")
        self.fed.add_host("h1")
        self.fed.add_server("s0", "h0", mcat=True)
        self.fed.add_fs_resource("r0", "h0")
        self.fed.add_fs_resource("r1", "h1")
        self.fed.default_resource = "r0"
        self.fed.bootstrap_admin()
        self.client = SrbClient(self.fed, "h0", "s0", "srbadmin@sdsc",
                                "hunter2")
        self.client.login()
        self.client.mkcoll(COLL)
        self.model = {}           # name -> bytes
        self.locked = set()       # names currently exclusively locked
        self.last_clock = self.fed.clock.now
        self.fed.add_host("h2")
        self.fed.add_logical_resource("both", ["r0", "r1"])
        self.far = SrbClient(self.fed, "h2", "s0", "srbadmin@sdsc",
                             "hunter2")
        self.far.login()
        self.client.mkcoll(MEMBER_COLL)
        self.client.create_container(BOX, "both")
        self.members = {}         # container member name -> bytes

    # -- rules -----------------------------------------------------------

    @rule(name=st.sampled_from(NAMES), data=st.binary(min_size=1,
                                                      max_size=40))
    def ingest(self, name, data):
        if name in self.model:
            return
        self.client.ingest(f"{COLL}/{name}", data)
        self.model[name] = data

    @rule(name=st.sampled_from(NAMES), data=st.binary(min_size=1,
                                                      max_size=40))
    def put(self, name, data):
        if name not in self.model:
            return
        self.client.put(f"{COLL}/{name}", data)
        self.model[name] = data

    @rule(name=st.sampled_from(NAMES))
    def replicate(self, name):
        if name not in self.model:
            return
        oid = self.fed.mcat.get_object(f"{COLL}/{name}")["oid"]
        if len(self.fed.mcat.replicas(oid)) >= 3:
            return
        self.client.replicate(f"{COLL}/{name}", "r1")

    @rule(name=st.sampled_from(NAMES))
    def synchronize(self, name):
        if name not in self.model:
            return
        self.client.synchronize(f"{COLL}/{name}")
        oid = self.fed.mcat.get_object(f"{COLL}/{name}")["oid"]
        assert all(not r["is_dirty"] for r in self.fed.mcat.replicas(oid))

    @rule(name=st.sampled_from(NAMES))
    def delete(self, name):
        if name not in self.model:
            return
        self.client.delete(f"{COLL}/{name}")
        del self.model[name]
        self.locked.discard(name)

    @rule(src=st.sampled_from(NAMES), dst=st.sampled_from(NAMES))
    def move(self, src, dst):
        if src not in self.model or dst in self.model or src == dst:
            return
        self.client.move(f"{COLL}/{src}", f"{COLL}/{dst}")
        self.model[dst] = self.model.pop(src)
        if src in self.locked:
            self.locked.discard(src)
            self.locked.add(dst)

    @rule(name=st.sampled_from(NAMES))
    def lock_exclusive(self, name):
        if name not in self.model or name in self.locked:
            return
        self.client.lock(f"{COLL}/{name}", "exclusive")
        self.locked.add(name)

    @rule(name=st.sampled_from(NAMES))
    def unlock(self, name):
        if name not in self.model:
            return
        self.client.unlock(f"{COLL}/{name}")
        self.locked.discard(name)

    @rule(name=st.sampled_from(NAMES),
          attr=st.sampled_from(["a", "b"]),
          value=st.text(min_size=1, max_size=8,
                        alphabet="abcdefghij0123456789"))
    def add_metadata(self, name, attr, value):
        if name not in self.model:
            return
        self.client.add_metadata(f"{COLL}/{name}", attr, value)

    @rule(name=st.sampled_from(NAMES), data=PAYLOADS,
          resource=st.sampled_from(["r1", "both"]))
    def ingest_far(self, name, data, resource):
        if name in self.model:
            return
        self.far.ingest(f"{COLL}/{name}", data, resource=resource)
        self.model[name] = data

    @rule(name=st.sampled_from(NAMES), data=PAYLOADS)
    def checkin(self, name, data):
        if name not in self.model:
            return
        self.client.checkout(f"{COLL}/{name}")
        self.client.checkin(f"{COLL}/{name}", data=data)
        self.model[name] = data

    @rule(name=st.sampled_from(MEMBERS), data=PAYLOADS, far=st.booleans())
    def ingest_member(self, name, data, far):
        if name in self.members:
            return
        client = self.far if far else self.client
        client.ingest(f"{MEMBER_COLL}/{name}", data, container=BOX)
        self.members[name] = data

    @rule(name=st.sampled_from(MEMBERS), data=PAYLOADS)
    def put_member(self, name, data):
        if name not in self.members:
            return
        self.far.put(f"{MEMBER_COLL}/{name}", data)
        self.members[name] = data

    @rule(name=st.sampled_from(MEMBERS))
    def delete_member(self, name):
        if name not in self.members:
            return
        self.client.delete(f"{MEMBER_COLL}/{name}")
        del self.members[name]

    @rule()
    def sync_box(self):
        self.client.sync_container(BOX)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def contents_match_model(self):
        if not hasattr(self, "model"):
            return
        for name, data in self.model.items():
            # the owner holds its own locks, so reads always succeed
            assert self.client.get(f"{COLL}/{name}") == data

    @invariant()
    def listing_matches_model(self):
        if not hasattr(self, "model"):
            return
        listed = {o["name"] for o in self.client.ls(COLL)["objects"]}
        assert listed == set(self.model)

    @invariant()
    def replica_bookkeeping_consistent(self):
        if not hasattr(self, "model"):
            return
        for name in self.model:
            oid = self.fed.mcat.get_object(f"{COLL}/{name}")["oid"]
            reps = self.fed.mcat.replicas(oid)
            nums = [r["replica_num"] for r in reps]
            assert len(nums) == len(set(nums))
            assert any(not r["is_dirty"] for r in reps)

    @invariant()
    def clock_monotone(self):
        if not hasattr(self, "fed"):
            return
        assert self.fed.clock.now >= self.last_clock
        self.last_clock = self.fed.clock.now

    @invariant()
    def members_match_model(self):
        if not hasattr(self, "members"):
            return
        for name, data in self.members.items():
            assert self.far.get(f"{MEMBER_COLL}/{name}") == data

    @invariant()
    def grid_breaks_no_invariant(self):
        if not hasattr(self, "fed"):
            return
        assert check_invariants(self.fed) == []


class ReplicatedGridMachine(GridMachine):
    KNOBS = {"mcat_shards": 2, "mcat_replicas": 1}

    @invariant()
    def replicas_serve_reads(self):
        if not hasattr(self, "fed"):
            return
        assert self.fed.obs.metrics.total("mcat.shard.replica_reads") > 0


GridMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
ReplicatedGridMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

TestGridMachine = GridMachine.TestCase
TestReplicatedGridMachine = ReplicatedGridMachine.TestCase
