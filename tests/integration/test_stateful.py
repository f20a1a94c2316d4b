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

Faults are rules too: the storage host ``h1`` goes down and comes back,
a partition cuts it off from the server's host ``h0`` and heals, and on
the replicated catalog a read replica is cut off and healed.  While the
server cannot reach ``h1`` an op may fail with a typed ``SrbError``; the
model takes that as no change, and every invariant must still hold —
so a failed op that changed anything is caught at that step.  A read
may fail only when no clean copy of its bytes is on a host the server
reaches.  Replays of what the partition rule guards — a ``delete``, a
``checkin``, a ``compact_container`` and an ``unpin`` refused across a
partition, leaving bytes, rows and pins as they were and reading no
byte there — are the tests after the machines.

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

import pytest

from repro.core import Federation, SrbClient
from repro.core.planes.base import RELAY_BLOCK
from repro.errors import HostUnreachable, LockConflict, SrbError
from repro.workload import standard_grid
from tests.invariants import check_invariants

NAMES = [f"f{i}" for i in range(6)]
COLL = "/z/w"
MEMBERS = [f"m{i}" for i in range(3)]
MEMBER_COLL = "/z/c"
BOX = "/z/box"
#: the storage host the fault rules take down, cut off, and bring back
STORAGE_HOST = "h1"
#: the host of the server every client calls
SERVER_HOST = "h0"
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

    # -- faults ------------------------------------------------------------

    def _faulted(self) -> bool:
        """Can the server not reach the storage host (down, or cut off
        by a partition), so that an op may fail?"""
        return not self.fed.network.reachable(SERVER_HOST, STORAGE_HOST)

    def _done(self, call, *args, **kwargs) -> bool:
        """Run one client call.  While a host is down it may fail with
        a typed ``SrbError``: False, and the model does not change."""
        try:
            call(*args, **kwargs)
        except SrbError:
            if not self._faulted():
                raise
            return False
        return True

    def _reachable(self, path: str) -> bool:
        """Is a clean copy of ``path``'s bytes (a member's: of its
        container's) on a host the server reaches?"""
        mcat, fed = self.fed.mcat, self.fed
        reps = mcat.replicas(mcat.get_object(path)["oid"])
        if reps and reps[0]["container_oid"] is not None:
            reps = mcat.replicas(reps[0]["container_oid"])
        return any(not r["is_dirty"] and fed.network.reachable(
            SERVER_HOST, fed.resources.physical(r["resource"]).host)
            for r in reps)

    def _read_matches(self, client, path: str, data: bytes) -> None:
        """A read answers the model's bytes, or fails only when no
        clean copy is reachable."""
        try:
            got = client.get(path)
        except SrbError:
            assert self._faulted() and not self._reachable(path), path
            return
        assert got == data, path

    @rule()
    def set_down(self):
        self.fed.network.set_down(STORAGE_HOST)

    @rule()
    def set_up(self):
        self.fed.network.set_up(STORAGE_HOST)

    @rule()
    def partition(self):
        self.fed.network.partition(SERVER_HOST, STORAGE_HOST)

    @rule()
    def heal(self):
        self.fed.network.heal(SERVER_HOST, STORAGE_HOST)

    # -- rules -----------------------------------------------------------

    @rule(name=st.sampled_from(NAMES), data=st.binary(min_size=1,
                                                      max_size=40))
    def ingest(self, name, data):
        if name in self.model:
            return
        if self._done(self.client.ingest, f"{COLL}/{name}", data):
            self.model[name] = data

    @rule(name=st.sampled_from(NAMES), data=st.binary(min_size=1,
                                                      max_size=40))
    def put(self, name, data):
        if name not in self.model:
            return
        if self._done(self.client.put, f"{COLL}/{name}", data):
            self.model[name] = data

    @rule(name=st.sampled_from(NAMES))
    def replicate(self, name):
        if name not in self.model:
            return
        oid = self.fed.mcat.get_object(f"{COLL}/{name}")["oid"]
        if len(self.fed.mcat.replicas(oid)) >= 3:
            return
        self._done(self.client.replicate, f"{COLL}/{name}", "r1")

    @rule(name=st.sampled_from(NAMES))
    def synchronize(self, name):
        if name not in self.model:
            return
        if not self._done(self.client.synchronize, f"{COLL}/{name}"):
            return
        oid = self.fed.mcat.get_object(f"{COLL}/{name}")["oid"]
        assert all(not r["is_dirty"] for r in self.fed.mcat.replicas(oid))

    @rule(name=st.sampled_from(NAMES))
    def delete(self, name):
        if name not in self.model:
            return
        if self._done(self.client.delete, f"{COLL}/{name}"):
            del self.model[name]
            self.locked.discard(name)

    @rule(src=st.sampled_from(NAMES), dst=st.sampled_from(NAMES))
    def move(self, src, dst):
        if src not in self.model or dst in self.model or src == dst:
            return
        if not self._done(self.client.move, f"{COLL}/{src}",
                          f"{COLL}/{dst}"):
            return
        self.model[dst] = self.model.pop(src)
        if src in self.locked:
            self.locked.discard(src)
            self.locked.add(dst)

    @rule(name=st.sampled_from(NAMES))
    def lock_exclusive(self, name):
        if name not in self.model or name in self.locked:
            return
        if self._done(self.client.lock, f"{COLL}/{name}", "exclusive"):
            self.locked.add(name)

    @rule(name=st.sampled_from(NAMES))
    def unlock(self, name):
        if name not in self.model:
            return
        if self._done(self.client.unlock, f"{COLL}/{name}"):
            self.locked.discard(name)

    @rule(name=st.sampled_from(NAMES),
          attr=st.sampled_from(["a", "b"]),
          value=st.text(min_size=1, max_size=8,
                        alphabet="abcdefghij0123456789"))
    def add_metadata(self, name, attr, value):
        if name not in self.model:
            return
        self._done(self.client.add_metadata, f"{COLL}/{name}", attr, value)

    @rule(name=st.sampled_from(NAMES), data=PAYLOADS,
          resource=st.sampled_from(["r1", "both"]))
    def ingest_far(self, name, data, resource):
        if name in self.model:
            return
        if self._done(self.far.ingest, f"{COLL}/{name}", data,
                      resource=resource):
            self.model[name] = data

    @rule(name=st.sampled_from(NAMES), data=PAYLOADS)
    def checkin(self, name, data):
        if name not in self.model:
            return
        path = f"{COLL}/{name}"
        # a checkout whose checkin failed is still held: check in again
        if self.fed.mcat.get_object(path)["checked_out_by"] is None \
                and not self._done(self.client.checkout, path):
            return
        if self._done(self.client.checkin, path, data=data):
            self.model[name] = data

    @rule(name=st.sampled_from(MEMBERS), data=PAYLOADS, far=st.booleans())
    def ingest_member(self, name, data, far):
        if name in self.members:
            return
        client = self.far if far else self.client
        if self._done(client.ingest, f"{MEMBER_COLL}/{name}", data,
                      container=BOX):
            self.members[name] = data

    @rule(name=st.sampled_from(MEMBERS), data=PAYLOADS)
    def put_member(self, name, data):
        if name not in self.members:
            return
        if self._done(self.far.put, f"{MEMBER_COLL}/{name}", data):
            self.members[name] = data

    @rule(name=st.sampled_from(MEMBERS))
    def delete_member(self, name):
        if name not in self.members:
            return
        if self._done(self.client.delete, f"{MEMBER_COLL}/{name}"):
            del self.members[name]

    @rule()
    def sync_box(self):
        self._done(self.client.sync_container, BOX)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def contents_match_model(self):
        if not hasattr(self, "model"):
            return
        for name, data in self.model.items():
            # the owner holds its own locks: only a fault fails a read
            self._read_matches(self.client, f"{COLL}/{name}", data)

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
            self._read_matches(self.far, f"{MEMBER_COLL}/{name}", data)

    @invariant()
    def grid_breaks_no_invariant(self):
        if not hasattr(self, "fed"):
            return
        assert check_invariants(self.fed) == []


class ReplicatedGridMachine(GridMachine):
    KNOBS = {"mcat_shards": 2, "mcat_replicas": 1}

    @rule(k=st.sampled_from([0, 1]))
    def partition_replica(self, k):
        self.fed.mcat.partition_replica(k, 0)

    @rule(k=st.sampled_from([0, 1]))
    def heal_replica(self, k):
        self.fed.mcat.heal_replica(k, 0)

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


# -- replays: a server does not act on a host it cannot reach -------------------

def partitioned_grid():
    """``standard_grid()`` with the curator's ``f`` on ``unix-caltech``
    (ingested through ``srb1`` at sdsc), then sdsc cut off from
    caltech: ``(grid, path, its bytes, its oid)``."""
    grid = standard_grid()
    path, data = f"{grid.home}/f", b"x" * 1000
    oid = grid.curator.ingest(path, data, resource="unix-caltech")
    return grid, path, data, oid


def test_a_delete_across_a_partition_keeps_bytes_and_rows():
    grid, path, data, oid = partitioned_grid()
    fed = grid.fed
    (rep,) = fed.mcat.replicas(oid)
    fed.network.partition("sdsc", "caltech")
    with pytest.raises(HostUnreachable):
        grid.curator.delete(path)
    driver = fed.resources.physical("unix-caltech").driver
    assert driver.read(rep["physical_path"]) == data
    assert fed.mcat.replicas(oid) == [rep]
    fed.network.heal("sdsc", "caltech")
    grid.curator.delete(path)
    assert not driver.exists(rep["physical_path"])


def test_a_checkin_across_a_partition_writes_no_version():
    grid, path, data, oid = partitioned_grid()
    fed = grid.fed
    grid.curator.checkout(path)
    fed.network.partition("sdsc", "caltech")
    with pytest.raises(HostUnreachable):
        grid.curator.checkin(path)
    driver = fed.resources.physical("unix-caltech").driver
    assert not driver.exists(f"/srb/versions/{oid}-v1")
    assert fed.locks.versions_of(oid) == []
    assert fed.mcat.get_object(path)["checked_out_by"] is not None
    fed.network.heal("sdsc", "caltech")
    assert grid.curator.checkin(path) == 2
    assert driver.read(f"/srb/versions/{oid}-v1") == data


def test_a_refused_checkin_reads_no_byte_there():
    """The session to the resource refuses the checkin before the bytes
    it would copy aside are read from the host it cannot reach."""
    grid, path, _data, _oid = partitioned_grid()
    driver = grid.fed.resources.physical("unix-caltech").driver
    grid.curator.checkout(path)
    grid.fed.network.partition("sdsc", "caltech")
    read = driver.bytes_read
    with pytest.raises(HostUnreachable):
        grid.curator.checkin(path)
    assert driver.bytes_read == read


def test_a_refused_compaction_reads_no_byte_there():
    grid = standard_grid()
    box = f"{grid.home}/box"
    grid.curator.create_container(box, "unix-caltech")
    for name in ("a", "b"):
        grid.curator.ingest(f"{grid.home}/{name}", b"m" * 3000,
                            container=box)
    grid.curator.put(f"{grid.home}/a", b"n" * 3000)     # leaves garbage
    driver = grid.fed.resources.physical("unix-caltech").driver
    grid.fed.network.partition("sdsc", "caltech")
    read = driver.bytes_read
    with pytest.raises(HostUnreachable):
        grid.curator.compact_container(box)
    assert driver.bytes_read == read
    grid.fed.network.heal("sdsc", "caltech")
    assert grid.curator.compact_container(box) == 3000


def test_an_unpin_across_a_partition_keeps_the_rows_and_the_cache_pin():
    grid = standard_grid()
    fed, path = grid.fed, f"{grid.home}/p"
    oid = grid.curator.ingest(path, b"p" * 100, resource="hpss-caltech")
    grid.curator.pin(path, "hpss-caltech")
    (rep,) = fed.mcat.replicas(oid)
    archive = fed.resources.physical("hpss-caltech").driver
    fed.network.partition("sdsc", "caltech")
    with pytest.raises(HostUnreachable):
        grid.curator.unpin(path, "hpss-caltech")
    assert fed.locks.is_pinned(oid, "hpss-caltech")
    assert rep["physical_path"] in archive._pinned
    fed.network.heal("sdsc", "caltech")
    assert grid.curator.unpin(path, "hpss-caltech") == 1
    assert not fed.locks.is_pinned(oid, "hpss-caltech")
    assert rep["physical_path"] not in archive._pinned
