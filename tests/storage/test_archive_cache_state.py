"""The archive's disk-cache state: what ``pin`` brings online, and the
running count of cached bytes eviction reads.

``pin`` is SRM's bring-online: a pinned tape-resident file is staged at
pin time, charged and counted as a read's stage is, so the pinned copy
is online (:meth:`~repro.storage.base.StorageDriver.is_online`) and its
next read stages nothing.

``_evict_if_needed`` reads a running count of cached bytes instead of
re-summing the cache per victim.  The re-summing method it replaced is
kept below as the oracle: over random operation sequences the count
equals the sum of the cached buffers and the evictions are the oracle's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SrbError
from repro.obs import Observability
from repro.storage.archive import ArchiveDriver
from repro.util.clock import SimClock
from repro.workload import standard_grid
from tests.probes import counter


def observed_archive(**kwargs):
    clock = SimClock()
    arc = ArchiveDriver(clock=clock, **kwargs)
    arc.attach_obs(Observability(clock), label="tape1")
    return arc, clock


def stages_counted(arc):
    return counter(arc.obs.metrics, "storage.stages", driver="tape1")


class TestPinStages:
    def test_pin_of_a_tape_resident_file_brings_it_online(self):
        arc, _clock = observed_archive()
        arc.create("/f", b"x" * 1000)
        arc.purge_cache()
        assert not arc.is_online("/f")
        arc.pin("/f")
        assert arc.is_online("/f")
        assert arc.stages == 1
        arc.read("/f")
        assert arc.stages == 1          # the read staged nothing

    def test_pin_stage_is_charged_and_counted_as_a_reads_stage(self):
        pinned, pin_clock = observed_archive()
        read, read_clock = observed_archive()
        for arc in (pinned, read):
            arc.create("/f", b"x" * 5000)
            arc.purge_cache()
        t0 = pin_clock.now
        pinned.pin("/f")
        pin_cost = pin_clock.now - t0
        t0 = read_clock.now
        read.read("/f")
        stage_cost = read_clock.now - t0 - read.cost.read_cost(5000)
        assert pin_cost == pytest.approx(stage_cost)
        assert pin_cost >= pinned.tape_cost.tape_mount_s
        assert stages_counted(pinned) == stages_counted(read) == 1
        assert pinned.tape_mounts == read.tape_mounts == 1

    def test_pin_of_a_cached_file_costs_nothing(self):
        arc, clock = observed_archive()
        arc.create("/f", b"x" * 1000)
        t0 = clock.now
        arc.pin("/f")
        assert clock.now == t0 and arc.stages == 0

    def test_a_staged_pin_survives_eviction(self):
        arc, _clock = observed_archive(cache_capacity_bytes=250)
        arc.create("/a", b"x" * 100)
        arc.create("/b", b"x" * 100)
        arc.purge_cache()
        arc.pin("/a")
        arc.read("/b")
        arc.create("/c", b"x" * 100)    # over capacity: /b is the victim
        assert arc.is_online("/a") and arc.is_online("/c")
        assert not arc.is_online("/b")

    def test_pin_op_after_a_cache_sweep_stages_the_replica(self):
        g = standard_grid()
        path = f"{g.home}/swept.dat"
        g.curator.ingest(path, b"tape me", resource="hpss-caltech")
        g.fed.cache_sweep()
        drv = g.fed.resources.physical("hpss-caltech").driver
        phys = g.curator.stat(path)["replicas"][0]["physical_path"]
        assert not drv.is_online(phys)
        stages = drv.stages
        g.curator.pin(path, "hpss-caltech")
        assert drv.is_online(phys) and drv.stages == stages + 1
        assert g.fed.cache_sweep() == {"hpss-caltech": 0}   # pinned
        assert g.curator.get(path) == b"tape me"
        assert drv.stages == stages + 1       # the read staged nothing


class TestAFileLargerThanTheCache:
    """Eviction once picked the entry just put when every older one was
    pinned or gone, and the access that put it then found it missing
    (``KeyError``): such a file could be neither created nor read."""

    def test_create_and_read_overflow_the_cache(self):
        arc, _clock = observed_archive(cache_capacity_bytes=100)
        arc.create("/big", b"x" * 300)
        assert arc.is_online("/big")
        arc.purge_cache()
        assert arc.read("/big") == b"x" * 300
        assert arc.stages == 1

    def test_the_next_put_evicts_the_overflowing_file(self):
        arc, _clock = observed_archive(cache_capacity_bytes=100)
        arc.create("/big", b"x" * 300)
        arc.create("/small", b"x" * 10)
        assert not arc.is_online("/big") and arc.is_online("/small")
        assert arc.read("/big") == b"x" * 300


# -- the running count of cached bytes ------------------------------------------

class ResummingArchive(ArchiveDriver):
    """The archive with the eviction it had before the running count:
    the whole cache re-summed for every victim."""

    def _evict_if_needed(self) -> None:
        if self.cache_capacity_bytes is None:
            return
        def used() -> int:
            return sum(len(b) for b in self._cache.values())
        idx = 0
        while used() > self.cache_capacity_bytes and idx < len(self._cache_order):
            victim = self._cache_order[idx]
            if victim in self._pinned:
                idx += 1            # skip pinned entries
                continue
            self._migrate(victim)
            self._cache_order.pop(idx)
            del self._cache[victim]


PATHS = st.sampled_from(["/a", "/b", "/c", "/d"])
SIZES = st.integers(min_value=0, max_value=120)
OPS = st.one_of(
    st.tuples(st.just("create"), PATHS, SIZES),
    st.tuples(st.just("write"), PATHS, SIZES,
              st.integers(min_value=0, max_value=130)),
    st.tuples(st.just("append"), PATHS, SIZES),
    st.tuples(st.just("read"), PATHS),
    st.tuples(st.just("delete"), PATHS),
    st.tuples(st.just("pin"), PATHS),
    st.tuples(st.just("unpin"), PATHS),
    st.tuples(st.just("purge"),),
)


def apply(arc, op):
    kind, args = op[0], op[1:]
    if kind == "create":
        arc.create(args[0], b"c" * args[1])
    elif kind == "write":
        arc.write(args[0], b"w" * args[1], offset=args[2])
    elif kind == "append":
        arc.append(args[0], b"a" * args[1])
    elif kind == "read":
        arc.read(args[0])
    elif kind == "delete":
        arc.delete(args[0])
    elif kind == "pin":
        arc.pin(args[0])
    elif kind == "unpin":
        arc.unpin(args[0])
    else:
        arc.purge_cache()


def outcome(arc, op):
    try:
        apply(arc, op)
    except SrbError as exc:
        return type(exc).__name__
    except KeyError:        # the entry just put was evicted from under it
        return "KeyError"
    return None


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(OPS, max_size=40),
       capacity=st.one_of(st.none(), st.integers(min_value=0,
                                                 max_value=300)))
def test_the_count_is_the_cache_and_evicts_as_the_resum_did(ops, capacity):
    arc = ArchiveDriver(clock=SimClock(), cache_capacity_bytes=capacity)
    oracle = ResummingArchive(clock=SimClock(),
                              cache_capacity_bytes=capacity)
    for op in ops:
        want = outcome(oracle, op)
        got = outcome(arc, op)
        if want == "KeyError":
            # where the oracle evicted the file it had just put, the
            # archive keeps it (TestAFileLargerThanTheCache); the
            # states part here
            assert got != "KeyError" and arc._cache_order[-1] == op[1], op
            assert arc._cached_bytes == sum(
                len(b) for b in arc._cache.values())
            return
        assert got == want, op
        assert arc._cached_bytes == sum(len(b) for b in arc._cache.values())
        assert arc._cache_order == oracle._cache_order, op
        assert arc._cache == oracle._cache
        assert arc._tape == oracle._tape
        assert arc.stages == oracle.stages
