"""Unit tests for the tape-archive (HSM) storage model."""

import pytest

from repro.errors import AlreadyExists, NoSuchPhysicalFile
from repro.storage.archive import ArchiveDriver, TapeCost
from repro.util.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def arc(clock):
    return ArchiveDriver(clock=clock)


class TestBasicIO:
    def test_create_read(self, arc):
        arc.create("/f", b"data")
        assert arc.read("/f") == b"data"

    def test_duplicate_rejected(self, arc):
        arc.create("/f", b"")
        with pytest.raises(AlreadyExists):
            arc.create("/f", b"")

    def test_missing_file(self, arc):
        with pytest.raises(NoSuchPhysicalFile):
            arc.read("/nope")

    def test_write_and_append_update_tape_copy(self, arc):
        arc.create("/f", b"ab")
        arc.append("/f", b"cd")
        arc.write("/f", b"X", offset=0)
        arc.purge_cache()
        assert arc.read("/f") == b"Xbcd"

    def test_delete(self, arc):
        arc.create("/f", b"x")
        arc.delete("/f")
        assert not arc.exists("/f")

    def test_size_cached_and_uncached(self, arc):
        arc.create("/f", b"abc")
        assert arc.size("/f") == 3
        arc.purge_cache()
        assert arc.size("/f") == 3

    def test_list_dir(self, arc):
        arc.create("/d/a", b"")
        arc.create("/d/sub/b", b"")
        arc.purge_cache()
        assert arc.list_dir("/d") == ["a", "sub/"]


class TestStagingCosts:
    def test_create_lands_in_cache_cheaply(self, arc, clock):
        arc.create("/f", b"x" * 1000)
        assert clock.now < 1.0          # no tape mount on write

    def test_cached_read_is_cheap(self, arc, clock):
        arc.create("/f", b"x" * 1000)
        t0 = clock.now
        arc.read("/f")
        assert clock.now - t0 < 0.01

    def test_uncached_read_pays_mount_and_seek(self, arc, clock):
        arc.create("/f", b"x" * 1000)
        arc.purge_cache()
        t0 = clock.now
        arc.read("/f")
        cost = clock.now - t0
        assert cost >= arc.tape_cost.tape_mount_s + arc.tape_cost.tape_seek_s
        assert arc.stages == 1
        assert arc.tape_mounts == 1

    def test_mount_lingers_across_consecutive_stages(self, arc, clock):
        arc.create("/a", b"x"); arc.create("/b", b"x")
        arc.purge_cache()
        arc.read("/a")
        t0 = clock.now
        arc.read("/b")                   # within linger window
        assert clock.now - t0 < arc.tape_cost.tape_mount_s
        assert arc.tape_mounts == 1

    def test_mount_expires_after_linger(self, arc, clock):
        arc.create("/a", b"x"); arc.create("/b", b"x")
        arc.purge_cache()
        arc.read("/a")
        clock.advance(arc.tape_cost.mount_linger_s + 1)
        arc.read("/b")
        assert arc.tape_mounts == 2

    def test_second_read_hits_cache(self, arc):
        arc.create("/f", b"x")
        arc.purge_cache()
        arc.read("/f")
        stages_before = arc.stages
        arc.read("/f")
        assert arc.stages == stages_before


class TestCacheManagement:
    def test_purge_flushes_unpinned(self, arc):
        arc.create("/a", b"x")
        assert arc.is_online("/a")
        assert arc.purge_cache() == 1
        assert not arc.is_online("/a")
        assert arc.exists("/a")          # tape copy remains

    def test_pinned_survives_purge(self, arc):
        arc.create("/a", b"x")
        arc.pin("/a")
        assert arc.purge_cache() == 0
        assert arc.is_online("/a")

    def test_unpin_enables_purge(self, arc):
        arc.create("/a", b"x")
        arc.pin("/a")
        arc.unpin("/a")
        assert arc.purge_cache() == 1

    def test_delete_drops_the_pin(self, arc):
        """Whether a pinned copy may go is the catalog's to say; the
        cache's pin goes with the file."""
        arc.create("/a", b"x")
        arc.pin("/a")
        arc.delete("/a")
        assert not arc.exists("/a")
        assert not arc.is_pinned("/a")
        arc.create("/a", b"y")
        assert not arc.is_pinned("/a")

    def test_replace_keeps_the_pin(self, arc):
        arc.create("/a", b"x")
        arc.pin("/a")
        arc.replace("/a", b"yy")
        assert arc.read_all("/a") == b"yy"
        assert arc.is_pinned("/a")
        assert arc.purge_cache() == 0

    def test_lru_eviction_respects_capacity_and_pins(self, clock):
        arc = ArchiveDriver(clock=clock, cache_capacity_bytes=250)
        arc.create("/a", b"x" * 100)
        arc.create("/b", b"x" * 100)
        arc.pin("/a")
        arc.create("/c", b"x" * 100)   # over capacity: evict LRU unpinned (/b)
        assert arc.is_online("/a")
        assert not arc.is_online("/b")
        assert arc.is_online("/c")
        assert arc.exists("/b")         # still on tape

    def test_is_pinned(self, arc):
        arc.create("/a", b"x")
        assert not arc.is_pinned("/a")
        arc.pin("/a")
        assert arc.is_pinned("/a")

    def test_read_refreshes_lru(self, clock):
        arc = ArchiveDriver(clock=clock, cache_capacity_bytes=250)
        arc.create("/a", b"x" * 100)
        arc.create("/b", b"x" * 100)
        arc.read("/a")                  # /a becomes most-recent
        arc.create("/c", b"x" * 100)    # evicts /b, not /a
        assert arc.is_online("/a")
        assert not arc.is_online("/b")

    def test_used_bytes_counts_tape(self, arc):
        arc.create("/a", b"x" * 10)
        arc.purge_cache()
        assert arc.used_bytes() == 10
