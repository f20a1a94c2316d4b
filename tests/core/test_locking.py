"""Unit tests for locks, pins and checkout/checkin."""

import pytest

from repro.auth.users import Principal
from repro.core.locking import LockManager
from repro.errors import (
    AlreadyCheckedOut,
    LockConflict,
    LockError,
    NotCheckedOut,
)
from repro.mcat import Mcat
from repro.util.clock import SimClock

SEKAR = Principal.parse("sekar@sdsc")
MOORE = Principal.parse("moore@sdsc")


def row(lm, oid):
    """The object's row as it stands: what an op holds when it asks."""
    return lm.mcat.get_objects_by_ids([oid])[0]


@pytest.fixture
def env():
    clock = SimClock()
    mcat = Mcat(clock=None)
    mcat.create_collection("/demozone/c", str(SEKAR), now=0.0)
    oid = mcat.create_object("/demozone/c/x", "data", str(SEKAR), now=0.0)
    return LockManager(mcat, clock), oid, clock


class TestSharedLocks:
    def test_shared_allows_reads_by_others(self, env):
        lm, oid, _ = env
        lm.lock(oid, SEKAR, "shared")
        lm.check_read(row(lm, oid), MOORE)            # no raise

    def test_shared_blocks_writes_by_others(self, env):
        lm, oid, _ = env
        lm.lock(oid, SEKAR, "shared")
        with pytest.raises(LockConflict):
            lm.check_write(row(lm, oid), MOORE)

    def test_shared_allows_holder_writes(self, env):
        lm, oid, _ = env
        lm.lock(oid, SEKAR, "shared")
        lm.check_write(row(lm, oid), SEKAR)

    def test_two_shared_locks_coexist(self, env):
        lm, oid, _ = env
        lm.lock(oid, SEKAR, "shared")
        lm.lock(oid, MOORE, "shared")
        assert len(lm.locks_on(oid)) == 2


class TestExclusiveLocks:
    def test_exclusive_blocks_reads(self, env):
        lm, oid, _ = env
        lm.lock(oid, SEKAR, "exclusive")
        with pytest.raises(LockConflict):
            lm.check_read(row(lm, oid), MOORE)

    def test_exclusive_allows_holder(self, env):
        lm, oid, _ = env
        lm.lock(oid, SEKAR, "exclusive")
        lm.check_read(row(lm, oid), SEKAR)
        lm.check_write(row(lm, oid), SEKAR)

    def test_exclusive_over_foreign_shared_rejected(self, env):
        lm, oid, _ = env
        lm.lock(oid, SEKAR, "shared")
        with pytest.raises(LockConflict):
            lm.lock(oid, MOORE, "exclusive")

    def test_shared_over_foreign_exclusive_rejected(self, env):
        lm, oid, _ = env
        lm.lock(oid, SEKAR, "exclusive")
        with pytest.raises(LockConflict):
            lm.lock(oid, MOORE, "shared")

    def test_unknown_type_rejected(self, env):
        lm, oid, _ = env
        with pytest.raises(LockError):
            lm.lock(oid, SEKAR, "advisory")


class TestExpiryAndUnlock:
    def test_lock_expires(self, env):
        lm, oid, clock = env
        lm.lock(oid, SEKAR, "exclusive", lifetime_s=100.0)
        clock.advance(101.0)
        lm.check_write(row(lm, oid), MOORE)           # expired -> no conflict
        assert lm.locks_on(oid) == []

    def test_unlock_releases(self, env):
        lm, oid, _ = env
        lm.lock(oid, SEKAR, "exclusive")
        assert lm.unlock(oid, SEKAR) == 1
        lm.check_write(row(lm, oid), MOORE)

    def test_unlock_only_own_locks(self, env):
        lm, oid, _ = env
        lm.lock(oid, SEKAR, "shared")
        assert lm.unlock(oid, MOORE) == 0
        assert len(lm.locks_on(oid)) == 1


class TestPins:
    def test_pin_and_query(self, env):
        lm, oid, _ = env
        lm.pin(oid, "cache-res", SEKAR)
        assert lm.is_pinned(oid, "cache-res")
        assert not lm.is_pinned(oid, "other-res")
        assert lm.is_pinned(oid)             # any resource

    def test_pin_expires(self, env):
        lm, oid, clock = env
        lm.pin(oid, "cache-res", SEKAR, lifetime_s=10.0)
        clock.advance(11.0)
        assert not lm.is_pinned(oid, "cache-res")

    def test_unpin(self, env):
        lm, oid, _ = env
        lm.pin(oid, "cache-res", SEKAR)
        assert lm.unpin(oid, "cache-res", SEKAR) == 1
        assert not lm.is_pinned(oid)

    def test_unpin_wrong_holder_noop(self, env):
        lm, oid, _ = env
        lm.pin(oid, "cache-res", SEKAR)
        assert lm.unpin(oid, "cache-res", MOORE) == 0
        assert lm.is_pinned(oid)


class TestCheckoutCheckin:
    def test_checkout_blocks_other_writers(self, env):
        lm, oid, _ = env
        lm.checkout(row(lm, oid), SEKAR)
        with pytest.raises(LockConflict):
            lm.check_write(row(lm, oid), MOORE)
        lm.check_write(row(lm, oid), SEKAR)

    def test_double_checkout_rejected(self, env):
        lm, oid, _ = env
        lm.checkout(row(lm, oid), SEKAR)
        with pytest.raises(AlreadyCheckedOut):
            lm.checkout(row(lm, oid), MOORE)

    def test_checkin_requires_checkout(self, env):
        lm, oid, _ = env
        with pytest.raises(NotCheckedOut):
            lm.checkin(row(lm, oid), SEKAR)

    def test_checkin_by_other_user_rejected(self, env):
        lm, oid, _ = env
        lm.checkout(row(lm, oid), SEKAR)
        with pytest.raises(LockConflict):
            lm.checkin(row(lm, oid), MOORE)

    def test_checkin_bumps_version(self, env):
        lm, oid, _ = env
        lm.checkout(row(lm, oid), SEKAR)
        assert lm.checkin(row(lm, oid), SEKAR) == 2
        assert lm.mcat.get_objects_by_ids([oid])[0]["version"] == 2
        assert lm.mcat.get_objects_by_ids([oid])[0]["checked_out_by"] is None

    def test_version_records(self, env):
        lm, oid, _ = env
        lm.checkout(row(lm, oid), SEKAR)
        lm.record_version(row(lm, oid), "res", "/old/path", 42, SEKAR)
        lm.checkin(row(lm, oid), SEKAR)
        versions = lm.versions_of(oid)
        assert len(versions) == 1
        assert versions[0]["version_num"] == 1
        assert versions[0]["physical_path"] == "/old/path"

    def test_repeated_cycles_distinct_versions(self, env):
        lm, oid, _ = env
        for expected in (2, 3, 4):
            lm.checkout(row(lm, oid), SEKAR)
            lm.record_version(row(lm, oid), "res", f"/v{expected - 1}", 1, SEKAR)
            assert lm.checkin(row(lm, oid), SEKAR) == expected
        nums = [v["version_num"] for v in lm.versions_of(oid)]
        assert nums == [1, 2, 3]
