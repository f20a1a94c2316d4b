"""The invariant checker (``tests/invariants.py``): a clean grid is
clean on every kind of driver, judging it costs the grid nothing, each
kind of finding is seen, the findings a design accepts are pinned as
those findings, and the four it found on purpose stay fixed."""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import PinnedFile, StorageFull
from repro.storage.archive import TapeCost
from tests.invariants import Finding, check_invariants, held_files

HOME = "/z/w"
BIG = bytes(range(256)) * 300          # 76,800 bytes: over a relay block


def build(**knobs):
    """Server ``s1`` on ``hs`` with a disk and a database resource
    beside it, a disk and a tape archive on ``hr``; the client on
    ``hc``."""
    fed = Federation(zone="z", **knobs)
    for host in ("hs", "hr", "hc"):
        fed.add_host(host)
    fed.add_server("s1", "hs", mcat=True)
    fed.add_fs_resource("disk", "hs")
    fed.add_database_resource("lobs", "hs")
    fed.add_fs_resource("far", "hr")
    fed.add_archive_resource("tape", "hr", tape=TapeCost())
    fed.add_logical_resource("pair", ["far", "disk"])
    fed.add_logical_resource("arch", ["far", "tape"])
    fed.default_resource = "disk"
    fed.bootstrap_admin()
    client = SrbClient(fed, "hc", "s1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll(HOME)
    return fed, client


def busy_grid():
    """Every kind of driver holding replicas, members, moved files and
    versions."""
    fed, client = build()
    for i, res in enumerate(("disk", "lobs", "far", "tape", "pair")):
        client.ingest(f"{HOME}/o{i}", BIG[i:], resource=res)
    client.create_container(HOME + "/box", "arch")
    client.ingest(HOME + "/m0", BIG, container=HOME + "/box")
    client.ingest(HOME + "/m1", b"small", container=HOME + "/box")
    client.put(HOME + "/m0", b"rewritten")
    client.replicate(HOME + "/o0", "tape")
    client.put(HOME + "/o4", BIG[::-1])
    client.physical_move(HOME + "/o1", "far")
    client.checkout(HOME + "/o2")
    client.checkin(HOME + "/o2", data=b"v2")
    client.copy(HOME + "/o3", HOME + "/o3.copy", resource="pair")
    return fed, client


def _paths(driver):
    return sorted(held_files(driver))


class TestACleanGrid:
    def test_every_kind_of_driver_and_write_is_clean(self):
        fed, client = busy_grid()
        assert check_invariants(fed) == []
        # dirty copies are not judged by their bytes, only kept
        client.synchronize(HOME + "/o4")
        client.sync_container(HOME + "/box")
        assert check_invariants(fed) == []

    def test_judging_charges_nothing(self):
        fed, _client = busy_grid()
        tape = fed.resources.physical("tape").driver
        tape.purge_cache()                  # judging must not stage
        drivers = [fed.resources.physical(name).driver
                   for name in fed.resources.physical_names()]

        def state():
            return (fed.clock.now, fed.obs.metrics.snapshot(),
                    [(d.ops, d.bytes_read, d.bytes_written)
                     for d in drivers],
                    dict(tape._cache), tape.stages,
                    fed.network.messages_sent)

        before = state()
        check_invariants(fed)
        assert state() == before


class TestEachFindingIsSeen:
    def test_a_row_without_its_bytes(self):
        fed, client = build()
        client.ingest(HOME + "/a", b"abc", resource="far")
        driver = fed.resources.physical("far").driver
        (path,) = _paths(driver)
        driver.delete(path)
        assert check_invariants(fed) == [
            Finding("missing-bytes", "far", path, "replica 1 of /z/w/a")]

    def test_a_member_past_the_end_of_its_container(self):
        fed, client = build()
        client.create_container(HOME + "/box", "arch")
        client.ingest(HOME + "/m", b"0123456789", container=HOME + "/box")
        driver = fed.resources.physical("far").driver
        (path,) = _paths(driver)
        driver.delete(path)
        driver.create(path, b"01234")
        assert check_invariants(fed) == [Finding(
            "member-outside-container", "far", path,
            "/z/w/m [0, 10) of 5 bytes")]

    def test_a_file_no_row_names(self):
        fed, _client = build()
        fed.resources.physical("lobs").driver.create("/srb/stray", b"x")
        fed.resources.physical("disk").driver.create("/elsewhere", b"x")
        assert check_invariants(fed) == [
            Finding("orphan-file", "lobs", "/srb/stray", "1 bytes, no row")]

    def test_a_clean_copy_that_is_not_the_object(self):
        fed, client = build()
        client.ingest(HOME + "/a", b"abc", resource="tape")
        driver = fed.resources.physical("tape").driver
        (path,) = _paths(driver)
        driver.write(path, b"x")
        assert check_invariants(fed) == [
            Finding("checksum-mismatch", "tape", path, "replica 1 of /z/w/a")]

    def test_a_catalog_replica_that_is_not_its_primary(self):
        fed, client = build(mcat_shards=2, mcat_replicas=1)
        client.ingest(HOME + "/a", b"abc", resource="far")
        client.stat(HOME + "/a")            # the replica serves, caught up
        assert check_invariants(fed) == []
        (shard,) = [s for s in fed.mcat.shards if s.log]
        (rep,) = shard.replicas
        objects = rep.catalog.db.table("objects")
        row = next(r for r in objects._rows if r is not None)
        saved = list(row)
        row[objects.column_names().index("size")] += 1
        where = f"shard {shard.index} replica 0"
        assert check_invariants(fed) == [Finding(
            "replica-diverged", where, "objects",
            "caught up, and not its primary's")]
        row[:] = saved
        rep.applied += 1
        assert check_invariants(fed) == [Finding(
            "replica-diverged", where, "",
            f"applied {rep.applied} of {shard.log_end()} log entries")]

    def test_a_station_with_work_in_flight(self):
        fed, _client = build(workers=2)
        station = fed.network.station("hs")
        admission = station.admit(fed.clock.now)
        assert check_invariants(fed) == [Finding(
            "station-in-flight", "hs", "", "1 of 2 workers checked out")]
        station.complete(admission, fed.clock.now)
        assert check_invariants(fed) == []


class TestByDesign:
    """Findings the paper's design accepts, pinned as those findings."""

    def test_an_ingested_replica_need_not_be_the_objects_bytes(self):
        """"SRB does not check whether a registered replica is really an
        equal of the other copy": a tiff beside a gif."""
        fed, client = build()
        client.ingest(HOME + "/img", b"tiff bytes")
        client.ingest_replica(HOME + "/img", b"gif bytes", "far")
        (path,) = _paths(fed.resources.physical("far").driver)
        assert check_invariants(fed) == [
            Finding("checksum-mismatch", "far", path,
                    "replica 2 of /z/w/img")]

    def test_an_unreachable_member_keeps_what_a_rollback_left(self):
        """The second member refuses the file, and the first became
        unreachable before the rollback could delete its copy: the bytes
        stay, charged as a timed-out message (``_rollback_created``).
        Nothing reaps them when the host returns."""
        fed, client = build()
        disk = fed.resources.physical("disk").driver

        def refuse(path, data):
            fed.network.set_down("hr")
            raise StorageFull("full")
        disk.create = refuse
        with pytest.raises(StorageFull):
            client.ingest(HOME + "/a", BIG, resource="pair")
        fed.network.set_up("hr")
        (path,) = _paths(fed.resources.physical("far").driver)
        assert check_invariants(fed) == [Finding(
            "orphan-file", "far", path, f"{len(BIG)} bytes, no row")]


class TestFoundOnPurpose:
    def test_deleting_a_checked_in_object_deletes_its_versions(self):
        fed, client = build()
        client.ingest(HOME + "/a", BIG, resource="far")
        client.checkout(HOME + "/a")
        client.checkin(HOME + "/a", data=b"v2")
        client.delete(HOME + "/a")
        assert check_invariants(fed) == []
        assert _paths(fed.resources.physical("far").driver) == []

    def test_a_refused_overwrite_keeps_the_old_bytes(self):
        """The resource cannot take the new bytes: the put is refused
        before the old file goes (``StorageDriver.replace``)."""
        fed = Federation(zone="z")
        fed.add_host("h0")
        fed.add_server("s0", "h0", mcat=True)
        fed.add_fs_resource("small", "h0", capacity_bytes=100_000)
        fed.bootstrap_admin()
        client = SrbClient(fed, "h0", "s0", "srbadmin@sdsc", "hunter2")
        client.login()
        client.mkcoll(HOME)
        client.ingest(HOME + "/a", b"x" * 10, resource="small")
        client.ingest(HOME + "/b", b"y" * 80_000, resource="small")
        with pytest.raises(StorageFull):
            client.put(HOME + "/a", b"z" * 30_000)
        assert check_invariants(fed) == []
        assert client.get(HOME + "/a") == b"x" * 10
        # a change that fits still lands
        client.put(HOME + "/a", b"z" * 20_000)
        assert client.get(HOME + "/a") == b"z" * 20_000

    def test_an_expired_pin_lets_the_copy_move(self):
        """The catalog's live pins are the one guard: once the lease
        expires, the move deletes the source, cache pin and all."""
        fed, client = build()
        client.ingest(HOME + "/a", BIG, resource="tape")
        client.pin(HOME + "/a", "tape", lifetime_s=1.0)
        fed.clock.advance(10.0)
        client.physical_move(HOME + "/a", "far")
        assert check_invariants(fed) == []
        assert _paths(fed.resources.physical("tape").driver) == []
        assert fed.resources.physical("tape").driver._pinned == set()
        assert client.get(HOME + "/a") == BIG

    def test_a_move_off_a_pinned_copy_leaves_no_copy_behind(self):
        fed, client = build()
        client.ingest(HOME + "/a", BIG, resource="tape")
        client.pin(HOME + "/a", "tape")
        with pytest.raises(PinnedFile):
            client.physical_move(HOME + "/a", "far")
        assert check_invariants(fed) == []
        assert _paths(fed.resources.physical("far").driver) == []
        assert client.get(HOME + "/a") == BIG
