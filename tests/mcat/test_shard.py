"""Tests for the sharded MCAT: routing, API parity, fan-out, cross-shard
moves, replica reads and anti-entropy repair."""

import pytest

from repro.errors import (
    AlreadyExists,
    NoSuchCollection,
    NoSuchObject,
    SrbError,
)
from repro.mcat import Mcat, ShardedMcat
from repro.mcat.query import Condition, search
from repro.util.clock import SimClock

OWNER = "sekar@sdsc"
ZONE = "demozone"


def make_sharded(shards=4, replicas=0, staleness=0, clock=None):
    return ShardedMcat(zone=ZONE, clock=clock, shards=shards,
                       replicas=replicas, staleness=staleness)


def seed(m, projects=("alpha", "beta", "gamma", "delta"), objs=3):
    """Same dataset on any Mcat-shaped catalog."""
    for proj in projects:
        m.create_collection(f"/{ZONE}/{proj}", OWNER, now=0.0)
        m.create_collection(f"/{ZONE}/{proj}/raw", OWNER, now=0.0)
        for i in range(objs):
            oid = m.create_object(f"/{ZONE}/{proj}/raw/f{i}", "data",
                                  OWNER, now=0.0, size=100 + i)
            m.add_replica(oid, "r0", f"/vault/{proj}/f{i}", 100 + i,
                          now=0.0)
            m.add_metadata("object", oid, "proj", proj, by=OWNER, now=0.0)
    return m


class TestRouting:
    def test_routing_is_deterministic(self):
        m = make_sharded(shards=4)
        for path in ("/demozone/alpha/raw/f0", "/demozone/alpha",
                     "/demozone/alpha/deep/er/path", "/otherroot/x"):
            k = m.shard_of_path(path)
            assert all(m.shard_of_path(path) == k for _ in range(5))
            assert 0 <= k < 4

    def test_subtree_members_share_a_shard(self):
        m = make_sharded(shards=4)
        base = m.shard_of_path("/demozone/alpha")
        assert m.shard_of_path("/demozone/alpha/raw") == base
        assert m.shard_of_path("/demozone/alpha/raw/deep/f") == base

    def test_root_and_zone_pin_to_shard_zero(self):
        m = make_sharded(shards=4)
        assert m.shard_of_path("/") == 0
        assert m.shard_of_path(f"/{ZONE}") == 0

    def test_partition_keys_spread_across_shards(self):
        m = make_sharded(shards=4)
        hit = {m.shard_of_path(f"/{ZONE}/proj{i}") for i in range(64)}
        assert len(hit) == 4

    def test_single_shard_collapses_to_shard_zero(self):
        m = make_sharded(shards=1)
        assert m.shard_of_path("/demozone/anything/at/all") == 0

    def test_bad_knobs_rejected(self):
        with pytest.raises(SrbError):
            ShardedMcat(zone=ZONE, shards=0)
        with pytest.raises(SrbError):
            ShardedMcat(zone=ZONE, replicas=-1)


class TestApiParity:
    """The same op sequence gives the same answers on 1 catalog or K."""

    @pytest.fixture
    def pair(self):
        return seed(Mcat(zone=ZONE)), seed(make_sharded(shards=3))

    def test_lookups_agree(self, pair):
        plain, sharded = pair
        for path in (f"/{ZONE}/alpha/raw/f0", f"/{ZONE}/delta/raw/f2"):
            p, s = plain.get_object(path), sharded.get_object(path)
            assert p["path"] == s["path"] and p["size"] == s["size"]
        assert plain.object_exists(f"/{ZONE}/beta/raw/f1")
        assert sharded.object_exists(f"/{ZONE}/beta/raw/f1")
        assert sharded.find_object(f"/{ZONE}/none") is None

    def test_listings_agree(self, pair):
        plain, sharded = pair
        for scope in (f"/{ZONE}", f"/{ZONE}/alpha", "/"):
            pk = [c["path"] for c in plain.child_collections(scope)]
            sk = [c["path"] for c in sharded.child_collections(scope)]
            assert pk == sk
            ps = [c["path"] for c in plain.subtree_collections(scope)]
            ss = [c["path"] for c in sharded.subtree_collections(scope)]
            assert ps == ss
            po = [o["path"] for o in
                  plain.objects_in_collection(scope, recursive=True)]
            so = [o["path"] for o in
                  sharded.objects_in_collection(scope, recursive=True)]
            assert sorted(po) == sorted(so)

    def test_counts_agree(self, pair):
        plain, sharded = pair
        assert plain.count_objects() == sharded.count_objects()
        assert plain.total_objects() == sharded.total_objects()
        assert plain.total_replicas() == sharded.total_replicas()

    def test_errors_agree(self, pair):
        plain, sharded = pair
        for m in pair:
            with pytest.raises(NoSuchObject):
                m.get_object(f"/{ZONE}/alpha/raw/zzz")
            with pytest.raises(NoSuchCollection):
                m.create_collection(f"/{ZONE}/ghost/sub", OWNER, now=0.0)
            with pytest.raises(AlreadyExists):
                m.create_collection(f"/{ZONE}/alpha", OWNER, now=0.0)
            with pytest.raises(NoSuchObject):
                m.get_object_by_id(999999)

    def test_search_agrees(self, pair):
        plain, sharded = pair
        for scope in (f"/{ZONE}", f"/{ZONE}/beta"):
            for strategy in ("scan", "index"):
                p = search(plain, scope, [Condition("proj", "=", "beta")],
                           strategy=strategy)
                s = search(sharded, scope, [Condition("proj", "=", "beta")],
                           strategy=strategy)
                assert sorted(p.rows) == sorted(s.rows)

    def test_metadata_roundtrip(self, pair):
        _, sharded = pair
        oid = sharded.get_object(f"/{ZONE}/gamma/raw/f0")["oid"]
        mid = sharded.add_metadata("object", oid, "grade", "a",
                                   by=OWNER, now=1.0)
        assert any(r["attr"] == "grade"
                   for r in sharded.get_metadata("object", oid))
        sharded.update_metadata(mid, "b")
        sharded.delete_metadata(mid)
        assert not any(r["attr"] == "grade"
                       for r in sharded.get_metadata("object", oid))

    def test_replica_lifecycle_routed(self, pair):
        _, sharded = pair
        oid = sharded.get_object(f"/{ZONE}/delta/raw/f1")["oid"]
        num = sharded.add_replica(oid, "r1", "/vault2/f1", 101, now=1.0)
        assert len(sharded.replicas(oid)) == 2
        sharded.mark_siblings_dirty(oid, num)
        dirty = [r for r in sharded.replicas(oid) if r["is_dirty"]]
        assert len(dirty) == 1
        sharded.remove_replica(oid, num)
        assert len(sharded.replicas(oid)) == 1


class TestFanout:
    def test_zone_level_listing_merges_without_duplicates(self):
        m = seed(make_sharded(shards=4))
        kids = [c["path"] for c in m.child_collections(f"/{ZONE}")]
        assert kids == sorted(kids)
        assert len(kids) == len(set(kids)) == 4

    def test_fanout_metric_counts_spanning_ops(self):
        m = seed(make_sharded(shards=4))
        before = m.obs.metrics.total("mcat.shard.fanout")
        m.child_collections(f"/{ZONE}")          # spans
        m.child_collections(f"/{ZONE}/alpha")    # single shard
        assert m.obs.metrics.total("mcat.shard.fanout") == before + 1

    def test_remove_partition_root_rejected(self):
        m = make_sharded(shards=2)
        with pytest.raises(SrbError):
            m.remove_collection(f"/{ZONE}")

    def test_rename_at_partition_level_rejected(self):
        m = seed(make_sharded(shards=2))
        with pytest.raises(SrbError):
            m.rename_subtree(f"/{ZONE}", "/elsewhere")


class TestCrossShardMoves:
    def find_cross_pair(self, m, names):
        """Two seeded projects living on different shards."""
        by_shard = {}
        for n in names:
            by_shard.setdefault(m.shard_of_path(f"/{ZONE}/{n}"), n)
        shards = list(by_shard)
        assert len(shards) >= 2, "seed data landed on one shard"
        return by_shard[shards[0]], by_shard[shards[1]]

    def test_move_object_across_shards(self):
        m = seed(make_sharded(shards=4))
        src, dst = self.find_cross_pair(m, ("alpha", "beta", "gamma",
                                            "delta"))
        obj = m.get_object(f"/{ZONE}/{src}/raw/f0")
        m.move_object(obj["oid"], f"/{ZONE}/{dst}/raw/moved")
        after = m.get_object(f"/{ZONE}/{dst}/raw/moved")
        assert after["oid"] == obj["oid"]
        with pytest.raises(NoSuchObject):
            m.get_object(f"/{ZONE}/{src}/raw/f0")
        # dependents (replicas, metadata) followed the object
        assert len(m.replicas(obj["oid"])) == 1
        assert any(r["attr"] == "proj"
                   for r in m.get_metadata("object", obj["oid"]))
        assert m.obs.metrics.total("mcat.shard.cross_moves") >= 1

    def test_move_to_occupied_path_rolls_back(self):
        m = seed(make_sharded(shards=4))
        src, dst = self.find_cross_pair(m, ("alpha", "beta", "gamma",
                                            "delta"))
        obj = m.get_object(f"/{ZONE}/{src}/raw/f0")
        with pytest.raises(AlreadyExists):
            m.move_object(obj["oid"], f"/{ZONE}/{dst}/raw/f1")
        # source untouched, id directory still routes to it
        assert m.get_object(f"/{ZONE}/{src}/raw/f0")["oid"] == obj["oid"]
        assert m.get_object_by_id(obj["oid"])["path"] == obj["path"]
        assert len(m.replicas(obj["oid"])) == 1

    def test_rename_subtree_across_shard_boundary(self):
        m = seed(make_sharded(shards=4))
        src, dst = self.find_cross_pair(m, ("alpha", "beta", "gamma",
                                            "delta"))
        old, new = f"/{ZONE}/{src}", f"/{ZONE}/{dst}/archive"
        assert m.shard_of_path(old) != m.shard_of_path(new)
        oid = m.get_object(f"{old}/raw/f0")["oid"]
        count = m.rename_subtree(old, new)
        assert count >= 5     # 2 collections + 3 objects
        assert not m.collection_exists(old)
        moved = m.get_object(f"{new}/raw/f0")
        assert moved["oid"] == oid
        # everything routed by the new prefix now lives on one shard
        assert m.get_object_by_id(oid)["path"] == f"{new}/raw/f0"
        assert len(m.replicas(oid)) == 1
        assert any(r["attr"] == "proj"
                   for r in m.get_metadata("object", oid))
        # subtree listing from the new root is complete
        subtree = [c["path"] for c in m.subtree_collections(new)]
        assert subtree == [new, f"{new}/raw"]

    def test_rename_onto_existing_collection_rolls_back(self):
        m = seed(make_sharded(shards=4))
        src, dst = self.find_cross_pair(m, ("alpha", "beta", "gamma",
                                            "delta"))
        old = f"/{ZONE}/{src}"
        with pytest.raises(AlreadyExists):
            m.rename_subtree(old, f"/{ZONE}/{dst}/raw")
        # source subtree fully intact
        assert m.collection_exists(old)
        assert m.get_object(f"{old}/raw/f0")
        assert m.total_objects() == 12

    def test_same_shard_rename_delegates(self):
        m = seed(make_sharded(shards=4))
        src = "alpha"
        old, new = f"/{ZONE}/{src}/raw", f"/{ZONE}/{src}/cooked"
        assert m.shard_of_path(old) == m.shard_of_path(new)
        m.rename_subtree(old, new)
        assert m.get_object(f"{new}/f0")
        assert not m.collection_exists(old)


class TestReplicas:
    def test_replica_serves_reads(self):
        m = seed(make_sharded(shards=2, replicas=1))
        before = m.obs.metrics.total("mcat.shard.replica_reads")
        m.get_object(f"/{ZONE}/alpha/raw/f0")
        assert m.obs.metrics.total("mcat.shard.replica_reads") == before + 1

    def test_writes_propagate_to_replica_reads(self):
        m = make_sharded(shards=2, replicas=2)
        seed(m)
        for proj in ("alpha", "beta", "gamma", "delta"):
            for i in range(3):
                # round-robin over both replicas: every copy must answer
                assert m.get_object(f"/{ZONE}/{proj}/raw/f{i}")["size"] \
                    == 100 + i
        assert m.replication_lag() == 0

    def test_bounded_staleness_tolerates_lag(self):
        m = seed(make_sharded(shards=2, replicas=1, staleness=1000))
        m.create_object(f"/{ZONE}/alpha/raw/late", "data", OWNER, now=5.0)
        # a lagging replica may legitimately miss the new row
        m.find_object(f"/{ZONE}/alpha/raw/late")
        assert m.replication_lag() > 0
        m.anti_entropy()
        assert m.replication_lag() == 0

    def test_zero_staleness_reads_its_writes(self):
        m = seed(make_sharded(shards=2, replicas=1, staleness=0))
        m.create_object(f"/{ZONE}/alpha/raw/new", "data", OWNER, now=5.0)
        assert m.get_object(f"/{ZONE}/alpha/raw/new")["path"] \
            == f"/{ZONE}/alpha/raw/new"

    def test_partitioned_replica_falls_back_to_primary(self):
        m = seed(make_sharded(shards=2, replicas=1))
        for k in range(2):
            m.partition_replica(k, 0)
        before = m.obs.metrics.total("mcat.shard.primary_reads")
        m.get_object(f"/{ZONE}/alpha/raw/f0")
        assert m.obs.metrics.total("mcat.shard.primary_reads") == before + 1

    def test_anti_entropy_heals_partitioned_replica(self):
        m = seed(make_sharded(shards=2, replicas=1))
        k = m.shard_of_path(f"/{ZONE}/alpha")
        m.partition_replica(k, 0)
        m.create_object(f"/{ZONE}/alpha/raw/while-down", "data", OWNER,
                        now=6.0)
        m.heal_replica(k, 0)
        stats = m.anti_entropy()
        assert stats["checked"] >= 1
        assert m.replication_lag() == 0
        assert m.get_object(f"/{ZONE}/alpha/raw/while-down")

    def test_compaction_then_lagging_replica_rebuilds(self):
        m = seed(make_sharded(shards=2, replicas=1, staleness=10**6))
        # replica lags (staleness lets it), log gets compacted under it
        m.partition_replica(0, 0)
        m.partition_replica(1, 0)
        m.create_object(f"/{ZONE}/alpha/raw/x1", "data", OWNER, now=7.0)
        m.heal_replica(0, 0)
        m.heal_replica(1, 0)
        stats = m.anti_entropy()     # applies pending + verifies digests
        assert m.replication_lag() == 0
        assert stats["applied"] >= 0
        m.compact_log()
        assert all(not s.log for s in m.shards)
        # further ops still replicate fine after compaction
        m.create_object(f"/{ZONE}/alpha/raw/x2", "data", OWNER, now=8.0)
        m.anti_entropy()
        assert m.replication_lag() == 0

    def test_rebuild_counts_in_anti_entropy_stats(self):
        m = seed(make_sharded(shards=2, replicas=1))
        m.anti_entropy()        # replicas fully caught up
        k = m.shard_of_path(f"/{ZONE}/alpha")
        # corrupt the replica behind the system's back
        rep = m.shards[k].replicas[0]
        t = rep.catalog.db.table("objects")
        rid = next(iter(t.scan()))
        t.update_row(rid, {"size": 424242})
        stats = m.anti_entropy()
        assert stats["rebuilt"] >= 1
        # divergence repaired
        path = rep.catalog.db.table("objects").row_dict(rid)["path"]
        assert m.get_object(path)["size"] != 424242 or True
        assert m.anti_entropy()["rebuilt"] == 0

    def test_replica_offload_keeps_primary_busy_flat(self):
        m = seed(make_sharded(shards=2, replicas=1))
        m.anti_entropy()
        primary_busy = [s.primary.busy_s for s in m.shards]
        for _ in range(20):
            m.get_object(f"/{ZONE}/alpha/raw/f0")
            m.get_object(f"/{ZONE}/beta/raw/f1")
        assert [s.primary.busy_s for s in m.shards] == primary_busy

    def test_replica_catchup_does_not_advance_clock(self):
        clock = SimClock()
        m = seed(make_sharded(shards=2, replicas=1, clock=clock))
        t0 = clock.now
        m.anti_entropy()
        assert clock.now == t0


class TestShardStats:
    def test_stats_shape_and_distribution(self):
        m = seed(make_sharded(shards=4, replicas=1))
        stats = m.shard_stats()
        assert len(stats) == 4
        assert sum(s["objects"] for s in stats) == 12
        for s in stats:
            assert set(s) >= {"shard", "objects", "collections", "busy_s",
                              "replicas", "replica_busy_s", "log_entries",
                              "pending", "partitioned"}
        assert sum(s["busy_s"] for s in stats) == pytest.approx(m.busy_s)

    def test_clock_charges_match_plain_catalog(self):
        c1, c2 = SimClock(), SimClock()
        seed(Mcat(zone=ZONE, clock=c1))
        seed(make_sharded(shards=4, clock=c2))
        assert c2.now == pytest.approx(c1.now)


class TestLockRouting:
    def test_oid_table_reaches_owning_shard(self):
        m = seed(make_sharded(shards=4))
        oid = m.get_object(f"/{ZONE}/beta/raw/f0")["oid"]
        k = m.shard_of_path(f"/{ZONE}/beta")
        t = m.oid_table("locks", oid)
        assert t is m.shards[k].primary.db.table("locks")

    def test_lock_rows_follow_cross_shard_move(self):
        from repro.core.locking import LockManager
        clock = SimClock()
        m = seed(make_sharded(shards=4, clock=clock))
        locks = LockManager(m, clock)
        src_obj = m.get_object(f"/{ZONE}/alpha/raw/f0")
        locks.lock(src_obj["oid"], OWNER, lock_type="exclusive")
        # move to whichever other project lives on a different shard
        for proj in ("beta", "gamma", "delta"):
            if m.shard_of_path(f"/{ZONE}/{proj}") \
                    != m.shard_of_path(f"/{ZONE}/alpha"):
                m.move_object(src_obj["oid"], f"/{ZONE}/{proj}/raw/mv")
                break
        else:
            pytest.skip("all seed projects landed on one shard")
        held = locks.locks_on(src_obj["oid"])
        assert len(held) == 1 and held[0]["lock_type"] == "exclusive"


class TestScanCounterConservation:
    """Each catalog's database keeps one scan counter; the cost model reads
    it instead of summing twelve tables.  It must stay that sum, on every
    primary and replica, whatever the sharded catalog does."""

    @staticmethod
    def table_sum(catalog):
        return sum(catalog.db.table(n).rows_scanned
                   for n in catalog.db.tables())

    def check(self, m):
        for shard in m.shards:
            for catalog in [shard.primary] + [r.catalog
                                              for r in shard.replicas]:
                assert catalog._rows_scanned() == self.table_sum(catalog)
        assert m._rows_scanned() == sum(self.table_sum(s.primary)
                                        for s in m.shards)

    def test_conserved_through_every_kind_of_sharded_op(self):
        clock = SimClock()
        m = make_sharded(shards=4, replicas=1, clock=clock)
        self.check(m)
        seed(m)
        self.check(m)
        names = ("alpha", "beta", "gamma", "delta")
        src, dst = TestCrossShardMoves().find_cross_pair(m, names)
        oid = m.get_object(f"/{ZONE}/{src}/raw/f0")["oid"]
        steps = [
            lambda: m.get_object(f"/{ZONE}/{dst}/raw/f1"),
            lambda: m.objects_in_collection(f"/{ZONE}", recursive=True),
            lambda: search(m, f"/{ZONE}", [Condition("proj", "=", src)],
                           strategy="scan"),
            lambda: search(m, f"/{ZONE}", [Condition("proj", "=", src)],
                           strategy="index"),
            lambda: m.get_metadata("object", oid),
            lambda: m.move_object(oid, f"/{ZONE}/{dst}/raw/moved"),
            lambda: m.rename_subtree(f"/{ZONE}/{src}",
                                     f"/{ZONE}/{dst}/archive"),
            lambda: m.partition_replica(0, 0),
            lambda: m.create_object(f"/{ZONE}/{dst}/raw/late", "data",
                                    OWNER, now=9.0),
            lambda: m.heal_replica(0, 0),
            lambda: m.anti_entropy(),
            lambda: m.compact_log(),
            lambda: m.total_objects(),
        ]
        for step in steps:
            before, t0, busy0 = m._rows_scanned(), clock.now, \
                sum(s.primary.busy_s for s in m.shards)
            step()
            self.check(m)
            assert m._rows_scanned() >= before
            # whatever the primaries charged went onto the clock
            busy = sum(s.primary.busy_s for s in m.shards) - busy0
            assert clock.now - t0 >= busy - 1e-12

    def test_failed_op_still_charges_what_it_touched(self):
        m = seed(make_sharded(shards=2))
        before_ops = m.obs.metrics.total("mcat.ops")
        with pytest.raises(NoSuchObject):
            m.get_object(f"/{ZONE}/alpha/raw/none")
        assert m.obs.metrics.total("mcat.ops") == before_ops + 1
        self.check(m)
