"""The catalog: K >= 1 ``Mcat`` partitions behind one routing table,
each replicated R >= 0 times for reads.

One MCAT serves every SRB server (the paper), and this class is it:
``Federation`` always builds a :class:`ShardedMcat`; an
:class:`~repro.mcat.catalog.Mcat` is one partition's store.  A single
catalog is the grid's throughput ceiling and single point of failure —
every one of the server's registered ops pays it a round trip, and E4
shows catalog time dominating end-to-end latency — so it can be split
the way AMGA and every production metadata service does:

* **Partitioning.**  K independent ``Mcat`` shards, each holding a
  disjoint set of collection subtrees.  The routing rule hashes the
  *partition key* of a path — its first component, or its second when
  the first is the zone name (so ``/zone/projA/...`` and
  ``/zone/projB/...`` can land on different shards).  ``/`` and
  ``/<zone>`` exist on every shard, so each shard resolves its own
  subtrees without cross-shard chatter.  Ops scoped at or above the
  partition level (``child_collections("/")``, a root query) fan out
  and merge; everything else touches exactly one shard.

* **One table.**  How each catalog op finds its partition is a row of
  :data:`ROUTES` — by path, by a minted id, pinned, scope-or-fan-out,
  grouped bulk — and the methods are generated from it once, when this
  module is imported.  Only the ops with a rule of their own
  are written out in the class.  With one partition and no replica
  there is nothing to decide, so the constructor binds every op
  straight to the partition's bound method: the default catalog costs
  what a bare ``Mcat`` costs.

* **Replication.**  Each shard keeps a write log fed by the database
  mutation observer (:meth:`repro.db.Database.watch`): raw
  ``(table, kind, rid, values)`` entries.  Because row ids are
  positional and tombstoned, replaying the log in order onto a copy
  reproduces the primary byte for byte — ids included, so a replica
  answers any read exactly as the primary would.  Replicas apply the
  log asynchronously: a read routed to a replica that lags catches it
  up before serving (read-your-writes).  Catch-up charges the
  *replica's* ``busy_s``, never the shared clock — propagation is
  background work.

* **Anti-entropy.**  A background pass applies pending log entries to
  every reachable replica and compares table digests against the
  primary; a diverged or log-compacted-past replica is rebuilt from a
  primary snapshot.  ``partition_replica``/``heal_replica`` inject the
  fault the repair pass is for.

* **Copies.**  A snapshot (:meth:`repro.db.Database.snapshot`, every
  table's rows by row id, tombstones included) is the one form in which
  a catalog is copied: a replica is rebuilt from its primary's, and a
  dump (:mod:`repro.mcat.dump`) is every partition's, serialised, which
  restores into a catalog of as many partitions.  A read looks a
  collection up by its path index, never by a cache earlier reads
  warmed, so two copies in the same state charge a read alike.

Cross-shard ``move_object``/``rename_subtree`` are two-shard
copy+delete of the rows an in-place move rewrites (for a subtree,
:meth:`~repro.mcat.catalog.Mcat._renamed` names them) and of the rows
that hang off them: they are inserted on the destination primary first
(flowing through its write log and the id directory), deleted from the
source only once every insert succeeded, and rolled back in reverse on
failure — the catalog never loses a row to a half-done move.
"""

from __future__ import annotations

import zlib
from inspect import isfunction
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import NoSuchObject, SrbError
from repro.mcat.catalog import Mcat
from repro.mcat.dublin_core import SchemaRegistry
from repro.mcat.query import SYSTEM_ATTRS
from repro.obs import Observability
from repro.util import paths
from repro.util.clock import SimClock
from repro.util.ids import IdFactory

#: the catalog's ops: a partition's public methods
MCAT_OPS = tuple(name for name, member in vars(Mcat).items()
                 if not name.startswith("_") and isfunction(member))
#: tables keyed by object id (cascade/move units of one object)
_OID_TABLES = ("replicas", "locks", "pins", "versions")
#: tables keyed by (target_kind, target_id)
_TARGET_TABLES = ("metadata", "annotations", "acls")
#: the tables whose minted ids the id directories locate: table -> id
_DIRS = {"objects": "oid", "collections": "cid", "metadata": "mid"}


class McatReplica:
    """One read replica of a shard: a full ``Mcat`` copy plus its
    position in the shard's write log."""

    def __init__(self, catalog: Mcat):
        self.catalog = catalog
        self.applied = 0            # absolute log position applied
        self.partitioned = False    # fault injection: unreachable


class McatShard:
    """One partition: the authoritative primary, its replicas and the
    write log that keeps them converging."""

    def __init__(self, index: int, primary: Mcat):
        self.index = index
        self.primary = primary
        self.replicas: List[McatReplica] = []
        self.log: List[Tuple[str, str, int, Dict[str, Any]]] = []
        self.log_base = 0           # absolute position of log[0]
        self.rr = 0                 # round-robin cursor over replicas

    def log_end(self) -> int:
        return self.log_base + len(self.log)


class ShardedMcat:
    """The zone's catalog: the ``Mcat`` API over K shards with R replicas.

    Shares the federation's clock, id factory and observability with
    its partitions; shard primaries are ordinary ``Mcat`` instances, so
    every charged read/write costs what it costs on one — the win of
    K > 1 is that the charges land on K parallel catalogs (``busy_s``)
    instead of one.
    """

    QUERY_OVERHEAD_S = Mcat.QUERY_OVERHEAD_S
    ROW_COST_S = Mcat.ROW_COST_S
    ANNOTATION_TYPES = Mcat.ANNOTATION_TYPES

    def __init__(self, zone: str = "demozone",
                 clock: Optional[SimClock] = None,
                 ids: Optional[IdFactory] = None,
                 obs: Optional[Observability] = None,
                 shards: int = 1, replicas: int = 0):
        if shards < 1:
            raise SrbError("mcat_shards must be >= 1")
        if replicas < 0:
            raise SrbError("mcat_replicas must be >= 0")
        self.zone = zone
        self.clock = clock
        self.ids = ids if ids is not None else IdFactory()
        self.obs = obs if obs is not None else Observability(clock)
        self.schemas = SchemaRegistry()
        # id directories: where does each minted id live?  Maintained by
        # the mutation observers, so raw-row cross-shard moves keep them
        # exact without any extra bookkeeping at the call sites.  They
        # exist to route: one partition with no replica to feed keeps
        # none, and no observer.
        routing = shards > 1 or replicas > 0
        self._dir: Dict[str, Dict[int, int]] = {key: {} for key
                                                in _DIRS.values()}
        self.shards: List[McatShard] = []
        for k in range(shards):
            primary = Mcat(zone=zone, clock=clock, ids=self.ids,
                           obs=self.obs)
            primary.schemas = self.schemas
            shard = McatShard(k, primary)
            if routing:
                primary.db.watch(self._observer_for(shard))
            self.shards.append(shard)
        if routing:
            self._locate_ids()      # the root rows predate the observers
        else:
            # nothing to decide: the partition's ops are the catalog's
            only = self.shards[0].primary
            for name in MCAT_OPS:
                setattr(self, name, getattr(only, name))
        for shard in self.shards:
            for _ in range(replicas):
                # replicas never mint ids and are overwritten by the
                # initial full sync, so they get private id/obs pipes —
                # only the clock is shared (serving a read costs the
                # same virtual time as on the primary)
                copy = Mcat(zone=zone, clock=clock, ids=IdFactory(),
                            obs=self.obs)
                copy.schemas = self.schemas
                rep = McatReplica(copy)
                self._rebuild(shard, rep)
                shard.replicas.append(rep)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def shard_of_path(self, path: str) -> int:
        """The shard owning ``path``'s partition subtree.

        Partition key: the top-level component, or the second component
        when the first is the zone name; ``/`` and ``/<zone>`` pin to
        shard 0 (their rows exist everywhere, shard 0's copy is the
        canonical one).  crc32 keeps the mapping stable across runs.
        """
        comps = paths.split(paths.normalize(path))
        if not comps:
            return 0
        if comps[0] == self.zone:
            if len(comps) == 1:
                return 0
            key = comps[1]
        else:
            key = comps[0]
        return zlib.crc32(key.encode("utf-8")) % len(self.shards)

    def _spans_shards(self, path: str) -> bool:
        """True when ``path``'s subtree is split across shards (the path
        sits at or above the partition-key level)."""
        if len(self.shards) == 1:
            return False
        comps = paths.split(path)
        return len(comps) == 0 or (comps[0] == self.zone and len(comps) == 1)

    def _shard_of_id(self, kind: str, ident: int) -> int:
        """Owning shard of a minted id; unknown ids fall back to shard 0,
        whose ``Mcat`` then raises the not-found error of a catalog
        that has one partition."""
        return self._dir[kind].get(ident, 0)

    def _shard_of_target(self, target_kind: str, target_id: int) -> int:
        key = "cid" if target_kind == "collection" else "oid"
        return self._dir[key].get(target_id, 0)

    def _primary(self, k: int) -> Mcat:
        """The catalog that serves a write on shard ``k``."""
        return self.shards[k].primary

    def _fanout(self, op: str) -> List[int]:
        self.obs.metrics.inc("mcat.shard.fanout", op=op)
        return list(range(len(self.shards)))

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------

    def _observer_for(self, shard: McatShard):
        def observe(table: str, kind: str, rid: int,
                    values: Dict[str, Any]) -> None:
            if shard.replicas:
                shard.log.append((table, kind, rid, values))
            self._track(shard.index, table, kind, values)
        return observe

    def _locate_ids(self) -> None:
        """Point the id directories at the partition that holds each oid,
        cid and mid, read off the partitions' primary-key indexes
        (uncharged): at construction, for the root rows the observers
        did not see, and after a restore, which they do not see."""
        for table, key in _DIRS.items():
            self._dir[key] = {
                ident: k for k, shard in enumerate(self.shards)
                for ident in shard.primary.db.table(table).distinct(key)}

    def _track(self, k: int, table: str, kind: str,
               values: Dict[str, Any]) -> None:
        dir_key = _DIRS.get(table)
        if dir_key is None:
            return
        ident = values.get(dir_key)
        if ident is None:
            return
        if kind == "insert":
            self._dir[dir_key][ident] = k
        elif kind == "delete":
            # during a cross-shard move the destination insert lands
            # before the source delete; only unmap ids we still own
            if self._dir[dir_key].get(ident) == k:
                self._dir[dir_key].pop(ident, None)

    def _read(self, k: int) -> Mcat:
        """The catalog that serves a read on shard ``k``: a reachable
        replica round-robin (caught up first), else the primary."""
        shard = self.shards[k]
        cands = [r for r in shard.replicas if not r.partitioned]
        if not cands:
            self.obs.metrics.inc("mcat.shard.primary_reads", shard=str(k))
            return shard.primary
        rep = cands[shard.rr % len(cands)]
        shard.rr += 1
        lag = shard.log_end() - rep.applied
        self.obs.metrics.observe("mcat.shard.replication_lag", lag,
                                 shard=str(k))
        if lag:
            if rep.applied < shard.log_base:
                self._rebuild(shard, rep)
            else:
                self._apply(shard, rep)
        self.obs.metrics.inc("mcat.shard.replica_reads", shard=str(k))
        return rep.catalog

    def _apply(self, shard: McatShard, rep: McatReplica) -> int:
        """Replay every pending log entry onto ``rep``; background work,
        charged to the replica's ``busy_s`` only."""
        n = 0
        while rep.applied < shard.log_end():
            table, kind, rid, values = shard.log[rep.applied - shard.log_base]
            rep.catalog.db.table(table).apply_entry(kind, rid, values)
            rep.applied += 1
            n += 1
        if n:
            rep.catalog.busy_s += n * self.ROW_COST_S
            self.obs.metrics.inc("mcat.shard.replication.applied", n,
                                 shard=str(shard.index))
        return n

    def _rebuild(self, shard: McatShard, rep: McatReplica) -> int:
        """Restore ``rep`` from a primary snapshot (initial sync, and the
        repair path when the log was compacted past it or it diverged)."""
        snapshot = shard.primary.db.snapshot()
        rep.catalog.db.restore(snapshot)
        rows = sum(len(heap) - heap.count(None)
                   for heap in snapshot.values())
        rep.applied = shard.log_end()
        rep.catalog.busy_s += rows * self.ROW_COST_S
        self.obs.metrics.inc("mcat.shard.replication.rebuilt",
                             shard=str(shard.index))
        return rows

    @staticmethod
    def _digest(catalog: Mcat) -> int:
        """Order-stable checksum of every table's live and dead rows."""
        return zlib.crc32(repr(catalog.db.snapshot()).encode("utf-8"))

    def partition_replica(self, k: int, r: int) -> None:
        """Fault injection: replica ``r`` of shard ``k`` stops receiving
        writes and serving reads until healed."""
        self.shards[k].replicas[r].partitioned = True

    def heal_replica(self, k: int, r: int) -> None:
        self.shards[k].replicas[r].partitioned = False

    def replication_lag(self) -> int:
        """Total pending log entries across all reachable replicas."""
        lag = 0
        for shard in self.shards:
            for rep in shard.replicas:
                if not rep.partitioned:
                    lag += shard.log_end() - rep.applied
        return lag

    def anti_entropy(self) -> Dict[str, int]:
        """Converge every reachable replica: apply pending log entries,
        verify digests against the primary, rebuild on divergence or
        when compaction outran the replica.  Returns a repair report."""
        report = {"checked": 0, "applied": 0, "rebuilt": 0}
        with self.obs.tracer.span("mcat.shard.anti_entropy"):
            for shard in self.shards:
                for rep in shard.replicas:
                    if rep.partitioned:
                        continue
                    report["checked"] += 1
                    if rep.applied < shard.log_base:
                        self._rebuild(shard, rep)
                        report["rebuilt"] += 1
                        continue
                    report["applied"] += self._apply(shard, rep)
                    if self._digest(rep.catalog) != self._digest(shard.primary):
                        self._rebuild(shard, rep)
                        report["rebuilt"] += 1
        self.obs.metrics.inc("mcat.shard.anti_entropy.runs")
        return report

    def compact_log(self) -> int:
        """Drop log entries every reachable replica has applied.  A
        partitioned replica that outlives a compaction is rebuilt from
        snapshot by the next anti-entropy pass."""
        dropped = 0
        for shard in self.shards:
            reachable = [r.applied for r in shard.replicas
                         if not r.partitioned]
            floor = min(reachable) if reachable else shard.log_end()
            cut = floor - shard.log_base
            if cut > 0:
                del shard.log[:cut]
                shard.log_base = floor
                dropped += cut
        return dropped

    # ------------------------------------------------------------------
    # stats / accounting (uncharged, like Mcat.total_objects)
    # ------------------------------------------------------------------

    def _rows_scanned(self) -> int:
        return sum(s.primary._rows_scanned() for s in self.shards)

    @property
    def busy_s(self) -> float:
        return sum(s.primary.busy_s for s in self.shards)

    def total_objects(self) -> int:
        return sum(s.primary.total_objects() for s in self.shards)

    def total_replicas(self) -> int:
        return sum(s.primary.total_replicas() for s in self.shards)

    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-shard counters for ``/status`` and ``Sstat``."""
        out = []
        for shard in self.shards:
            out.append({
                "shard": shard.index,
                "objects": shard.primary.total_objects(),
                "collections": len(shard.primary.db.table("collections")),
                "busy_s": shard.primary.busy_s,
                "replicas": len(shard.replicas),
                "replica_busy_s": sum(r.catalog.busy_s
                                      for r in shard.replicas),
                "log_entries": len(shard.log),
                "pending": sum(shard.log_end() - r.applied
                               for r in shard.replicas),
                "partitioned": sum(1 for r in shard.replicas
                                   if r.partitioned),
            })
        return out

    # ------------------------------------------------------------------
    # ops with a rule of their own (every other Mcat op is a row of
    # ROUTES, below the class)
    # ------------------------------------------------------------------

    def remove_collection(self, path: str) -> None:
        path = paths.normalize(path)
        if self._spans_shards(path):
            raise SrbError(f"collection {path!r} is a partition root of the "
                           "sharded catalog and cannot be removed")
        self._primary(self.shard_of_path(path)).remove_collection(path)

    def oid_table(self, name: str, oid: int):
        """Table holding ``oid``'s dependent rows, on its owning shard's
        primary (lock/pin/version writes always hit the primary)."""
        return self._primary(self._shard_of_id("oid", oid)).db.table(name)

    def structural_for(self, coll_path: str,
                       inherited: bool = True) -> List[Dict[str, Any]]:
        coll_path = paths.normalize(coll_path)
        k = self.shard_of_path(coll_path)
        rows: List[Dict[str, Any]] = []
        # partition-level requirements (on "/" or "/<zone>") live on
        # shard 0, where their path routes; stitch them back into every
        # other shard's inheritance chain
        if inherited and k != 0:
            for scope in paths.ancestors(coll_path):
                if self._spans_shards(scope):
                    rows.extend(self._read(0).structural_for(
                        scope, inherited=False))
        rows.extend(self._read(k).structural_for(coll_path,
                                                 inherited=inherited))
        return rows

    # ------------------------------------------------------------------
    # cross-shard moves
    # ------------------------------------------------------------------

    def move_object(self, oid: int, new_path: str) -> None:
        new_path = paths.normalize(new_path)
        src_k = self._shard_of_id("oid", oid)
        dst_k = self.shard_of_path(new_path)
        if src_k == dst_k:
            self._primary(src_k).move_object(oid, new_path)
            return
        src, dst = self._primary(src_k), self._primary(dst_k)
        with src._charge:
            obj_t = src.db.table("objects")
            rids = obj_t.lookup_eq("oid", oid)
            if not rids:
                raise NoSuchObject(f"no object id {oid}")
            obj = obj_t.row_dict(rids[0])
            dependents = self._collect_object_rows(src, oid)
        restore: Dict[str, Dict[int, int]] = {"oid": {oid: src_k},
                                              "mid": {}}
        for table, dep in dependents:
            self._note_restore(restore, table, dep, src_k)
        with dst._charge:
            coll = dst._free_path(new_path)
            moved = dict(obj, path=new_path, coll=coll,
                         name=paths.basename(new_path))
            self._insert_rows(dst, [("objects", moved)] + dependents,
                              restore=restore)
        with src._charge:
            self._delete_source_rows(src, [("objects", obj)] + dependents)
        self.obs.metrics.inc("mcat.shard.cross_moves", op="move_object")

    def rename_subtree(self, old_prefix: str, new_prefix: str) -> int:
        old_prefix = paths.normalize(old_prefix)
        new_prefix = paths.normalize(new_prefix)
        src_k = self.shard_of_path(old_prefix)
        dst_k = self.shard_of_path(new_prefix)
        src, dst = self._primary(src_k), self._primary(dst_k)
        if self._spans_shards(old_prefix) or self._spans_shards(new_prefix):
            with dst._charge:       # a taken destination is refused first
                dst._free_path(new_prefix)
            raise SrbError(
                "rename at or above the partition level is not supported "
                "on a sharded catalog (would re-key every shard)")
        if src_k == dst_k:
            return src.rename_subtree(old_prefix, new_prefix)

        # every row the rename rewrites, and the rows that hang off them
        count = 0
        moves: List[Tuple[str, Dict[str, Any]]] = []   # (table, src values)
        inserts: List[Tuple[str, Dict[str, Any]]] = []  # (table, dst values)
        restore: Dict[str, Dict[int, int]] = {"oid": {}, "cid": {},
                                              "mid": {}}
        with src._charge:
            for t, rid, changes in src._renamed(old_prefix, new_prefix):
                row = t.row_dict(rid)
                moves.append((t.name, row))
                inserts.append((t.name, dict(row, **changes)))
                if t.name == "structural_meta":
                    continue
                count += 1
                if t.name == "collections":
                    restore["cid"][row["cid"]] = src_k
                    dependents = self._collect_target_rows(
                        src, "collection", row["cid"])
                else:
                    restore["oid"][row["oid"]] = src_k
                    dependents = self._collect_object_rows(src, row["oid"])
                for table, dep in dependents:
                    moves.append((table, dep))
                    inserts.append((table, dep))
                    self._note_restore(restore, table, dep, src_k)

        with dst._charge:
            dst._free_path(new_prefix)
            self._insert_rows(dst, inserts, restore=restore)
        with src._charge:
            self._delete_source_rows(src, moves)
        self.obs.metrics.inc("mcat.shard.cross_moves", op="rename_subtree")
        return count

    def _collect_object_rows(self, src: Mcat,
                             oid: int) -> List[Tuple[str, Dict[str, Any]]]:
        """Every dependent row of one object, in insert-safe order."""
        out = []
        for table in _OID_TABLES:
            t = src.db.table(table)
            out += [(table, row)
                    for row in t.row_dicts(t.lookup_eq("oid", oid))]
        out.extend(self._collect_target_rows(src, "object", oid))
        return out

    def _collect_target_rows(self, src: Mcat, target_kind: str,
                             target_id: int
                             ) -> List[Tuple[str, Dict[str, Any]]]:
        out = []
        for table in _TARGET_TABLES:
            t = src.db.table(table)
            out += [(table, row) for row in t.row_dicts(
                t.lookup_eq("target_id", target_id))
                if row["target_kind"] == target_kind]
        return out

    @staticmethod
    def _note_restore(restore: Dict[str, Dict[int, int]], table: str,
                      row: Dict[str, Any], src_k: int) -> None:
        if table == "metadata":
            restore["mid"][row["mid"]] = src_k

    def _insert_rows(self, dst: Mcat,
                     rows: Sequence[Tuple[str, Dict[str, Any]]],
                     restore: Dict[str, Dict[int, int]]) -> None:
        """Insert rows on the destination primary; on any failure delete
        what was inserted (reverse order) and re-point the id directory
        at the source shard, so the move either happens or didn't."""
        inserted: List[Tuple[str, int]] = []
        try:
            for table, values in rows:
                inserted.append((table, dst.db.table(table).insert(values)))
        except Exception:
            for table, rid in reversed(inserted):
                dst.db.table(table).delete_row(rid)
            for dir_key, entries in restore.items():
                for ident, k in entries.items():
                    self._dir[dir_key][ident] = k
            raise

    def _delete_source_rows(self, src: Mcat,
                            rows: Sequence[Tuple[str, Dict[str, Any]]]
                            ) -> None:
        """Remove the moved rows from the source primary (the id
        directory already points at the destination, so the observer
        leaves it alone)."""
        pk = {"objects": "oid", "collections": "cid", "replicas": "rid",
              "locks": "lid", "pins": "pid", "versions": "vid",
              "metadata": "mid", "annotations": "aid", "acls": "aclid",
              "structural_meta": "smid"}
        for table, values in rows:
            t = src.db.table(table)
            col = pk[table]
            for rid in list(t.lookup_eq(col, values[col])):
                t.delete_row(rid)


# ---------------------------------------------------------------------------
# the route table: every other catalog op, and how it finds its partition
# ---------------------------------------------------------------------------
#
# A row is ``op: (rule, side, ...)``.  ``side`` is the catalog of a
# partition that serves the op: its primary (every write; and ACL reads
# — a revoke takes effect at once, so grants never come off a replica)
# or whatever ``_read`` picks.  The rules:
#
# ``one``    the op's leading arguments name one row — a path, an oid, a
#            ``(target_kind, target_id)``, a mid — and the op
#            runs on the partition holding it (``pinned``: always 0, the
#            zone's one audit trail);
# ``scope``  the first argument is a collection: its own partition
#            serves it unless it sits at or above the partition level,
#            where every partition is asked and the answers merged in
#            path order;
# ``bulk``   the first argument is a list: one call per owning
#            partition, answers back in the caller's order (a write
#            that must fail whole checks a batch over several
#            partitions before any of them writes).

PRIMARY, READ = ShardedMcat._primary, ShardedMcat._read


def _of_path(cat: ShardedMcat, path: str) -> int:
    return cat.shard_of_path(path)


def _of_oid(cat: ShardedMcat, oid: int) -> int:
    return cat._shard_of_id("oid", oid)


def _of_mid(cat: ShardedMcat, mid: int) -> int:
    return cat._shard_of_id("mid", mid)


def _pinned(cat: ShardedMcat) -> int:
    return 0


_of_target = ShardedMcat._shard_of_target


def _of_target_pair(cat: ShardedMcat, target: Tuple[str, int]) -> int:
    return cat._shard_of_target(*target)


def _route_one(name: str, side, key, nkeys: int = 1):
    def routed(self, *args, **kw):
        return getattr(side(self, key(self, *args[:nkeys])), name)(
            *args, **kw)
    return routed


def _route_scope(name: str, side, merge):
    def routed(self, scope, *args, **kw):
        scope = paths.normalize(scope)
        if not self._spans_shards(scope):
            return getattr(side(self, self.shard_of_path(scope)), name)(
                scope, *args, **kw)
        return merge([getattr(side(self, k), name)(scope, *args, **kw)
                      for k in self._fanout(name)], *args, **kw)
    return routed


def _route_bulk(name: str, side, key, ident=None, check=None):
    """``ident`` is for an op whose partitions skip the items they do not
    hold (``get_objects_by_ids``): it names the item a returned row
    answers, and the merged answer skips the unknown ones too.  ``check``
    is for a write that fails whole (``add_metadata_bulk``): a batch over
    several partitions is checked by it first (uncharged: schemas are in
    memory), so a bad item fails it before any partition writes a row;
    one partition's write is all or nothing by itself."""
    def routed(self, items, *args, **kw):
        results: List[Any] = [None] * len(items)
        groups: Dict[int, List[int]] = {}
        for i, item in enumerate(items):
            try:
                k = key(self, item)
            except SrbError as exc:     # a path that does not parse
                results[i] = exc        # fails its own item only
                continue
            groups.setdefault(k, []).append(i)
        if check is not None and len(groups) > 1:
            check(self.shards[0].primary, items)
        for k, indexes in sorted(groups.items()):
            got = getattr(side(self, k), name)(
                [items[i] for i in indexes], *args, **kw)
            if ident is not None:
                held = {ident(row): row for row in got}
                got = [held.get(items[i]) for i in indexes]
            for i, res in zip(indexes, got):
                results[i] = res
        if ident is not None:
            return [res for res in results if res is not None]
        return results
    return routed


def _merge_rows(answers, *_args, **_kw) -> List[Dict[str, Any]]:
    """Catalog rows in path order; the root collections, which every
    partition holds, once (the lowest shard's copy)."""
    by_path: Dict[str, Dict[str, Any]] = {}
    for rows in answers:
        for row in rows:
            by_path.setdefault(row["path"], row)
    return sorted(by_path.values(), key=itemgetter("path"))


def _merge_names(answers, include_system: bool = False) -> List[str]:
    # each partition ends its answer with the system attributes
    tail = list(SYSTEM_ATTRS) if include_system else []
    own = -len(tail) or None
    return sorted(set().union(*(names[:own] for names in answers))) + tail


def merge_keyset_pages(pages: Sequence[Sequence[Any]], more: bool,
                       limit: Optional[int], path_of
                       ) -> Tuple[List[Any], Optional[str]]:
    """One global keyset page out of one page per partition.

    One cursor composes across partitions because every partition
    orders by the same key (the path): each serves its first ``limit``
    rows strictly after the cursor, the merged stream is path-sorted,
    and the global first ``limit`` rows are necessarily inside that
    union (a global top-``limit`` row is a top-``limit`` row of its own
    partition).  The next cursor is the last delivered path; the next
    page re-seeks every partition from it, so no per-partition cursor
    state ever crosses the wire.  ``more``: some partition had rows
    past its page.  With no ``limit`` the page is every row.
    """
    rows = sorted(chain.from_iterable(pages), key=path_of)
    out = rows if limit is None else rows[:max(1, int(limit))]
    return out, (str(path_of(out[-1]))
                 if out and (more or len(rows) > len(out)) else None)


def _merge_object_pages(answers, cursor=None, limit: int = 100,
                        recursive: bool = True):
    return merge_keyset_pages(
        [rows for rows, _next in answers],
        any(nxt is not None for _rows, nxt in answers),
        limit, itemgetter("path"))


def _merge_search_pages(answers, _conditions, limit: Optional[int] = 100,
                        **_options):
    page = answers[0]
    page.rows, page.next_cursor = merge_keyset_pages(
        [p.rows for p in answers],
        any(p.next_cursor is not None for p in answers),
        limit, itemgetter(0))
    return page


ROUTES: Dict[str, tuple] = {
    # collections
    "create_collection": (_route_one, PRIMARY, _of_path),
    "get_collection": (_route_one, READ, _of_path),
    "child_collections": (_route_scope, READ, _merge_rows),
    # objects
    "create_objects": (_route_bulk, PRIMARY,
                       lambda cat, spec: cat.shard_of_path(spec["path"])),
    "lookup": (_route_one, READ, _of_path),
    "get_object": (_route_one, READ, _of_path),
    "find_object": (_route_one, READ, _of_path),
    "get_objects_by_ids": (_route_bulk, READ, _of_oid, itemgetter("oid")),
    "update_object": (_route_one, PRIMARY, _of_oid),
    "delete_object": (_route_one, PRIMARY, _of_oid),
    "objects_in_collection": (_route_scope, READ, _merge_rows),
    "objects_in_collection_page": (_route_scope, READ, _merge_object_pages),
    # replicas (of data objects)
    "add_replicas": (_route_bulk, PRIMARY,
                     lambda cat, spec: _of_oid(cat, spec["oid"])),
    "replicas": (_route_one, READ, _of_oid),
    "get_replica": (_route_one, READ, _of_oid),
    "remove_replica": (_route_one, PRIMARY, _of_oid),
    "update_replica": (_route_one, PRIMARY, _of_oid),
    "mark_siblings_dirty": (_route_one, PRIMARY, _of_oid),
    "container_members": (_route_one, READ, _of_oid),
    # metadata (a batch over several partitions is checked whole first)
    "add_metadata_bulk": (_route_bulk, PRIMARY,
                          lambda cat, spec: cat._shard_of_target(
                              spec["target_kind"], spec["target_id"]),
                          None, Mcat._check_metadata_specs),
    "get_metadata": (_route_one, READ, _of_target, 2),
    "get_metadata_bulk": (_route_bulk, READ,
                          _of_target_pair),
    "update_metadata": (_route_one, PRIMARY, _of_mid),
    "delete_metadata": (_route_one, PRIMARY, _of_mid),
    # annotations
    "add_annotation": (_route_one, PRIMARY, _of_target, 2),
    "annotations_for": (_route_one, READ, _of_target, 2),
    # ACLs
    "grant": (_route_one, PRIMARY, _of_target, 2),
    "revoke": (_route_one, PRIMARY, _of_target, 2),
    "grants_for": (_route_one, PRIMARY, _of_target, 2),
    "grants_for_bulk": (_route_bulk, PRIMARY,
                        _of_target_pair),
    # audit
    "record_audit": (_route_one, PRIMARY, _pinned, 0),
    "audit_query": (_route_one, PRIMARY, _pinned, 0),
    # structural metadata (structural_for stitches the inheritance chain)
    "define_structural": (_route_one, PRIMARY, _of_path),
    # attribute queries
    "search_page": (_route_scope, READ, _merge_search_pages),
    "queryable_attributes": (_route_scope, READ, _merge_names),
}

#: written in terms of the ops above, so one partition's code serves as is
#: (a row writer is its table's bulk writer run on one item)
COMPOSED = ("create_object", "add_replica", "add_metadata", "copy_metadata",
            "validate_ingest_metadata")


for _name, (_rule, *_how) in ROUTES.items():
    _routed = _rule(_name, *_how)
    _routed.__name__ = _name
    _routed.__qualname__ = f"ShardedMcat.{_name}"
    _routed.__doc__ = getattr(Mcat, _name).__doc__
    setattr(ShardedMcat, _name, _routed)
for _name in COMPOSED:
    setattr(ShardedMcat, _name, vars(Mcat)[_name])
