"""Sharded MCAT: partition the catalog by collection subtree, replicate
each partition for reads.

The single-zone :class:`~repro.mcat.catalog.Mcat` is the grid's
throughput ceiling and single point of failure — every one of the
server's registered ops pays it a round trip, and E4 shows catalog time
dominating end-to-end latency.  This module splits that catalog the way
AMGA and every production metadata service does:

* **Partitioning.**  K independent ``Mcat`` shards, each holding a
  disjoint set of collection subtrees.  The routing rule hashes the
  *partition key* of a path — its first component, or its second when
  the first is the zone name (so ``/zone/projA/...`` and
  ``/zone/projB/...`` can land on different shards).  ``/`` and
  ``/<zone>`` exist on every shard, so each shard resolves its own
  subtrees without cross-shard chatter.  Ops scoped at or above the
  partition level (``child_collections("/")``, a root query) fan out
  and merge; everything else touches exactly one shard.

* **Replication.**  Each shard keeps a write log fed by the database
  mutation observer (:meth:`repro.db.Database.watch`): raw
  ``(table, kind, rid, values)`` entries.  Because row ids are
  positional and tombstoned, replaying the log in order onto a copy
  reproduces the primary byte for byte — ids included, so a replica
  answers any read exactly as the primary would.  Replicas apply the
  log asynchronously: a read routed to a replica first observes its
  lag and, when the lag exceeds the configured staleness bound
  (default 0 = read-your-writes), catches the replica up before
  serving.  Catch-up charges the *replica's* ``busy_s``, never the
  shared clock — propagation is background work.

* **Anti-entropy.**  A background pass applies pending log entries to
  every reachable replica and compares table digests against the
  primary; a diverged or log-compacted-past replica is rebuilt from a
  primary snapshot.  ``partition_replica``/``heal_replica`` inject the
  fault the repair pass is for.

Cross-shard ``move_object``/``rename_subtree`` are two-shard
copy+delete: dependent rows are inserted on the destination primary
first (flowing through its write log and the id directory), deleted
from the source only once every insert succeeded, and rolled back in
reverse on failure — the catalog never loses a row to a half-done move.

The router preserves the full ``Mcat`` API, so ``AccessController``,
``LockManager``, ``ContainerManager`` and the plane services work
unchanged against ``Federation(mcat_shards=K, mcat_replicas=R)``.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    AlreadyExists,
    NoSuchCollection,
    NoSuchObject,
    SrbError,
)
from repro.mcat.catalog import Mcat, apply_structural
from repro.mcat.dublin_core import SchemaRegistry
from repro.obs import Observability
from repro.util import paths
from repro.util.clock import SimClock
from repro.util.ids import IdFactory

#: tables keyed by object id (cascade/move units of one object)
_OID_TABLES = ("replicas", "locks", "pins", "versions")
#: tables keyed by (target_kind, target_id)
_TARGET_TABLES = ("metadata", "annotations", "acls")


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
    """A drop-in ``Mcat`` partitioned across K shards with R replicas.

    Shares the federation's clock, id factory and observability exactly
    like a plain catalog; shard primaries are ordinary ``Mcat``
    instances, so every charged read/write costs what it would cost
    unsharded — the win is that the charges land on K parallel
    catalogs (``busy_s``) instead of one.
    """

    QUERY_OVERHEAD_S = Mcat.QUERY_OVERHEAD_S
    ROW_COST_S = Mcat.ROW_COST_S
    ANNOTATION_TYPES = Mcat.ANNOTATION_TYPES

    def __init__(self, zone: str = "demozone",
                 clock: Optional[SimClock] = None,
                 ids: Optional[IdFactory] = None,
                 obs: Optional[Observability] = None,
                 shards: int = 2, replicas: int = 0,
                 staleness: int = 0):
        if shards < 1:
            raise SrbError("mcat_shards must be >= 1")
        if replicas < 0:
            raise SrbError("mcat_replicas must be >= 0")
        self.zone = zone
        self.clock = clock
        self.ids = ids if ids is not None else IdFactory()
        self.obs = obs if obs is not None else Observability(clock)
        self.schemas = SchemaRegistry()
        #: max write-log entries a replica may lag behind and still serve
        self.staleness = int(staleness)
        # id directories: where does each minted id live?  Maintained by
        # the mutation observers, so raw-row cross-shard moves keep them
        # exact without any extra bookkeeping at the call sites.
        self._dir: Dict[str, Dict[int, int]] = {
            "oid": {}, "cid": {}, "mid": {}, "aid": {}}
        self.shards: List[McatShard] = []
        for k in range(shards):
            primary = Mcat(zone=zone, clock=clock, ids=self.ids,
                           obs=self.obs)
            primary.schemas = self.schemas
            shard = McatShard(k, primary)
            primary.db.watch(self._observer_for(shard))
            # root rows predate the observer: register their cids by hand
            for row in primary.db.table("collections").all_rows():
                self._dir["cid"][row["cid"]] = k
            self.shards.append(shard)
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
        whose plain catalog then raises the same not-found error an
        unsharded ``Mcat`` would."""
        return self._dir[kind].get(ident, 0)

    def _shard_of_target(self, target_kind: str, target_id: int) -> int:
        key = "cid" if target_kind == "collection" else "oid"
        return self._dir[key].get(target_id, 0)

    def _primary(self, k: int) -> Mcat:
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

    def _track(self, k: int, table: str, kind: str,
               values: Dict[str, Any]) -> None:
        id_col = {"objects": ("oid", "oid"), "collections": ("cid", "cid"),
                  "metadata": ("mid", "mid"),
                  "annotations": ("aid", "aid")}.get(table)
        if id_col is None:
            return
        dir_key, col = id_col
        ident = values.get(col)
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
        replica round-robin (caught up to the staleness bound), else the
        primary."""
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
        if lag > self.staleness:
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
            if table == "collections" and kind in ("update", "delete"):
                rep.catalog._coll_rid_cache.clear()
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
        rows = 0
        for name in shard.primary.db.tables():
            snap = shard.primary.db.table(name).snapshot_rows()
            rep.catalog.db.table(name).restore_rows(snap)
            rows += sum(1 for r in snap if r is not None)
        rep.catalog._coll_rid_cache.clear()
        rep.applied = shard.log_end()
        rep.catalog.busy_s += rows * self.ROW_COST_S
        self.obs.metrics.inc("mcat.shard.replication.rebuilt",
                             shard=str(shard.index))
        return rows

    def _digest(self, catalog: Mcat) -> int:
        """Order-stable checksum of every table's live and dead rows."""
        crc = 0
        for name in catalog.db.tables():
            payload = repr(catalog.db.table(name).snapshot_rows())
            crc = zlib.crc32(payload.encode("utf-8"), crc)
        return crc

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
    def cid_cache_hits(self) -> int:
        return sum(s.primary.cid_cache_hits for s in self.shards)

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
    # collections
    # ------------------------------------------------------------------

    def create_collection(self, path: str, owner: str, now: float) -> int:
        return self._primary(self.shard_of_path(path)).create_collection(
            path, owner, now)

    def collection_exists(self, path: str) -> bool:
        return self._read(self.shard_of_path(path)).collection_exists(path)

    def get_collection(self, path: str) -> Dict[str, Any]:
        return self._read(self.shard_of_path(path)).get_collection(path)

    def child_collections(self, path: str) -> List[Dict[str, Any]]:
        path = paths.normalize(path)
        if not self._spans_shards(path):
            return self._read(self.shard_of_path(path)).child_collections(path)
        rows: List[Dict[str, Any]] = []
        seen = set()
        for k in self._fanout("child_collections"):
            for row in self._read(k).child_collections(path):
                if row["path"] not in seen:      # root rows exist per shard
                    seen.add(row["path"])
                    rows.append(row)
        return sorted(rows, key=lambda r: r["path"])

    def subtree_collections(self, prefix: str) -> List[Dict[str, Any]]:
        prefix = paths.normalize(prefix)
        if not self._spans_shards(prefix):
            return self._read(self.shard_of_path(prefix)) \
                .subtree_collections(prefix)
        rows = []
        seen = set()
        for k in self._fanout("subtree_collections"):
            for row in self._read(k).subtree_collections(prefix):
                if row["path"] not in seen:
                    seen.add(row["path"])
                    rows.append(row)
        return sorted(rows, key=lambda r: r["path"])

    def remove_collection(self, path: str) -> None:
        path = paths.normalize(path)
        if self._spans_shards(path):
            raise SrbError(f"collection {path!r} is a partition root of the "
                           "sharded catalog and cannot be removed")
        self._primary(self.shard_of_path(path)).remove_collection(path)

    # ------------------------------------------------------------------
    # objects
    # ------------------------------------------------------------------

    def create_object(self, path: str, kind: str, owner: str, now: float,
                      **kw: Any) -> int:
        return self._primary(self.shard_of_path(path)).create_object(
            path, kind, owner, now, **kw)

    def create_objects(self, specs: Sequence[Dict[str, Any]], owner: str,
                       now: float) -> List[Any]:
        """Bulk create, grouped per owning shard; results keep the
        caller's spec order (errors slot in per item, as unsharded)."""
        results: List[Any] = [None] * len(specs)
        groups: Dict[int, List[int]] = {}
        for i, spec in enumerate(specs):
            try:
                k = self.shard_of_path(spec["path"])
            except SrbError as exc:
                results[i] = exc
                continue
            groups.setdefault(k, []).append(i)
        for k, indexes in sorted(groups.items()):
            batch = [specs[i] for i in indexes]
            for i, res in zip(indexes,
                              self._primary(k).create_objects(
                                  batch, owner, now)):
                results[i] = res
        return results

    def object_exists(self, path: str) -> bool:
        return self._read(self.shard_of_path(path)).object_exists(path)

    def get_object(self, path: str) -> Dict[str, Any]:
        return self._read(self.shard_of_path(path)).get_object(path)

    def find_object(self, path: str) -> Optional[Dict[str, Any]]:
        return self._read(self.shard_of_path(path)).find_object(path)

    def get_object_by_id(self, oid: int) -> Dict[str, Any]:
        return self._read(self._shard_of_id("oid", oid)).get_object_by_id(oid)

    def get_objects_by_ids(self, oids: Sequence[int]) -> List[Dict[str, Any]]:
        groups: Dict[int, List[int]] = {}
        for oid in oids:
            groups.setdefault(self._shard_of_id("oid", oid), []).append(oid)
        rows = []
        for k, batch in sorted(groups.items()):
            rows.extend(self._read(k).get_objects_by_ids(batch))
        return rows

    def update_object(self, oid: int, **changes: Any) -> None:
        self._primary(self._shard_of_id("oid", oid)).update_object(
            oid, **changes)

    def delete_object(self, oid: int) -> None:
        self._primary(self._shard_of_id("oid", oid)).delete_object(oid)

    def objects_in_collection(self, coll: str,
                              recursive: bool = False
                              ) -> List[Dict[str, Any]]:
        coll = paths.normalize(coll)
        if not self._spans_shards(coll):
            return self._read(self.shard_of_path(coll)) \
                .objects_in_collection(coll, recursive=recursive)
        rows = []
        for k in self._fanout("objects_in_collection"):
            rows.extend(self._read(k).objects_in_collection(
                coll, recursive=recursive))
        return sorted(rows, key=lambda r: r["path"])

    def objects_in_collection_page(self, coll: str,
                                   cursor: Optional[str] = None,
                                   limit: int = 100,
                                   recursive: bool = True
                                   ) -> Tuple[List[Dict[str, Any]],
                                              Optional[str]]:
        """One merged keyset page of a collection's contents.

        Same fan-out+merge cursor scheme as :meth:`route_search_page`:
        each shard serves one page strictly past the global cursor, the
        merged stream truncates to ``limit`` in path order, and the last
        delivered path is the composite ``next_cursor``.
        """
        coll = paths.normalize(coll)
        if not self._spans_shards(coll):
            return self._read(self.shard_of_path(coll)) \
                .objects_in_collection_page(coll, cursor=cursor,
                                            limit=limit,
                                            recursive=recursive)
        page_limit = max(1, int(limit))
        merged: List[Dict[str, Any]] = []
        more_in_shards = False
        for k in self._fanout("objects_in_collection_page"):
            rows, nc = self._read(k).objects_in_collection_page(
                coll, cursor=cursor, limit=page_limit, recursive=recursive)
            merged.extend(rows)
            more_in_shards = more_in_shards or nc is not None
        merged.sort(key=lambda r: r["path"])
        overflow = len(merged) > page_limit
        out = merged[:page_limit]
        next_cursor = (str(out[-1]["path"])
                       if out and (overflow or more_in_shards) else None)
        return out, next_cursor

    def links_to(self, target_path: str) -> List[Dict[str, Any]]:
        # links may point across partitions, so this is always a fan-out
        rows = []
        for k in self._fanout("links_to"):
            rows.extend(self._read(k).links_to(target_path))
        return rows

    def count_objects(self) -> int:
        return sum(self._read(k).count_objects()
                   for k in self._fanout("count_objects"))

    def oid_table(self, name: str, oid: int):
        """Table holding ``oid``'s dependent rows, on its owning shard's
        primary (lock/pin/version writes always hit the primary)."""
        return self._primary(self._shard_of_id("oid", oid)).db.table(name)

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
        with src._charged():
            obj_t = src.db.table("objects")
            rids = obj_t.lookup_eq("oid", oid)
            if not rids:
                raise NoSuchObject(f"no object id {oid}")
            obj = obj_t.row_dict(rids[0])
            dependents = self._collect_object_rows(src, oid)
        restore: Dict[str, Dict[int, int]] = {"oid": {oid: src_k},
                                              "mid": {}, "aid": {}}
        for table, dep in dependents:
            self._note_restore(restore, table, dep, src_k)
        with dst._charged():
            coll = paths.dirname(new_path)
            if not dst._collection_rid(coll):
                raise NoSuchCollection(f"no collection {coll!r}")
            if dst._object_rid(new_path) or dst._collection_rid(new_path):
                raise AlreadyExists(f"path {new_path!r} already in use")
            moved = dict(obj, path=new_path, coll=coll,
                         name=paths.basename(new_path))
            self._insert_rows(dst, [("objects", moved)] + dependents,
                              restore=restore)
        with src._charged():
            self._delete_source_rows(src, [("objects", obj)] + dependents)
        self.obs.metrics.inc("mcat.shard.cross_moves", op="move_object")

    def rename_subtree(self, old_prefix: str, new_prefix: str) -> int:
        old_prefix = paths.normalize(old_prefix)
        new_prefix = paths.normalize(new_prefix)
        if self._spans_shards(old_prefix) or self._spans_shards(new_prefix):
            raise SrbError(
                "rename at or above the partition level is not supported "
                "on a sharded catalog (would re-key every shard)")
        src_k = self.shard_of_path(old_prefix)
        dst_k = self.shard_of_path(new_prefix)
        if src_k == dst_k:
            return self._primary(src_k).rename_subtree(old_prefix, new_prefix)
        src, dst = self._primary(src_k), self._primary(dst_k)

        # Collect every row under the prefix from the source shard.
        count = 0
        moves: List[Tuple[str, Dict[str, Any]]] = []   # (table, src values)
        inserts: List[Tuple[str, Dict[str, Any]]] = []  # (table, dst values)
        restore: Dict[str, Dict[int, int]] = {"oid": {}, "cid": {},
                                              "mid": {}, "aid": {}}
        with src._charged():
            colls = src.db.table("collections")
            for rid in list(colls.scan()):
                row = colls.row_dict(rid)
                p = row["path"]
                if p != old_prefix and not paths.is_ancestor(old_prefix, p):
                    continue
                newp = paths.relocate(p, old_prefix, new_prefix)
                moved = dict(row, path=newp, parent=paths.dirname(newp))
                moves.append(("collections", row))
                inserts.append(("collections", moved))
                restore["cid"][row["cid"]] = src_k
                count += 1
                for table, dep in self._collect_target_rows(
                        src, "collection", row["cid"]):
                    moves.append((table, dep))
                    inserts.append((table, dep))
                    self._note_restore(restore, table, dep, src_k)
            st = src.db.table("structural_meta")
            for rid in list(st.scan()):
                row = st.row_dict(rid)
                p = row["coll_path"]
                if p != old_prefix and not paths.is_ancestor(old_prefix, p):
                    continue
                moves.append(("structural_meta", row))
                inserts.append(("structural_meta", dict(
                    row, coll_path=paths.relocate(p, old_prefix, new_prefix))))
            objs = src.db.table("objects")
            for rid in list(objs.scan()):
                row = objs.row_dict(rid)
                if not paths.is_ancestor(old_prefix, row["path"]):
                    continue
                newp = paths.relocate(row["path"], old_prefix, new_prefix)
                moves.append(("objects", row))
                inserts.append(("objects", dict(
                    row, path=newp, coll=paths.dirname(newp),
                    name=paths.basename(newp))))
                restore["oid"][row["oid"]] = src_k
                count += 1
                for table, dep in self._collect_object_rows(src, row["oid"]):
                    moves.append((table, dep))
                    inserts.append((table, dep))
                    self._note_restore(restore, table, dep, src_k)

        with dst._charged():
            parent = paths.dirname(new_prefix)
            if not dst._collection_rid(parent):
                raise NoSuchCollection(f"no collection {parent!r}")
            if dst._collection_rid(new_prefix) or dst._object_rid(new_prefix):
                raise AlreadyExists(f"path {new_prefix!r} already in use")
            self._insert_rows(dst, inserts, restore=restore)
        with src._charged():
            self._delete_source_rows(src, moves)
        src._coll_rid_cache.clear()
        dst._coll_rid_cache.clear()
        self.obs.metrics.inc("mcat.shard.cross_moves", op="rename_subtree")
        return count

    def _collect_object_rows(self, src: Mcat,
                             oid: int) -> List[Tuple[str, Dict[str, Any]]]:
        """Every dependent row of one object, in insert-safe order."""
        out = []
        for table in _OID_TABLES:
            t = src.db.table(table)
            for rid in t.lookup_eq("oid", oid):
                out.append((table, t.row_dict(rid)))
        out.extend(self._collect_target_rows(src, "object", oid))
        return out

    def _collect_target_rows(self, src: Mcat, target_kind: str,
                             target_id: int
                             ) -> List[Tuple[str, Dict[str, Any]]]:
        out = []
        for table in _TARGET_TABLES:
            t = src.db.table(table)
            for rid in t.lookup_eq("target_id", target_id):
                row = t.row_dict(rid)
                if row["target_kind"] == target_kind:
                    out.append((table, row))
        return out

    @staticmethod
    def _note_restore(restore: Dict[str, Dict[int, int]], table: str,
                      row: Dict[str, Any], src_k: int) -> None:
        if table == "metadata":
            restore["mid"][row["mid"]] = src_k
        elif table == "annotations":
            restore["aid"][row["aid"]] = src_k

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

    # ------------------------------------------------------------------
    # replicas (of data objects)
    # ------------------------------------------------------------------

    def add_replica(self, oid: int, resource: str, physical_path: str,
                    size: int, now: float, **kw: Any) -> int:
        return self._primary(self._shard_of_id("oid", oid)).add_replica(
            oid, resource, physical_path, size, now, **kw)

    def add_replicas(self, specs: Sequence[Dict[str, Any]],
                     now: float) -> List[int]:
        results: List[int] = [0] * len(specs)
        groups: Dict[int, List[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault(self._shard_of_id("oid", spec["oid"]),
                              []).append(i)
        for k, indexes in sorted(groups.items()):
            batch = [specs[i] for i in indexes]
            for i, num in zip(indexes,
                              self._primary(k).add_replicas(batch, now)):
                results[i] = num
        return results

    def replicas(self, oid: int) -> List[Dict[str, Any]]:
        return self._read(self._shard_of_id("oid", oid)).replicas(oid)

    def get_replica(self, oid: int, replica_num: int) -> Dict[str, Any]:
        return self._read(self._shard_of_id("oid", oid)).get_replica(
            oid, replica_num)

    def remove_replica(self, oid: int, replica_num: int) -> None:
        self._primary(self._shard_of_id("oid", oid)).remove_replica(
            oid, replica_num)

    def update_replica(self, oid: int, replica_num: int,
                       **changes: Any) -> None:
        self._primary(self._shard_of_id("oid", oid)).update_replica(
            oid, replica_num, **changes)

    def mark_siblings_dirty(self, oid: int, fresh_replica_num: int) -> None:
        self._primary(self._shard_of_id("oid", oid)).mark_siblings_dirty(
            oid, fresh_replica_num)

    def replicas_on_resource(self, resource: str) -> List[Dict[str, Any]]:
        rows = []
        for k in self._fanout("replicas_on_resource"):
            rows.extend(self._read(k).replicas_on_resource(resource))
        return rows

    def container_members(self, container_oid: int) -> List[Dict[str, Any]]:
        return self._read(self._shard_of_id("oid", container_oid)) \
            .container_members(container_oid)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------

    def add_metadata(self, target_kind: str, target_id: int, attr: str,
                     value: Optional[str], by: str, now: float,
                     **kw: Any) -> int:
        return self._primary(
            self._shard_of_target(target_kind, target_id)).add_metadata(
                target_kind, target_id, attr, value, by, now, **kw)

    def add_metadata_bulk(self, specs: Sequence[Dict[str, Any]], by: str,
                          now: float) -> List[int]:
        # validate all specs up front (uncharged: schemas are in memory)
        # so a bad one fails the batch before any shard inserts a row —
        # same all-or-nothing contract as the unsharded bulk path
        probe = self.shards[0].primary
        for spec in specs:
            probe._check_metadata_spec(
                spec["target_kind"], spec["attr"], spec["value"],
                spec.get("meta_class", "user"), spec.get("schema_name"))
        results: List[int] = [0] * len(specs)
        groups: Dict[int, List[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault(self._shard_of_target(
                spec["target_kind"], spec["target_id"]), []).append(i)
        for k, indexes in sorted(groups.items()):
            batch = [specs[i] for i in indexes]
            for i, mid in zip(indexes,
                              self._primary(k).add_metadata_bulk(
                                  batch, by, now)):
                results[i] = mid
        return results

    def get_metadata(self, target_kind: str, target_id: int,
                     meta_class: Optional[str] = None
                     ) -> List[Dict[str, Any]]:
        return self._read(
            self._shard_of_target(target_kind, target_id)).get_metadata(
                target_kind, target_id, meta_class)

    def _bulk_by_target(self, targets: Sequence[Any], catalog_of,
                        method: str, *args: Any) -> List[Any]:
        """A ``<method>(targets, *args)`` bulk read as one call per owning
        shard (on the catalog ``catalog_of(k)`` picks); the results keep
        the caller's target order."""
        results: List[Any] = [None] * len(targets)
        groups: Dict[int, List[int]] = {}
        for i, (kind, tid) in enumerate(targets):
            groups.setdefault(self._shard_of_target(kind, tid), []).append(i)
        for k, indexes in sorted(groups.items()):
            batch = [targets[i] for i in indexes]
            for i, rows in zip(indexes,
                               getattr(catalog_of(k), method)(batch, *args)):
                results[i] = rows
        return results

    def get_metadata_bulk(self, targets: Sequence[Any],
                          meta_class: Optional[str] = None
                          ) -> List[List[Dict[str, Any]]]:
        return self._bulk_by_target(targets, self._read,
                                    "get_metadata_bulk", meta_class)

    def metadata_values_bulk(self, targets: Sequence[Any], attrs
                             ) -> List[Dict[str, List[Tuple[Any, Any]]]]:
        return self._bulk_by_target(targets, self._read,
                                    "metadata_values_bulk", attrs)

    def update_metadata(self, mid: int, value: Optional[str],
                        units: Optional[str] = None) -> None:
        self._primary(self._shard_of_id("mid", mid)).update_metadata(
            mid, value, units)

    def delete_metadata(self, mid: int) -> None:
        self._primary(self._shard_of_id("mid", mid)).delete_metadata(mid)

    def copy_metadata(self, src_kind: str, src_id: int,
                      dst_kind: str, dst_id: int, by: str,
                      now: float) -> int:
        copied = 0
        for row in self.get_metadata(src_kind, src_id):
            self.add_metadata(dst_kind, dst_id, row["attr"], row["value"],
                              by=by, now=now, units=row["units"],
                              meta_class=row["meta_class"],
                              schema_name=row["schema_name"])
            copied += 1
        return copied

    # ------------------------------------------------------------------
    # structural metadata
    # ------------------------------------------------------------------

    def define_structural(self, coll_path: str, attr: str, **kw: Any) -> int:
        coll_path = paths.normalize(coll_path)
        # partition-level requirements (on "/" or "/<zone>") live on
        # shard 0; structural_for stitches them back into every shard's
        # inheritance chain
        k = 0 if self._spans_shards(coll_path) \
            else self.shard_of_path(coll_path)
        return self._primary(k).define_structural(coll_path, attr, **kw)

    def structural_for(self, coll_path: str,
                       inherited: bool = True) -> List[Dict[str, Any]]:
        coll_path = paths.normalize(coll_path)
        k = self.shard_of_path(coll_path)
        rows: List[Dict[str, Any]] = []
        if inherited and k != 0:
            for scope in paths.ancestors(coll_path):
                if self._spans_shards(scope):
                    rows.extend(self._read(0).structural_for(
                        scope, inherited=False))
        rows.extend(self._read(k).structural_for(coll_path,
                                                 inherited=inherited))
        return rows

    def validate_ingest_metadata(self, coll_path: str,
                                 provided: Dict[str, str]) -> Dict[str, str]:
        return apply_structural(self.structural_for(coll_path), provided,
                                coll_path)

    # ------------------------------------------------------------------
    # annotations
    # ------------------------------------------------------------------

    def add_annotation(self, target_kind: str, target_id: int, ann_type: str,
                       author: str, text: str, now: float,
                       location: Optional[str] = None) -> int:
        return self._primary(
            self._shard_of_target(target_kind, target_id)).add_annotation(
                target_kind, target_id, ann_type, author, text, now,
                location=location)

    def annotations_for(self, target_kind: str,
                        target_id: int) -> List[Dict[str, Any]]:
        return self._read(
            self._shard_of_target(target_kind, target_id)).annotations_for(
                target_kind, target_id)

    def annotations_for_bulk(self, targets: Sequence[Any]
                             ) -> List[List[Dict[str, Any]]]:
        return self._bulk_by_target(targets, self._read,
                                    "annotations_for_bulk")

    def delete_annotation(self, aid: int) -> None:
        self._primary(self._shard_of_id("aid", aid)).delete_annotation(aid)

    # ------------------------------------------------------------------
    # ACLs
    # ------------------------------------------------------------------

    def grant(self, target_kind: str, target_id: int, principal: str,
              permission: str) -> None:
        self._primary(self._shard_of_target(target_kind, target_id)).grant(
            target_kind, target_id, principal, permission)

    def revoke(self, target_kind: str, target_id: int,
               principal: str) -> None:
        self._primary(self._shard_of_target(target_kind, target_id)).revoke(
            target_kind, target_id, principal)

    def grants_for(self, target_kind: str,
                   target_id: int) -> List[Dict[str, Any]]:
        # ACL checks must never read stale rows: a revoke takes effect
        # immediately, so grants always come from the primary
        return self._primary(
            self._shard_of_target(target_kind, target_id)).grants_for(
                target_kind, target_id)

    def grants_for_bulk(self, targets: Sequence[Any]
                        ) -> List[List[Dict[str, Any]]]:
        # from the primaries, for the reason grants_for gives
        return self._bulk_by_target(targets, self._primary,
                                    "grants_for_bulk")

    # ------------------------------------------------------------------
    # audit (pinned to shard 0: one zone-wide trail, as unsharded)
    # ------------------------------------------------------------------

    def record_audit(self, now: float, principal: str, action: str,
                     target: str, detail: Optional[str] = None,
                     ok: bool = True) -> int:
        return self._primary(0).record_audit(now, principal, action,
                                             target, detail=detail, ok=ok)

    def audit_query(self, **kw: Any) -> List[Dict[str, Any]]:
        return self._primary(0).audit_query(**kw)

    # ------------------------------------------------------------------
    # query routing (repro.mcat.query checks for these hooks)
    # ------------------------------------------------------------------

    def route_search(self, scope: str, conditions: Sequence[Any],
                     include_annotations: bool = False,
                     include_system: bool = False,
                     limit: Optional[int] = None,
                     strategy: str = "auto", visible=None):
        from repro.mcat import query as q
        if not self._spans_shards(paths.normalize(scope)):
            k = self.shard_of_path(scope)
            return q.search(self._read(k), scope, conditions,
                            include_annotations=include_annotations,
                            include_system=include_system,
                            limit=limit, strategy=strategy, visible=visible)
        merged = None
        for k in self._fanout("search"):
            res = q.search(self._read(k), scope, conditions,
                           include_annotations=include_annotations,
                           include_system=include_system,
                           limit=limit, strategy=strategy, visible=visible)
            if merged is None:
                merged = res
            else:
                merged.rows.extend(res.rows)
        merged.rows.sort(key=lambda r: r[0])    # column 0 is the path
        if limit is not None:
            merged.rows = merged.rows[:limit]
        return merged

    def route_search_page(self, scope: str, conditions: Sequence[Any],
                          include_annotations: bool = False,
                          include_system: bool = False,
                          limit: int = 100,
                          cursor: Optional[str] = None, visible=None):
        """Fan-out+merge keyset page across shards.

        One global cursor composes across shards because every shard
        orders by the same key (the path): each shard serves its first
        ``limit`` visible matches strictly after ``cursor``, the merged
        stream is path-sorted, and the global first ``limit`` rows are
        necessarily inside that union (a global top-``limit`` row is a
        top-``limit`` row of its own shard).  ``next_cursor`` is the
        last delivered path; the next page re-seeks every shard from
        it, so no per-shard cursor state ever crosses the wire.
        """
        from repro.mcat import query as q
        if not self._spans_shards(paths.normalize(scope)):
            k = self.shard_of_path(scope)
            return q.search_page(self._read(k), scope, conditions,
                                 include_annotations=include_annotations,
                                 include_system=include_system,
                                 limit=limit, cursor=cursor, visible=visible)
        page_limit = max(1, int(limit))
        pages = [q.search_page(self._read(k), scope, conditions,
                               include_annotations=include_annotations,
                               include_system=include_system,
                               limit=page_limit, cursor=cursor,
                               visible=visible)
                 for k in self._fanout("search_page")]
        merged_rows: List[tuple] = []
        for page in pages:
            merged_rows.extend(page.rows)
        merged_rows.sort(key=lambda r: r[0])    # column 0 is the path
        overflow = len(merged_rows) > page_limit
        rows = merged_rows[:page_limit]
        more_in_shards = any(page.next_cursor is not None for page in pages)
        next_cursor = (str(rows[-1][0])
                       if rows and (overflow or more_in_shards) else None)
        return q.QueryPage(columns=pages[0].columns, rows=rows,
                           next_cursor=next_cursor)

    def route_queryable_attributes(self, scope: str,
                                   include_system: bool = False) -> List[str]:
        from repro.mcat import query as q
        if not self._spans_shards(paths.normalize(scope)):
            k = self.shard_of_path(scope)
            return q.queryable_attributes(self._read(k), scope,
                                          include_system=include_system)
        names = set()
        for k in self._fanout("queryable_attributes"):
            names.update(q.queryable_attributes(self._read(k), scope,
                                                include_system=False))
        out = sorted(names)
        if include_system:
            out.extend(q.SYSTEM_ATTRS)
        return out
