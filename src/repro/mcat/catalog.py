"""MCAT — the Metadata Catalog.

One MCAT exists per federation zone (the paper's deployments ran it on
Oracle at SDSC).  It is the authoritative record of the logical name
space: collections, data objects of every kind, replicas, the five
metadata classes, ACLs, annotations, audit trail, locks/pins/versions.
An :class:`Mcat` is one partition's store of it; the zone's catalog
(:class:`repro.mcat.shard.ShardedMcat`) is one or more of them behind a
routing table, and with one it *is* this class's methods.

The catalog is deliberately *mechanism*: it stores and retrieves rows and
enforces referential rules (unique paths, replica numbering, cascade
deletes).  Policy — which replica to read, whether an ACL permits an
action, lock semantics — lives in :mod:`repro.core`, which calls down
here, mirroring the SRB-server / MCAT split in the real system.

Every public method charges catalog query time to the virtual clock
proportional to the rows it touched, so MCAT cost appears in end-to-end
latencies (and dominates them in the E4 scaling experiment).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.db import Database, Table
from repro.errors import (
    AlreadyExists,
    MandatoryMetadataMissing,
    MetadataError,
    NoSuchCollection,
    NoSuchObject,
    NoSuchReplica,
    NotEmpty,
    SrbError,
    VocabularyViolation,
)
from repro.mcat import query
from repro.mcat.dublin_core import SchemaRegistry
from repro.mcat.schema import OBJECT_KINDS, PERMISSIONS, REPLICA_ORDER, \
    build_schema, subtree_path_range
from repro.obs import Observability
from repro.util import paths
from repro.util.clock import SimClock
from repro.util.ids import IdFactory


def apply_structural(reqs: Sequence[Dict[str, Any]],
                     provided: Dict[str, str],
                     coll_path: str) -> Dict[str, str]:
    """Apply structural requirement rows to a provided attribute dict.

    Pure function so bulk ingest can fetch the (charged) requirement
    rows once per collection and validate N items against them.  Runs
    before an ingest creates anything, so it is also where a name or a
    value that is not text is refused (:func:`_refuse_non_text`).
    """
    effective = dict(provided)
    for attr in effective:
        value = effective[attr]
        if type(attr) is not str or (type(value) is not str
                                     and value is not None):
            _refuse_non_text(attr, value)
    missing = []
    for req in reqs:
        attr = req["attr"]
        vocab = req["vocabulary"].split("|") if req["vocabulary"] else None
        if attr not in effective:
            if req["default_value"] is not None:
                effective[attr] = req["default_value"]
            elif req["mandatory"]:
                missing.append(attr)
                continue
            else:
                continue
        if vocab is not None and effective[attr] not in vocab:
            raise VocabularyViolation(
                f"{attr}={effective[attr]!r} not in vocabulary {vocab} "
                f"for collection {coll_path!r}")
    if missing:
        raise MandatoryMetadataMissing(missing)
    return effective


def _refuse_non_text(attr: Any, value: Any) -> None:
    """Metadata names and values are TEXT columns.  What a caller sent
    instead (``{"RA": 12.5}``) is bad input, refused here — before any
    row or byte exists — not by the column after the object was made.
    Callers test the exact type inline first, which costs no call."""
    if not isinstance(attr, str) or not (value is None
                                         or isinstance(value, str)):
        raise MetadataError(
            f"metadata {attr!r}={value!r}: names and values must be text")


def _num(value: Optional[str]) -> Optional[float]:
    """Numeric mirror of a metadata value, for range comparisons."""
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


class _Charge:
    """A catalog's charge: ``with mcat._charge:`` makes the block one
    charged catalog op.  Entering records the scan mark; leaving (error
    or not) charges the fixed overhead plus the rows the block touched to
    the clock, ``busy_s`` and metrics.

    One object per catalog, re-entered by every op.  Blocks nest
    (``move_object`` runs ``update_object`` inside its own): ``marks``
    holds the mark of each open block, innermost last, so the inner block
    is charged first and the outer one for everything since *its* mark —
    the inner block's rows included, as two ops."""

    __slots__ = ("mcat", "scans", "marks")

    def __init__(self, mcat: "Mcat"):
        self.mcat = mcat
        self.scans = mcat.db.scan_counter
        self.marks: Tuple[int, ...] = ()

    def __enter__(self) -> None:
        self.marks += (self.scans.total,)

    def __exit__(self, exc_type, exc, tb) -> None:
        mcat = self.mcat
        touched = self.scans.total - self.marks[-1]
        self.marks = self.marks[:-1]
        cost = mcat.QUERY_OVERHEAD_S + touched * mcat.ROW_COST_S
        mcat.busy_s += cost
        mcat._ops.inc()
        if touched:
            mcat._rows.inc(touched)
        tracer = mcat.obs.tracer
        if tracer.stack:
            # what Span.breakdown files under "catalog"
            tracer.add("catalog_s", cost)
            if touched:
                tracer.add("catalog_rows", touched)
        if mcat.clock is not None:
            mcat.clock.advance(cost)


class Mcat:
    """Metadata catalog for one zone."""

    QUERY_OVERHEAD_S = 200e-6
    ROW_COST_S = 2e-6

    def __init__(self, zone: str = "demozone",
                 clock: Optional[SimClock] = None,
                 ids: Optional[IdFactory] = None,
                 obs: Optional[Observability] = None):
        self.zone = zone
        self.clock = clock
        self.ids = ids if ids is not None else IdFactory()
        # standalone catalogs (catalog-scale benchmarks) get their own
        # pipeline; federations pass the shared one in
        self.obs = obs if obs is not None else Observability(clock)
        # the two series every charged op counts into (see _Charge)
        self._ops = self.obs.metrics.bind_counter("mcat.ops")
        self._rows = self.obs.metrics.bind_counter("mcat.rows_scanned")
        # The backing database is *not* clock-wired: MCAT charges its own
        # per-operation cost so that one logical catalog op = one charge,
        # regardless of how many internal table calls it makes.
        self.db = Database(name=f"mcat-{zone}")
        build_schema(self.db)
        # the tables, bound once: a Table lives as long as its catalog
        table = self.db.table
        self._objects = table("objects")
        self._replicas = table("replicas")
        self._collections = table("collections")
        self._metadata = table("metadata")
        self._structural = table("structural_meta")
        self._annotations = table("annotations")
        self._acls = table("acls")
        self._audit = table("audit")
        # what goes with an object, and with an object or a collection
        self._oid_keyed = (self._replicas, table("locks"), table("pins"),
                           table("versions"))
        self._target_keyed = (self._metadata, self._annotations, self._acls)
        self._charge = _Charge(self)
        self.schemas = SchemaRegistry()
        # path -> row-id cache for collection resolution.  Row ids are
        # stable (tombstone deletes), so an entry stays valid until the
        # collection is removed or a subtree rename rewrites paths.
        self._coll_rid_cache: Dict[str, int] = {}
        self.cid_cache_hits = 0
        # Cumulative service time this catalog instance spent answering
        # queries.  The clock serialises every charge onto one timeline;
        # busy_s is the per-instance view the sharded-catalog benchmark
        # needs to compute a parallel makespan across K catalog servers.
        self.busy_s = 0.0
        # root and zone collection exist from the start
        self._insert_collection("/", None, owner="srb@localhost", now=0.0)
        self._insert_collection(f"/{zone}", "/", owner="srb@localhost", now=0.0)

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------

    def _rows_scanned(self) -> int:
        return self.db.scan_counter.total

    # ------------------------------------------------------------------
    # collections
    # ------------------------------------------------------------------

    def _insert_collection(self, path: str, parent: Optional[str],
                           owner: str, now: float) -> int:
        cid = self.ids.next_int("cid")
        rid = self._collections.insert({
            "cid": cid, "path": path, "parent": parent,
            "owner": owner, "created_at": now,
        })
        self._coll_rid_cache[path] = rid
        return cid

    def create_collection(self, path: str, owner: str, now: float) -> int:
        """Create a collection; its parent must already exist."""
        with self._charge:
            path = paths.normalize(path)
            parent = paths.dirname(path)
            if not self._collection_rid(parent):
                raise NoSuchCollection(f"parent collection {parent!r} missing")
            if self._collection_rid(path):
                raise AlreadyExists(f"collection {path!r} exists")
            if self._object_rid(path):
                raise AlreadyExists(f"an object already has path {path!r}")
            return self._insert_collection(path, parent, owner, now)

    def _collection_rid(self, path: str) -> List[int]:
        rid = self._coll_rid_cache.get(path)
        if rid is not None:
            self.cid_cache_hits += 1
            return [rid]
        rids = self._collections.lookup_eq("path", path)
        if rids:
            self._coll_rid_cache[path] = rids[0]
        return rids

    def collection_exists(self, path: str) -> bool:
        with self._charge:
            return bool(self._collection_rid(paths.normalize(path)))

    def get_collection(self, path: str) -> Dict[str, Any]:
        with self._charge:
            rids = self._collection_rid(paths.normalize(path))
            if not rids:
                raise NoSuchCollection(f"no collection {path!r}")
            return self._collections.row_dict(rids[0])

    def child_collections(self, path: str) -> List[Dict[str, Any]]:
        with self._charge:
            t = self._collections
            return sorted(t.row_dicts(t.lookup_eq("parent",
                                                  paths.normalize(path))),
                          key=itemgetter("path"))

    def subtree_collections(self, prefix: str) -> List[Dict[str, Any]]:
        """The collection at ``prefix`` and every descendant collection.

        BFS over the ``parent`` index, so the charge is O(subtree) rows —
        not a full-table scan per call (the hierarchy invariant says every
        descendant's parent chain passes through ``prefix``).
        """
        with self._charge:
            prefix = paths.normalize(prefix)
            t = self._collections
            rids = self._collection_rid(prefix)
            if not rids:
                return []
            out = [t.row_dict(rids[0])]
            frontier = [prefix]
            while frontier:
                rows = t.row_dicts(t.lookup_eq("parent", frontier.pop()))
                out += rows
                frontier += [row["path"] for row in rows]
            return sorted(out, key=itemgetter("path"))

    def remove_collection(self, path: str) -> None:
        """Remove an *empty* collection."""
        with self._charge:
            path = paths.normalize(path)
            rids = self._collection_rid(path)
            if not rids:
                raise NoSuchCollection(f"no collection {path!r}")
            t = self._collections
            if t.lookup_eq("parent", path):
                raise NotEmpty(f"collection {path!r} has sub-collections")
            if self._objects.lookup_eq("coll", path):
                raise NotEmpty(f"collection {path!r} contains objects")
            cid = t.value(rids[0], "cid")
            self._purge_metadata("collection", cid)
            t.delete_row(rids[0])
            self._coll_rid_cache.pop(path, None)

    def rename_subtree(self, old_prefix: str, new_prefix: str) -> int:
        """Rewrite every collection and object path under ``old_prefix``.

        This is the heart of the paper's persistence claim: a recursive
        move changes physical placement and/or the collection hierarchy
        while logical names keep resolving.  Returns entries rewritten.
        """
        with self._charge:
            old_prefix = paths.normalize(old_prefix)
            new_prefix = paths.normalize(new_prefix)
            # paths under old_prefix are about to be rewritten in place
            self._coll_rid_cache.clear()
            colls = self._collections
            objs = self._objects
            count = 0
            for rid in list(colls.scan()):
                row = colls.row_dict(rid)
                p = row["path"]
                if p == old_prefix or paths.is_ancestor(old_prefix, p):
                    newp = paths.relocate(p, old_prefix, new_prefix)
                    changes = {"path": newp}
                    if row["parent"] is not None:
                        if row["parent"] == old_prefix or \
                                paths.is_ancestor(old_prefix, row["parent"]) or \
                                p == old_prefix:
                            changes["parent"] = paths.dirname(newp)
                    colls.update_row(rid, changes)
                    count += 1
            for rid in list(objs.scan()):
                row = objs.row_dict(rid)
                if paths.is_ancestor(old_prefix, row["path"]):
                    newp = paths.relocate(row["path"], old_prefix, new_prefix)
                    objs.update_row(rid, {"path": newp,
                                          "coll": paths.dirname(newp),
                                          "name": paths.basename(newp)})
                    count += 1
            return count

    # ------------------------------------------------------------------
    # objects
    # ------------------------------------------------------------------

    def create_object(self, path: str, kind: str, owner: str, now: float,
                      data_type: Optional[str] = None,
                      size: Optional[int] = None,
                      target: Optional[str] = None,
                      template: Optional[str] = None,
                      resource_hint: Optional[str] = None,
                      checksum: Optional[str] = None) -> int:
        """Register a new object row; the collection must exist."""
        with self._charge:
            return self._create_object_row(
                path, kind, owner, now, data_type=data_type, size=size,
                target=target, template=template,
                resource_hint=resource_hint, checksum=checksum)

    def _create_object_row(self, path: str, kind: str, owner: str,
                           now: float,
                           data_type: Optional[str] = None,
                           size: Optional[int] = None,
                           target: Optional[str] = None,
                           template: Optional[str] = None,
                           resource_hint: Optional[str] = None,
                           checksum: Optional[str] = None) -> int:
        if kind not in OBJECT_KINDS:
            raise MetadataError(f"unknown object kind {kind!r}")
        path = paths.normalize(path)
        coll = paths.dirname(path)
        if not self._collection_rid(coll):
            raise NoSuchCollection(f"no collection {coll!r}")
        if self._object_rid(path) or self._collection_rid(path):
            raise AlreadyExists(f"path {path!r} already in use")
        oid = self.ids.next_int("oid")
        self._objects.insert({
            "oid": oid, "path": path, "coll": coll,
            "name": paths.basename(path), "kind": kind,
            "data_type": data_type, "owner": owner,
            "created_at": now, "modified_at": now, "size": size,
            "target": target, "template": template,
            "resource_hint": resource_hint,
            "version": 1, "checked_out_by": None,
            "checksum": checksum,
        })
        return oid

    def create_objects(self, specs: Sequence[Dict[str, Any]], owner: str,
                       now: float) -> List[Any]:
        """Bulk :meth:`create_object`: N rows under one charged block.

        Each spec is the keyword dict of one ``create_object`` call
        (minus ``owner``/``now``).  Returns a list aligned with ``specs``
        holding the new oid, or the :class:`SrbError` that item raised —
        one invalid item does not poison the batch (rows inserted as we
        go, so intra-batch duplicate paths are caught too).
        """
        with self._charge:
            results: List[Any] = []
            for spec in specs:
                try:
                    results.append(
                        self._create_object_row(owner=owner, now=now, **spec))
                except SrbError as exc:
                    results.append(exc)
            return results

    def _object_rid(self, path: str) -> List[int]:
        return self._objects.lookup_eq("path", path)

    def object_exists(self, path: str) -> bool:
        with self._charge:
            return bool(self._object_rid(paths.normalize(path)))

    def get_object(self, path: str) -> Dict[str, Any]:
        with self._charge:
            rids = self._object_rid(paths.normalize(path))
            if not rids:
                raise NoSuchObject(f"no object {path!r}")
            return self._objects.row_dict(rids[0])

    def find_object(self, path: str) -> Optional[Dict[str, Any]]:
        with self._charge:
            rids = self._object_rid(paths.normalize(path))
            return self._objects.row_dict(rids[0]) if rids else None

    def get_object_by_id(self, oid: int) -> Dict[str, Any]:
        with self._charge:
            rids = self._objects.lookup_eq("oid", oid)
            if not rids:
                raise NoSuchObject(f"no object id {oid}")
            return self._objects.row_dict(rids[0])

    def get_objects_by_ids(self, oids: Sequence[int]) -> List[Dict[str, Any]]:
        """Object rows for N oids under one charged block.

        One query overhead for the whole list instead of one per id.
        Unknown ids are skipped (index candidates can race a delete).
        """
        with self._charge:
            t = self._objects
            return t.row_dicts(t.lookup_eq_many("oid", oids))

    def update_object(self, oid: int, **changes: Any) -> None:
        with self._charge:
            rids = self._objects.lookup_eq("oid", oid)
            if not rids:
                raise NoSuchObject(f"no object id {oid}")
            self._objects.update_row(rids[0], changes)

    def move_object(self, oid: int, new_path: str) -> None:
        """Logical move: only the path changes; metadata stays attached."""
        with self._charge:
            new_path = paths.normalize(new_path)
            coll = paths.dirname(new_path)
            if not self._collection_rid(coll):
                raise NoSuchCollection(f"no collection {coll!r}")
            if self._object_rid(new_path) or self._collection_rid(new_path):
                raise AlreadyExists(f"path {new_path!r} already in use")
            self.update_object(oid, path=new_path, coll=coll,
                               name=paths.basename(new_path))

    def objects_in_collection(self, coll: str,
                              recursive: bool = False) -> List[Dict[str, Any]]:
        with self._charge:
            return self._objects.row_dicts(
                self._subtree(paths.normalize(coll), recursive))

    def _subtree(self, coll: str, recursive: bool) -> List[int]:
        """Row ids of the objects in normalized ``coll`` (and below it, if
        ``recursive``: a charged scan of every object), in path order.
        The caller charges."""
        t = self._objects
        rids = list(t.scan()) if recursive else t.lookup_eq("coll", coll)
        # stored paths are normalized: below coll is a prefix test
        below = coll.rstrip("/") + "/"
        keyed = [(path, rid) for rid, (path, owner) in
                 zip(rids, t.iter_values(rids, ("path", "coll")))
                 if owner == coll or recursive and owner.startswith(below)]
        keyed.sort()
        return [rid for _path, rid in keyed]

    def objects_in_collection_page(self, coll: str,
                                   cursor: Optional[str] = None,
                                   limit: int = 100,
                                   recursive: bool = True
                                   ) -> Tuple[List[Dict[str, Any]],
                                              Optional[str]]:
        """One path-ordered page of a collection's contents.

        Keyset pagination over the sorted ``objects.path`` index: the
        subtree of ``coll`` is one lexicographic path range
        (:func:`subtree_path_range`), and a page seeks strictly past
        ``cursor`` (the last path the previous page delivered) — so each
        page is one charged catalog op touching O(page) rows, where the
        materializing :meth:`objects_in_collection` charges the whole
        subtree at once.

        With ``recursive=False`` only direct children are delivered;
        rows of nested sub-collections inside the scanned range are
        examined (and charged) but skipped.  Returns ``(rows,
        next_cursor)``; ``next_cursor`` is ``None`` once the scan is
        exhausted, else feed it back for the next page.
        """
        with self._charge:
            rids, next_cursor = self._page(paths.normalize(coll), cursor,
                                           limit, recursive)
            return self._objects.row_dicts(rids), next_cursor

    def _page(self, coll: str, cursor: Optional[str], limit: int,
              recursive: bool) -> Tuple[List[int], Optional[str]]:
        """:meth:`objects_in_collection_page` as row ids: the one walk of
        the path index, which the query planner pages through too.  Of a
        row it reads at most ``coll`` (to skip nested ones when not
        ``recursive``) and the cursor's ``path``.  The caller charges."""
        t = self._objects
        lo, hi = subtree_path_range(coll, cursor)
        page_limit = max(1, int(limit))
        out: List[int] = []
        while True:
            # one-row lookahead so an exact-fit page ends the cursor
            # instead of dangling an empty trailing page
            rids = t.lookup_range("path", lo, hi, lo_incl=False,
                                  hi_incl=False, limit=page_limit + 1)
            exhausted = len(rids) <= page_limit
            kept = rids if recursive else [
                rid for rid, (owner, _path) in
                zip(rids, t.iter_values(rids, ("coll", "path")))
                if owner == coll]
            need = page_limit - len(out)
            out += kept[:need]
            if len(kept) >= need:
                last = kept[need - 1]
                more = not exhausted or last != rids[-1]
                return out, t.value(last, "path") if more else None
            if exhausted:
                return out, None
            lo = t.value(rids[-1], "path")

    def links_to(self, target_path: str) -> List[Dict[str, Any]]:
        """Link objects whose target is ``target_path``."""
        with self._charge:
            return [row for row in self._objects.row_dicts(
                self._objects.lookup_eq("kind", "link"))
                if row["target"] == target_path]

    def delete_object(self, oid: int) -> None:
        """Delete the object row and cascade all dependent rows."""
        with self._charge:
            t = self._objects
            rids = t.lookup_eq("oid", oid)
            if not rids:
                raise NoSuchObject(f"no object id {oid}")
            for tab in self._oid_keyed:
                for rid in list(tab.lookup_eq("oid", oid)):
                    tab.delete_row(rid)
            self._purge_metadata("object", oid)
            t.delete_row(rids[0])

    def _purge_metadata(self, target_kind: str, target_id: int) -> None:
        for tab in self._target_keyed:
            for rid in list(tab.lookup_eq("target_id", target_id)):
                if tab.value(rid, "target_kind") == target_kind:
                    tab.delete_row(rid)

    def count_objects(self) -> int:
        with self._charge:
            return len(self._objects)

    def total_objects(self) -> int:
        """Uncharged object count, for stats displays (no clock cost)."""
        return len(self._objects)

    def total_replicas(self) -> int:
        """Uncharged replica count, for stats displays (no clock cost)."""
        return len(self._replicas)

    def oid_table(self, name: str, oid: int):
        """The table holding rows keyed to object ``oid``.

        Every table of this partition lives here, so ``oid`` is unused;
        the catalog (:mod:`repro.mcat.shard`) resolves the owning shard.
        Lock/pin/version policy in :mod:`repro.core` reaches its rows
        through this accessor so they land next to their object.
        """
        return self.db.table(name)

    # ------------------------------------------------------------------
    # replicas
    # ------------------------------------------------------------------

    def add_replica(self, oid: int, resource: str, physical_path: str,
                    size: int, now: float,
                    container_oid: Optional[int] = None,
                    offset: Optional[int] = None) -> int:
        with self._charge:
            return self._add_replica_row(oid, resource, physical_path, size,
                                         now, container_oid=container_oid,
                                         offset=offset)

    def _add_replica_row(self, oid: int, resource: str, physical_path: str,
                         size: int, now: float,
                         container_oid: Optional[int] = None,
                         offset: Optional[int] = None) -> int:
        existing = self._replica_rows(oid)
        replica_num = 1 + max((r["replica_num"] for r in existing), default=0)
        self._replicas.insert({
            "rid": self.ids.next_int("rid"), "oid": oid,
            "replica_num": replica_num, "resource": resource,
            "physical_path": physical_path, "size": size,
            "created_at": now, "is_dirty": False,
            "container_oid": container_oid, "offset": offset,
        })
        return replica_num

    def add_replicas(self, specs: Sequence[Dict[str, Any]],
                     now: float) -> List[int]:
        """Bulk :meth:`add_replica`: N rows under one charged block.

        Each spec is the keyword dict of one ``add_replica`` call (minus
        ``now``).  Strict — callers pass already-validated writes, so any
        failure raises.  Numbering is per-object max+1 exactly as in the
        single-row path (a spec list may repeat an oid)."""
        with self._charge:
            return [self._add_replica_row(now=now, **spec) for spec in specs]

    def _replica_rows(self, oid: int) -> List[Dict[str, Any]]:
        t = self._replicas
        rows = [t.row_dict(r) for r in t.lookup_eq("oid", oid)]
        return sorted(rows, key=REPLICA_ORDER)

    def replicas(self, oid: int) -> List[Dict[str, Any]]:
        with self._charge:
            return self._replica_rows(oid)

    def get_replica(self, oid: int, replica_num: int) -> Dict[str, Any]:
        with self._charge:
            for row in self._replica_rows(oid):
                if row["replica_num"] == replica_num:
                    return row
            raise NoSuchReplica(f"object {oid} has no replica {replica_num}")

    def remove_replica(self, oid: int, replica_num: int) -> None:
        with self._charge:
            t = self._replicas
            for rid in list(t.lookup_eq("oid", oid)):
                if t.value(rid, "replica_num") == replica_num:
                    t.delete_row(rid)
                    return
            raise NoSuchReplica(f"object {oid} has no replica {replica_num}")

    def update_replica(self, oid: int, replica_num: int, **changes: Any) -> None:
        with self._charge:
            t = self._replicas
            for rid in t.lookup_eq("oid", oid):
                if t.value(rid, "replica_num") == replica_num:
                    t.update_row(rid, changes)
                    return
            raise NoSuchReplica(f"object {oid} has no replica {replica_num}")

    def mark_siblings_dirty(self, oid: int, fresh_replica_num: int) -> None:
        """After a write lands on one replica, others are out of sync."""
        with self._charge:
            t = self._replicas
            for rid in t.lookup_eq("oid", oid):
                is_fresh = t.value(rid, "replica_num") == fresh_replica_num
                t.update_row(rid, {"is_dirty": not is_fresh})

    def replicas_on_resource(self, resource: str) -> List[Dict[str, Any]]:
        with self._charge:
            t = self._replicas
            return t.row_dicts(t.lookup_eq("resource", resource))

    def container_members(self, container_oid: int) -> List[Dict[str, Any]]:
        """Replica rows whose bytes live inside ``container_oid``."""
        with self._charge:
            t = self._replicas
            return sorted(t.row_dicts(t.lookup_eq("container_oid",
                                                  container_oid)),
                          key=lambda r: (r["offset"] or 0))

    # ------------------------------------------------------------------
    # metadata (five classes; system metadata lives on the object row)
    # ------------------------------------------------------------------

    def _check_metadata_spec(self, target_kind: str, attr: str,
                             value: Optional[str], meta_class: str,
                             schema_name: Optional[str]) -> None:
        if target_kind not in ("object", "collection"):
            raise MetadataError(f"bad metadata target kind {target_kind!r}")
        if meta_class not in ("user", "type", "file-based"):
            raise MetadataError(f"bad metadata class {meta_class!r}")
        if not attr:
            raise MetadataError("metadata attribute name may not be empty")
        if type(attr) is not str or (type(value) is not str
                                     and value is not None):
            _refuse_non_text(attr, value)
        if meta_class == "type":
            schema = self.schemas.get(schema_name or "")
            element = schema.element(attr)
            if value is not None:
                element.check(value)

    def _insert_metadata_row(self, target_kind: str, target_id: int,
                             attr: str, value: Optional[str], by: str,
                             now: float, units: Optional[str],
                             meta_class: str,
                             schema_name: Optional[str]) -> int:
        mid = self.ids.next_int("mid")
        self._metadata.insert({
            "mid": mid, "target_kind": target_kind, "target_id": target_id,
            "meta_class": meta_class, "schema_name": schema_name,
            "attr": attr, "value": value, "value_num": _num(value),
            "units": units, "created_by": by, "created_at": now,
        })
        return mid

    def add_metadata(self, target_kind: str, target_id: int, attr: str,
                     value: Optional[str], by: str, now: float,
                     units: Optional[str] = None,
                     meta_class: str = "user",
                     schema_name: Optional[str] = None) -> int:
        with self._charge:
            self._check_metadata_spec(target_kind, attr, value, meta_class,
                                      schema_name)
            return self._insert_metadata_row(target_kind, target_id, attr,
                                             value, by, now, units,
                                             meta_class, schema_name)

    def add_metadata_bulk(self, specs: Sequence[Dict[str, Any]], by: str,
                          now: float) -> List[int]:
        """Bulk :meth:`add_metadata`: N triples under one charged block.

        Each spec holds ``target_kind``, ``target_id``, ``attr``,
        ``value`` and optionally ``units``/``meta_class``/``schema_name``.
        All specs are validated before any row is inserted, so a bad spec
        raises without leaving a partial batch behind.
        """
        with self._charge:
            full = []
            for spec in specs:
                full.append({
                    "target_kind": spec["target_kind"],
                    "target_id": spec["target_id"],
                    "attr": spec["attr"], "value": spec["value"],
                    "units": spec.get("units"),
                    "meta_class": spec.get("meta_class", "user"),
                    "schema_name": spec.get("schema_name"),
                })
            for spec in full:
                self._check_metadata_spec(spec["target_kind"], spec["attr"],
                                          spec["value"], spec["meta_class"],
                                          spec["schema_name"])
            return [self._insert_metadata_row(by=by, now=now, **spec)
                    for spec in full]

    def _target_rows(self, t: Table, order_by: str, target_kind: str,
                     target_id: int) -> List[Dict[str, Any]]:
        """Rows of a ``(target_kind, target_id)``-keyed table attached to
        one target, in minting order."""
        return sorted([row for row in t.row_dicts(
            t.lookup_eq("target_id", target_id))
            if row["target_kind"] == target_kind], key=itemgetter(order_by))

    def _metadata_rows(self, target_kind: str, target_id: int,
                       meta_class: Optional[str]) -> List[Dict[str, Any]]:
        rows = self._target_rows(self._metadata, "mid", target_kind,
                                 target_id)
        if meta_class is not None:
            rows = [r for r in rows if r["meta_class"] == meta_class]
        return rows

    def get_metadata(self, target_kind: str, target_id: int,
                     meta_class: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._charge:
            return self._metadata_rows(target_kind, target_id, meta_class)

    def get_metadata_bulk(self, targets: Sequence[Any],
                          meta_class: Optional[str] = None
                          ) -> List[List[Dict[str, Any]]]:
        """Metadata of N ``(target_kind, target_id)`` pairs under one
        charged block — the read half of the bulk protocol."""
        with self._charge:
            return [self._metadata_rows(kind, tid, meta_class)
                    for kind, tid in targets]

    def _object_metadata(self, oids: Sequence[int], attrs
                         ) -> List[Tuple[int, str, Any, Any]]:
        """What a query looks at of N objects' metadata, under one charged
        block: ``(oid, attr, value, value_num)`` of each triple whose
        attribute is in ``attrs``, in minting order."""
        with self._charge:
            t = self._metadata
            got = [(mid, tid, attr, value, num)
                   for mid, kind, tid, attr, value, num in t.iter_values(
                       t.lookup_eq_many("target_id", oids),
                       ("mid", "target_kind", "target_id", "attr", "value",
                        "value_num"))
                   if kind == "object" and attr in attrs]
            got.sort()
            return [triple[1:] for triple in got]

    def update_metadata(self, mid: int, value: Optional[str],
                        units: Optional[str] = None) -> None:
        with self._charge:
            t = self._metadata
            rids = t.lookup_eq("mid", mid)
            if not rids:
                raise MetadataError(f"no metadata row {mid}")
            t.update_row(rids[0], {"value": value, "value_num": _num(value),
                                   "units": units})

    def delete_metadata(self, mid: int) -> None:
        with self._charge:
            t = self._metadata
            rids = t.lookup_eq("mid", mid)
            if not rids:
                raise MetadataError(f"no metadata row {mid}")
            t.delete_row(rids[0])

    def copy_metadata(self, src_kind: str, src_id: int,
                      dst_kind: str, dst_id: int, by: str, now: float) -> int:
        """The paper's third ingestion method: copy metadata across objects."""
        copied = 0
        for row in self.get_metadata(src_kind, src_id):
            self.add_metadata(dst_kind, dst_id, row["attr"], row["value"],
                              by=by, now=now, units=row["units"],
                              meta_class=row["meta_class"],
                              schema_name=row["schema_name"])
            copied += 1
        return copied

    # ------------------------------------------------------------------
    # structural metadata (collection-level requirements)
    # ------------------------------------------------------------------

    def define_structural(self, coll_path: str, attr: str,
                          default_value: Optional[str] = None,
                          vocabulary: Optional[Sequence[str]] = None,
                          mandatory: bool = False,
                          comment: Optional[str] = None) -> int:
        if not attr:      # it would refuse every later ingest into coll_path
            raise MetadataError("metadata attribute name may not be empty")
        with self._charge:
            coll_path = paths.normalize(coll_path)
            if not self._collection_rid(coll_path):
                raise NoSuchCollection(f"no collection {coll_path!r}")
            smid = self.ids.next_int("smid")
            self._structural.insert({
                "smid": smid, "coll_path": coll_path, "attr": attr,
                "default_value": default_value,
                "vocabulary": "|".join(vocabulary) if vocabulary else None,
                "mandatory": mandatory, "comment": comment,
            })
            return smid

    def structural_for(self, coll_path: str,
                       inherited: bool = True) -> List[Dict[str, Any]]:
        """Structural requirements applying at ``coll_path``.

        With ``inherited``, requirements defined on ancestor collections
        apply too (the curator scenario: "MetaCore for Cultures" defined on
        the parent governs the new "Avian Culture" sub-collection).
        """
        with self._charge:
            coll_path = paths.normalize(coll_path)
            scopes = [coll_path]
            if inherited:
                scopes = paths.ancestors(coll_path) + scopes
            t = self._structural
            rows = []
            for scope in scopes:
                for rid in t.lookup_eq("coll_path", scope):
                    rows.append(t.row_dict(rid))
            return rows

    def validate_ingest_metadata(self, coll_path: str,
                                 provided: Dict[str, str]) -> Dict[str, str]:
        """Apply defaults and enforce mandatory/vocabulary rules.

        Returns the effective attribute dict an ingest should attach.
        """
        return apply_structural(self.structural_for(coll_path), provided,
                                coll_path)

    # ------------------------------------------------------------------
    # annotations
    # ------------------------------------------------------------------

    ANNOTATION_TYPES = ("comment", "rating", "errata", "dialogue",
                        "annotation", "memo", "query", "answer")

    def add_annotation(self, target_kind: str, target_id: int, ann_type: str,
                       author: str, text: str, now: float,
                       location: Optional[str] = None) -> int:
        with self._charge:
            if ann_type not in self.ANNOTATION_TYPES:
                raise MetadataError(f"unknown annotation type {ann_type!r}")
            aid = self.ids.next_int("aid")
            self._annotations.insert({
                "aid": aid, "target_kind": target_kind, "target_id": target_id,
                "ann_type": ann_type, "location": location, "author": author,
                "created_at": now, "text": text,
            })
            return aid

    def annotations_for(self, target_kind: str,
                        target_id: int) -> List[Dict[str, Any]]:
        with self._charge:
            return self._target_rows(self._annotations, "aid", target_kind,
                                     target_id)

    def annotations_for_bulk(self, targets: Sequence[Any]
                             ) -> List[List[Dict[str, Any]]]:
        """:meth:`annotations_for` of N ``(target_kind, target_id)`` pairs
        under one charged block."""
        with self._charge:
            return [self._target_rows(self._annotations, "aid", kind, tid)
                    for kind, tid in targets]

    def delete_annotation(self, aid: int) -> None:
        with self._charge:
            t = self._annotations
            rids = t.lookup_eq("aid", aid)
            if not rids:
                raise MetadataError(f"no annotation {aid}")
            t.delete_row(rids[0])

    # ------------------------------------------------------------------
    # ACL rows (policy in repro.core.access)
    # ------------------------------------------------------------------

    def grant(self, target_kind: str, target_id: int, principal: str,
              permission: str) -> None:
        with self._charge:
            if permission not in PERMISSIONS:
                raise MetadataError(f"unknown permission {permission!r}")
            t = self._acls
            # replace any existing grant for the same principal+target
            for rid in list(t.lookup_eq("target_id", target_id)):
                row = t.row_dict(rid)
                if row["target_kind"] == target_kind and \
                        row["principal"] == principal:
                    t.delete_row(rid)
            t.insert({"aclid": self.ids.next_int("aclid"),
                      "target_kind": target_kind, "target_id": target_id,
                      "principal": principal, "permission": permission})

    def revoke(self, target_kind: str, target_id: int, principal: str) -> None:
        with self._charge:
            t = self._acls
            for rid in list(t.lookup_eq("target_id", target_id)):
                row = t.row_dict(rid)
                if row["target_kind"] == target_kind and \
                        row["principal"] == principal:
                    t.delete_row(rid)

    def grants_for(self, target_kind: str, target_id: int) -> List[Dict[str, Any]]:
        with self._charge:
            return self._target_rows(self._acls, "aclid", target_kind,
                                     target_id)

    def grants_for_bulk(self, targets: Sequence[Any]
                        ) -> List[List[Dict[str, Any]]]:
        """:meth:`grants_for` of N ``(target_kind, target_id)`` pairs under
        one charged block — a listing's or a query result's ACL rows."""
        with self._charge:
            return [self._target_rows(self._acls, "aclid", kind, tid)
                    for kind, tid in targets]

    # ------------------------------------------------------------------
    # audit
    # ------------------------------------------------------------------

    def record_audit(self, now: float, principal: str, action: str,
                     target: str, detail: Optional[str] = None,
                     ok: bool = True) -> int:
        with self._charge:
            auid = self.ids.next_int("auid")
            self._audit.insert({
                "auid": auid, "at": now, "principal": principal,
                "action": action, "target": target, "detail": detail, "ok": ok,
            })
            return auid

    def audit_query(self, principal: Optional[str] = None,
                    action: Optional[str] = None,
                    target: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._charge:
            t = self._audit
            if principal is not None:
                rids = t.lookup_eq("principal", principal)
            elif action is not None:
                rids = t.lookup_eq("action", action)
            else:
                rids = list(t.scan())
            rows = [row for row in t.row_dicts(rids)
                    if (action is None or row["action"] == action)
                    and (principal is None or row["principal"] == principal)
                    and (target is None or row["target"] == target)]
            return sorted(rows, key=itemgetter("auid"))

    # ------------------------------------------------------------------
    # attribute queries: repro.mcat.query's planner, as methods
    # ------------------------------------------------------------------

    search = query.run_search
    search_page = query.run_search_page
    queryable_attributes = query.run_queryable_attributes
