"""``DataService.ingest`` and ``bulk_ingest`` as they stood before both
became one body (``DataService._ingest``) — the oracle
``tests/core/test_ingest_oracle.py`` compares that body with.

The two handlers are kept verbatim, but for what the write loop has
since become: a container append is ``DataService._append`` and the row
it leaves, and a push is ``PlaneService._reach`` with a payload (which
refuses a member whose host is down itself).

:func:`oracle_servers` makes the servers a federation adds meanwhile
serve these handlers.  They asked the catalog ``collection_exists``,
which it no longer has; :func:`collection_exists` is that op, moved
here with its charge.
"""

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

from repro.core import server as server_module
from repro.core.dispatch import OpContext, rpc_op
from repro.core.planes.base import content_checksum
from repro.core.planes.data import DataService
from repro.errors import NoSuchCollection, NoSuchResource, SrbError
from repro.storage.resource import PhysicalResource
from repro.util import paths


def collection_exists(mcat, path: str) -> bool:
    """The catalog's ``collection_exists`` as it stood: one charged op on
    the partition a read of ``path`` is routed to."""
    routed = len(mcat.shards) > 1 or mcat.shards[0].replicas
    cat = mcat._read(mcat.shard_of_path(path)) if routed \
        else mcat.shards[0].primary
    with cat._charge:
        return bool(cat._collection_rid(paths.normalize(path)))


class OracleDataService(DataService):
    """The data plane with the two ingest handlers it replaced."""

    @rpc_op("ingest", scope_arg="path", write=True, audit="ingest",
            span_args=("path",), payload_arg="data")
    def ingest(self, ctx: OpContext, path: str, data: bytes,
               resource: Optional[str] = None,
               container: Optional[str] = None,
               data_type: Optional[str] = None,
               metadata: Optional[Dict[str, str]] = None) -> int:
        """Ingest a new file into SRB.

        ``resource`` may be physical or logical (logical fans out to every
        member synchronously and the copies appear as replicas).  "A
        container specification on ingestion overrides a resource
        specification."  Structural metadata requirements of the target
        collection are validated; the effective attributes are attached.
        """
        principal = ctx.principal
        path = paths.normalize(path)
        coll = paths.dirname(path)
        if not collection_exists(self.mcat, coll):
            raise NoSuchCollection(f"no collection {coll!r}")
        self.access.require_collection(principal, coll, "write")
        effective_md = self.mcat.validate_ingest_metadata(coll,
                                                          metadata or {})

        oid = self.mcat.create_object(
            path, kind="data", owner=str(principal), now=self.now,
            data_type=data_type, size=len(data),
            checksum=content_checksum(data))

        try:
            if container is not None:
                cont = self.containers.get_container(container)
                self.access.require_object(principal, cont, "write")
                res, primary, offset = self._append(
                    int(cont["oid"]), data, ctx.payload_host,
                    "container-append")
                self.mcat.add_replica(
                    oid, res.name, primary["physical_path"], len(data),
                    now=self.now, container_oid=int(cont["oid"]),
                    offset=offset)
            else:
                resource = resource or self.federation.default_resource
                if resource is None:
                    raise NoSuchResource(
                        "no resource given and no default")
                res_list = self.federation.placement.order_resources(
                    self.resources.resolve(resource), from_host=self.host,
                    size_hint=len(data))
                phys = f"/srb/{coll.strip('/').replace('/', '_')}/" \
                       f"{oid}-{paths.basename(path)}"
                self._store_replicas(ctx.payload_host, res_list, oid, phys,
                                     data, "ingest-fanout")
        except SrbError:
            # no half-ingested objects: the write loop left no file
            self.mcat.delete_object(oid)
            raise

        if effective_md:
            self.mcat.add_metadata_bulk(
                [{"target_kind": "object", "target_id": oid,
                  "attr": attr, "value": value}
                 for attr, value in effective_md.items()],
                by=str(principal), now=self.now)
        ctx.audit(target=path, detail=f"{len(data)}B")
        if ctx.span is not None:
            ctx.span.incr("payload_bytes", len(data))
        return oid

    @rpc_op("bulk_ingest", audit="bulk-ingest", span_items="items",
            payload_items="items")
    def bulk_ingest(self, ctx: OpContext,
                    items: Sequence[Dict[str, Any]],
                    resource: Optional[str] = None,
                    container: Optional[str] = None) -> List[Dict[str, Any]]:
        """Ingest N files in one brokered operation — one round trip
        (Sbload's data plane).

        ``items`` is a sequence of dicts with ``path`` and ``data`` plus
        optional ``data_type``/``metadata``.  The batch pays one MCAT
        hop, one storage session + one pipelined push per resource, and
        one bulk catalog write each for object rows, replica rows and
        metadata triples — instead of per-file round trips and per-row
        ``QUERY_OVERHEAD_S``.  Returns a list aligned with ``items``:
        ``{"path", "oid"}`` on success or ``{"path", "error",
        "error_type"}`` for items that failed.

        A bad *item* fails alone: one the namespace, the ACLs or the
        catalog reject never touches storage, and one a storage system
        refuses is removed from the members already written.  A bad
        *target* (unknown resource/container, a member down or
        unreachable, no write access on the container) fails the whole
        batch before any catalog write, with nothing to undo, since no
        item could succeed.
        """
        from repro.mcat.catalog import apply_structural
        principal = ctx.principal
        self.obs.metrics.inc("bulk.batches", op="ingest")
        self.obs.metrics.inc("bulk.items", len(items), op="ingest")
        results: List[Optional[Dict[str, Any]]] = [None] * len(items)

        def fail(i: int, path: str, exc: SrbError) -> None:
            results[i] = {"path": path, "error": str(exc),
                          "error_type": type(exc).__name__}

        # phase 1: namespace + access + structural metadata, charged
        # once per distinct collection instead of once per file
        coll_state: Dict[str, Any] = {}
        prepared: List[List[Any]] = []
        for i, item in enumerate(items):
            raw_path = str(item.get("path", ""))
            try:
                path = paths.normalize(raw_path)
                ctx.require_local(path)
                data = item["data"]
                coll = paths.dirname(path)
                if coll not in coll_state:
                    try:
                        if not collection_exists(self.mcat, coll):
                            raise NoSuchCollection(
                                f"no collection {coll!r}")
                        self.access.require_collection(principal, coll,
                                                       "write")
                        coll_state[coll] = self.mcat.structural_for(coll)
                    except SrbError as exc:
                        coll_state[coll] = exc
                state = coll_state[coll]
                if isinstance(state, SrbError):
                    raise state
                effective_md = apply_structural(
                    state, item.get("metadata") or {}, coll)
                prepared.append(
                    [i, path, data, item.get("data_type"), effective_md])
            except SrbError as exc:
                fail(i, raw_path, exc)

        # the target is resolved — and, for a resource, the batch's
        # bytes pushed to every member — before any catalog write, so an
        # unusable target fails the batch with nothing to undo
        res_list: List[PhysicalResource] = []
        cont_path: Optional[str] = None
        if container is not None:
            cont_path = paths.normalize(container)
            cont = self.containers.get_container(cont_path)
            self.access.require_object(principal, cont, "write")
        else:
            resource = resource or self.federation.default_resource
            if resource is None:
                raise NoSuchResource("no resource given and no default")
            res_list = self.federation.placement.order_resources(
                self.resources.resolve(resource), from_host=self.host)
            if prepared:
                self._reach([(res, "") for res in res_list], "bulk-ingest",
                            src_host=ctx.payload_host,
                            nbytes=sum(len(p[2]) for p in prepared))

        # phase 2: one bulk catalog write registers every object row
        specs = [{"path": p, "kind": "data", "data_type": dt,
                  "size": len(d), "checksum": content_checksum(d)}
                 for (_i, p, d, dt, _md) in prepared]
        oids = self.mcat.create_objects(specs, owner=str(principal),
                                        now=self.now)
        alive: List[List[Any]] = []
        for (i, path, data, _dt, md), oid in zip(prepared, oids):
            if isinstance(oid, SrbError):
                fail(i, path, oid)
            else:
                alive.append([i, path, data, md, oid])

        # phase 3: the bytes land
        if container is not None:
            survivors = []
            for entry in alive:
                i, path, data, _md, oid = entry
                try:
                    cont = self.containers.get_container(cont_path)
                    res, primary, offset = self._append(
                        int(cont["oid"]), data, ctx.payload_host,
                        "container-append")
                    self.mcat.add_replica(
                        oid, res.name, primary["physical_path"], len(data),
                        now=self.now, container_oid=int(cont["oid"]),
                        offset=offset)
                except SrbError as exc:
                    self.mcat.delete_object(oid)
                    fail(i, path, exc)
                    continue
                survivors.append(entry)
            alive = survivors
        else:
            files = []
            for _i, path, data, _md, oid in alive:
                coll = paths.dirname(path)
                files.append((f"/srb/{coll.strip('/').replace('/', '_')}/"
                              f"{oid}-{paths.basename(path)}", data))

            def refuse(k: int, exc: SrbError) -> None:
                i, path, _data, _md, oid = alive[k]
                self.mcat.delete_object(oid)
                fail(i, path, exc)

            refused = self._land(res_list, files, on_refused=refuse)
            replica_specs = [
                {"oid": alive[k][4], "resource": res.name,
                 "physical_path": phys, "size": len(data)}
                for k, (phys, data) in enumerate(files) if k not in refused
                for res in res_list]
            if replica_specs:
                self.mcat.add_replicas(replica_specs, now=self.now)
            alive = [e for k, e in enumerate(alive) if k not in refused]
        total_bytes = sum(len(e[2]) for e in alive)

        # phase 4: one bulk catalog write attaches every triple
        md_specs = [{"target_kind": "object", "target_id": oid,
                     "attr": attr, "value": value}
                    for (_i, _p, _d, md, oid) in alive
                    for attr, value in md.items()]
        if md_specs:
            self.mcat.add_metadata_bulk(md_specs, by=str(principal),
                                        now=self.now)

        for i, path, _data, _md, oid in alive:
            results[i] = {"path": path, "oid": oid}
        ctx.audit(target=f"{len(items)} items", detail=f"{total_bytes}B")
        if ctx.span is not None:
            ctx.span.incr("payload_bytes", total_bytes)
        return results

@contextmanager
def oracle_servers():
    """Servers added inside this block serve the oracle's handlers."""
    server_module.DataService = OracleDataService
    try:
        yield
    finally:
        server_module.DataService = DataService
