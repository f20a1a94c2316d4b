"""Data plane: byte movement between clients, servers and resources.

Ingest/retrieve/overwrite/delete, the amortized bulk ops, the five
registered-object kinds, copies, containers, the lock/pin/version
surface, and MySRB's object view (``open_object``) — everything whose
job is getting bytes on or off storage resources.

``ingest`` and ``bulk_ingest`` are one body, :meth:`DataService._ingest`:
each item's checks, then the target, then the object rows, then the
bytes of the rows written, then their replica and metadata rows — so an
unusable target writes no row and a taken path moves no byte.

Two routing modes exist.  **Pass-through** (the default, SRB 1.x
style): the server stands in the data path — bytes flow ``resource host
-> server host`` inside the server and onward in the RPC response (and
the mirror image for a write), so every byte against a non-colocated
resource crosses the simulated WAN twice.  That stays true of *bytes*,
not of *seconds*: the server is a cut-through relay, sending a payload
on one 64 KiB block at a time as it arrives, so the second hop hides
behind the first all but one block
(:func:`~repro.core.planes.base.relay_hidden`).  Handlers say nothing
about it: the op plan of an op declaring a payload slot sets the leg
runner's ``inbound`` to the remote caller whose request the payload
rode, and handlers pass only ``ctx.payload_host``; a read's reply
relays what ``_deliver`` pulled here for it.  A failed leg, an error
reply, a caller on the server's own host and bytes that were at rest
(``replicate``, ``copy``, ``synchronize``, ``physical_move``,
``sync_container``) hide nothing; a cross-zone forward still stores and
forwards, and storage time is not overlapped with the wire.  **Direct
data channels**
(``Federation(direct_io=True)``): the server stays the *broker* of
storage access — it resolves the catalog, checks ACLs, opens the
control session to the resource — but replies with a signed one-shot
channel descriptor instead of the payload, and the bytes are charged
once on the actual source→sink path (resource→client for reads,
client→resource for writes, resource→resource for copies): nothing
passes through the server, so there is no relay to price.  Handlers do
not choose between them: they say what must move and hand it to the
write loop (``_store``) or the read delivery (``_deliver``) of
:class:`~repro.core.planes.base.PlaneService`, and the federation's leg
runner picks the route (lint rule 6)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.auth.users import Principal
from repro.core.dispatch import OpContext, rpc_op
from repro.core.planes.base import PlaneService, _CONTROL_MSG, \
    content_checksum, link_view
from repro.mcat.catalog import apply_structural
from repro.net.rpc import BatchItemResult
from repro.net.simnet import TransferOutcome, raise_failed
from repro.net.wire import Redirect
from repro.errors import (
    ContainerError,
    HostUnreachable,
    NoSuchObject,
    NoSuchPhysicalFile,
    NoSuchReplica,
    NoSuchResource,
    PinnedFile,
    ReplicaUnavailable,
    ResourceUnavailable,
    RpcError,
    SrbError,
    UnsupportedOperation,
)
from repro.storage.archive import ArchiveDriver
from repro.storage.resource import PhysicalResource
from repro.storage.web import WebSpace
from repro.tlang.template import StyleSheet, builtin
from repro.util import paths


#: The most of an object's contents MySRB's object view shows inline;
#: ``open_object`` ships one byte more, so the page can tell "larger".
INLINE_LIMIT = 64 * 1024


def embeds(row: Dict[str, Any]) -> bool:
    """Does a metadata row embed the SRB object its value names — a
    ``file-based`` metadata file, an object designated ``inline``?"""
    value = row.get("value")
    return isinstance(value, str) and value.startswith("/") and (
        row.get("meta_class") == "file-based" or row.get("units") == "inline")


def _open_reply(reply: Dict[str, Any]) -> Any:
    """``open_object``'s reply: the contents cut to :data:`INLINE_LIMIT`
    plus one byte and, when outcomes' bytes ride direct channels, a
    redirect whose caller settles each outcome's channels on its own."""
    contents = reply["contents"]
    if contents is not None and contents.ok:
        reply["length"] = len(contents.value)
        if type(contents.value) is not Redirect:
            contents.value = contents.value[:INLINE_LIMIT + 1]
    owed = [item for item in (*reply["embedded"].values(), contents)
            if item is not None and type(item.value) is Redirect]
    return Redirect(reply, [], label="open", items=owed) if owed else reply


class DataService(PlaneService):
    """Ingest, retrieval, overwrite, bulk ops, containers, locks."""

    plane = "data"

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

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

        This is :meth:`bulk_ingest`'s body (:meth:`_ingest`) run on one
        item, whose error is raised: an unusable target fails before
        the object row is written, and a taken path before a byte
        moves.
        """
        ((path, oid),) = self._ingest(
            ctx, ({"path": path, "data": data, "data_type": data_type,
                   "metadata": metadata},), resource, container,
            "ingest-fanout")
        if type(oid) is not int:
            raise oid
        ctx.audit(target=path, detail=f"{len(data)}B")
        if ctx.span is not None:
            ctx.span.incr("payload_bytes", len(data))
        return oid

    def _ingest(self, ctx: OpContext, items: Sequence[Dict[str, Any]],
                resource: Optional[str], container: Optional[str],
                label: str) -> List[Tuple[str, Union[int, SrbError]]]:
        """The one ingest: register ``items`` (dicts with ``path`` and
        ``data``, optionally ``data_type`` and ``metadata``) and land
        their bytes on ``container`` or ``resource`` (the default when
        neither is given).  Returns, aligned with ``items``, the path
        and either the new oid or the :class:`SrbError` that item failed
        with; an unusable target or a failed push raises for them all.

        1. Each item's zone, collection write access and structural
           metadata; the catalog is asked once per collection.  When no
           item is left, nothing more happens.
        2. The target, before any catalog write: the container and
           write access on it, or the resource's members, ranked for
           the bytes that will move and every one up.
        3. One grouped write of the object rows: a taken path fails
           its item here, before its bytes move.
        4. The bytes of the rows written: appended to the container, or
           pushed once to every member (``label`` names the legs) and
           landed there; a push that fails deletes the rows and raises.
           An item a storage system refuses loses its row.
        5. One grouped write of the replica rows, and one of the
           metadata triples.
        """
        principal = ctx.principal
        results: List[Any] = [None] * len(items)
        structural: Dict[str, Any] = {}     # collection -> rules or error
        prepared: List[Tuple[Any, ...]] = []
        nbytes = 0
        for i, item in enumerate(items):
            raw_path = str(item.get("path", ""))
            try:
                path = paths.normalize(raw_path)
                ctx.require_local(path)
                data = item["data"]
                coll = paths.dirname(path)
                if coll not in structural:
                    try:
                        self.access.require_collection(principal, coll,
                                                       "write")
                        structural[coll] = self.mcat.structural_for(coll)
                    except SrbError as exc:
                        structural[coll] = exc
                rules = structural[coll]
                if type(rules) is not list:
                    raise rules
                md = apply_structural(rules, item.get("metadata") or {},
                                      coll)
            except SrbError as exc:
                results[i] = (raw_path, exc)
                continue
            size = len(data)
            prepared.append((i, path, coll, data, md, size,
                             item.get("data_type")))
            nbytes += size
        if not prepared:
            return results

        if container is not None:
            cont_path = paths.normalize(container)
            cont = self.containers.get_container(cont_path)
            self.access.require_object(principal, cont, "write")
        else:
            resource = resource or self.federation.default_resource
            if resource is None:
                raise NoSuchResource("no resource given and no default")
            res_list = self.federation.placement.order_resources(
                self.resources.resolve(resource), from_host=self.host,
                size_hint=nbytes)
            self._require_up(res_list)

        oids = self.mcat.create_objects(
            [{"path": path, "kind": "data", "data_type": data_type,
              "size": size, "checksum": content_checksum(data)}
             for _i, path, _coll, data, _md, size, data_type in prepared],
            owner=str(principal), now=self.now)
        alive = []
        for (i, path, coll, data, md, size, _dt), oid in zip(prepared, oids):
            if type(oid) is int:
                alive.append((i, path, coll, data, md, oid))
            else:
                nbytes -= size
                results[i] = (path, oid)

        def fail(entry: Tuple[Any, ...], exc: SrbError) -> None:
            self.mcat.delete_object(entry[5])
            results[entry[0]] = (entry[1], exc)

        if container is not None:
            landed = []
            for n, entry in enumerate(alive):
                try:
                    if n:
                        cont = self.containers.get_container(cont_path)
                    self.containers.append_member(
                        cont, entry[5], entry[3], now=self.now,
                        server_host=ctx.payload_host)
                    landed.append(entry)
                except SrbError as exc:
                    fail(entry, exc)
            alive = landed
        elif alive:
            files = [(f"/srb/{coll.strip('/').replace('/', '_')}/"
                      f"{oid}-{paths.basename(path)}", data)
                     for _i, path, coll, data, _md, oid in alive]
            try:
                # a push of one file binds its channel tickets to it
                self._push(ctx.payload_host, res_list, nbytes,
                           files[0][0] if len(files) == 1 else "", label)
            except SrbError:
                for entry in alive:
                    self.mcat.delete_object(entry[5])
                raise
            refused = self._land(res_list, files,
                                 on_refused=lambda k, exc: fail(alive[k], exc))
            replica_specs = [
                {"oid": alive[k][5], "resource": res.name,
                 "physical_path": phys, "size": len(data)}
                for k, (phys, data) in enumerate(files) if k not in refused
                for res in res_list]
            if replica_specs:
                self.mcat.add_replicas(replica_specs, now=self.now)
            if refused:
                alive = [e for k, e in enumerate(alive) if k not in refused]

        md_specs = [{"target_kind": "object", "target_id": oid,
                     "attr": attr, "value": value}
                    for _i, _p, _c, _d, md, oid in alive
                    for attr, value in md.items()]
        if md_specs:
            self.mcat.add_metadata_bulk(md_specs, by=str(principal),
                                        now=self.now)
        for i, path, _coll, _data, _md, oid in alive:
            results[i] = (path, oid)
        return results

    # ------------------------------------------------------------------
    # bulk operations (the Sbload-style amortized data plane)
    # ------------------------------------------------------------------

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

        It runs :meth:`ingest`'s body (:meth:`_ingest`) on every item at
        once.  A bad *item* fails alone: one the namespace, the ACLs or
        the catalog reject never touches storage, and one a storage
        system refuses is removed from the members already written.  A
        bad *target* (unknown resource/container, a member down, no
        write access on the container) fails the whole batch before any
        catalog write, with nothing to undo, since no item could
        succeed — unless no item got that far.
        """
        self.obs.metrics.inc("bulk.batches", op="ingest")
        self.obs.metrics.inc("bulk.items", len(items), op="ingest")
        results: List[Dict[str, Any]] = []
        total_bytes = 0
        for item, (path, oid) in zip(items, self._ingest(
                ctx, items, resource, container, "bulk-ingest")):
            if type(oid) is not int:
                results.append({"path": path, "error": str(oid),
                                "error_type": type(oid).__name__})
            else:
                results.append({"path": path, "oid": oid})
                total_bytes += len(item["data"])
        ctx.audit(target=f"{len(items)} items", detail=f"{total_bytes}B")
        if ctx.span is not None:
            ctx.span.incr("payload_bytes", total_bytes)
        return results

    @rpc_op("bulk_get", audit="bulk-get", span_items="targets")
    def bulk_get(self, ctx: OpContext, targets: Sequence[str],
                 via_container: Optional[str] = None
                 ) -> List[Dict[str, Any]]:
        """Retrieve a working set of N objects in one brokered operation
        — one round trip.

        Returns a list aligned with ``targets``: ``{"path", "data"}`` or
        ``{"path", "error", "error_type"}`` per item.  With
        ``via_container``, the container's bytes are prefetched once
        (one storage session + one bulk pull) and members of that
        container are served as local slices — the aggregation win the
        paper claims for WAN working sets.  Each item is :meth:`get`'s
        read of one object (:meth:`_read_item`), so it answers what
        ``get`` answers for its path; only the pulls it owes are
        deferred and delivered together.
        """
        principal = ctx.principal
        self.obs.metrics.inc("bulk.batches", op="get")
        self.obs.metrics.inc("bulk.items", len(targets), op="get")
        prefetched: Optional[Dict[int, bytes]] = None
        if via_container is not None:
            cont = self.containers.get_container(
                paths.normalize(via_container))
            self.access.require_object(principal, cont, "read")
            prefetched = self._prefetch_container(cont)
        results: List[Dict[str, Any]] = []
        total = 0
        # the per-item wire pulls are deferred and delivered together:
        # pulls landing on distinct storage hosts overlap, so the batch
        # charges the slowest host's share instead of the serial sum.
        # Redirected (direct_io), a pull that fails at the caller fails
        # the call rather than its item — the caller retries.
        sink = self._redirect_sink()
        owed: List[Tuple[int, PhysicalResource]] = []
        for raw in targets:
            try:
                path = paths.normalize(str(raw))
                _obj, data, res = self._read_item(principal, path, sink,
                                                  prefetched=prefetched)
                if res is not None:
                    owed.append((len(results), res))
                total += len(data)
                results.append({"path": path, "data": data})
            except SrbError as exc:
                results.append({"path": str(raw), "error": str(exc),
                                "error_type": type(exc).__name__})

        def failed(k: int, outcome: TransferOutcome) -> None:
            nonlocal total
            idx = owed[k][0]
            total -= len(results[idx]["data"])
            results[idx] = {
                "path": results[idx]["path"], "error": str(outcome.error),
                "error_type": type(outcome.error).__name__}

        reply = self._deliver(
            results,
            [(res, len(results[idx]["data"]), results[idx]["path"])
             for idx, res in owed],
            sink, "bulk-get", on_failed=failed)
        ctx.audit(target=f"{len(targets)} items", detail=f"{total}B")
        if ctx.span is not None:
            ctx.span.incr("payload_bytes", total)
        return reply

    def _prefetch_container(self, cont: Dict[str, Any]) -> Dict[int, bytes]:
        """Fetch a container's bytes once, as a plain read of the
        container object (:meth:`_read_replica`) delivered here; map
        member oid -> its slice."""
        members = self.mcat.container_members(int(cont["oid"]))
        if not members:
            return {}
        try:
            blob, res = self._read_replica(cont, None, self.host)
        except ReplicaUnavailable:
            return {}        # fall back to per-item replica reads
        if res is not None:
            self._deliver(blob, [(res, len(blob), str(cont["path"]))],
                          self.host, "container-prefetch")
        return {int(m["oid"]): blob[m["offset"]:m["offset"] + m["size"]]
                for m in members}

    @rpc_op("bulk_query_metadata", audit="bulk-query-metadata",
            span_items="targets")
    def bulk_query_metadata(self, ctx: OpContext, targets: Sequence[str],
                            meta_class: Optional[str] = None
                            ) -> List[Dict[str, Any]]:
        """Metadata of N paths in one brokered operation — one round
        trip: per-item resolution and ACL checks, then a single bulk
        catalog read.  Returns a list aligned with ``targets``."""
        principal = ctx.principal
        self.obs.metrics.inc("bulk.batches", op="query_metadata")
        self.obs.metrics.inc("bulk.items", len(targets),
                             op="query_metadata")
        results: List[Dict[str, Any]] = []
        lookups: List[Tuple[int, List[Tuple[str, int]]]] = []
        for raw in targets:
            try:
                path = paths.normalize(str(raw))
                kind, tid, obj = self._target_for_metadata(path)
                self.access.require_entry(principal, obj, path, "read")
                reads = [(kind, tid)]
                if obj is not None and obj["kind"] == "link":
                    reads.append(("object",
                                  int(self._resolve_link(obj)["oid"])))
                lookups.append((len(results), reads))
                results.append({"path": path, "metadata": []})
            except SrbError as exc:
                results.append({"path": str(raw), "error": str(exc),
                                "error_type": type(exc).__name__})
        if lookups:
            rows = iter(self.mcat.get_metadata_bulk(
                [pair for _idx, reads in lookups for pair in reads],
                meta_class=meta_class))
            for idx, reads in lookups:
                md = next(rows)
                results[idx]["metadata"] = md if len(reads) == 1 \
                    else link_view(md, next(rows))
        ctx.audit(target=f"{len(targets)} items")
        return results

    # ------------------------------------------------------------------
    # registration (the five registered-object kinds)
    # ------------------------------------------------------------------

    @rpc_op("register_file", scope_arg="path", write=True, audit="register",
            detail="file", need="write", target="parent")
    def register_file(self, ctx: OpContext, path: str, resource: str,
                      physical_path: str,
                      data_type: Optional[str] = None,
                      metadata: Optional[Dict[str, str]] = None) -> int:
        """Register a file that lives outside SRB control (kind 1).

        "Since the file is not fully under SRB's control, the file size
        and other characteristics might change without SRB being aware."
        """
        principal = ctx.principal
        res = self.resources.physical(resource)
        effective_md = self.mcat.validate_ingest_metadata(
            paths.dirname(path), metadata or {})
        size = res.driver.size(physical_path) if res.driver.exists(
            physical_path) else None
        oid = self.mcat.create_object(
            path, kind="registered", owner=str(principal), now=self.now,
            data_type=data_type, size=size, resource_hint=resource,
            target=physical_path)
        self.mcat.add_replica(oid, resource, physical_path, size or 0,
                              now=self.now)
        for attr, value in effective_md.items():
            self.mcat.add_metadata("object", oid, attr, value,
                                   by=str(principal), now=self.now)
        return oid

    @rpc_op("register_directory", scope_arg="path", write=True,
            audit="register", detail="directory", need="write",
            target="parent")
    def register_directory(self, ctx: OpContext, path: str, resource: str,
                           physical_dir: str) -> int:
        """Register a 'shadow directory object' (kind 2): the cone of
        files under it is visible, read-only."""
        self.resources.physical(resource)   # must exist
        return self.mcat.create_object(
            path, kind="shadow-dir", owner=str(ctx.principal), now=self.now,
            resource_hint=resource, target=physical_dir)

    @rpc_op("register_sql", scope_arg="path", write=True, audit="register",
            detail="sql", need="write", target="parent")
    def register_sql(self, ctx: OpContext, path: str, resource: str,
                     sql: str, template: str = "HTMLREL",
                     partial: bool = False) -> int:
        """Register a SQL query object (kind 3).

        ``partial`` queries keep a trailing fragment open; the user
        supplies the remainder at retrieval.  Only SELECTs are accepted
        ("we recommend that one register only 'select' commands").
        """
        res = self.resources.physical(resource)
        if res.rtype != "database":
            raise UnsupportedOperation(
                f"resource {resource!r} is not a database")
        if not sql.lstrip().upper().startswith("SELECT"):
            raise UnsupportedOperation(
                "registered SQL must start with SELECT")
        if not partial:
            from repro.db.sql import is_select_only
            if not is_select_only(sql):
                raise UnsupportedOperation(
                    f"registered SQL does not parse as SELECT-only: {sql!r}")
        return self.mcat.create_object(
            path, kind="sql", owner=str(ctx.principal), now=self.now,
            data_type="sql query", resource_hint=resource,
            target=("PARTIAL:" if partial else "") + sql, template=template)

    @rpc_op("register_url", scope_arg="path", write=True, audit="register",
            detail="url", need="write", target="parent")
    def register_url(self, ctx: OpContext, path: str, url: str) -> int:
        """Register a URL object (kind 4): contents fetched at retrieval."""
        WebSpace._validate(url)
        return self.mcat.create_object(
            path, kind="url", owner=str(ctx.principal), now=self.now,
            data_type="url", target=url)

    @rpc_op("register_method", scope_arg="path", write=True,
            audit="register", detail="method", need="write",
            target="parent")
    def register_method(self, ctx: OpContext, path: str, server: str,
                        command: str, proxy_function: bool = False) -> int:
        """Register a method object / virtual data (kind 5).

        ``command`` must already exist in the named server's *bin*
        directory (placed there by an SRB administrator — "this is done as
        a security precaution"); ``proxy_function=True`` selects the
        compiled-in proxy-function flavour instead.
        """
        if proxy_function:
            if command not in self.federation.proxy_functions:
                raise UnsupportedOperation(
                    f"no compiled proxy function {command!r}")
        else:
            bin_dir = self.federation.proxy_bin.get(server, {})
            if command not in bin_dir:
                raise UnsupportedOperation(
                    f"command {command!r} is not in server {server!r}'s bin "
                    "directory (ask an SRB administrator)")
        spec = (f"{'function' if proxy_function else 'command'}:"
                f"{server}:{command}")
        return self.mcat.create_object(
            path, kind="method", owner=str(ctx.principal), now=self.now,
            data_type="method", target=spec)

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------

    @rpc_op("get", scope_arg="path", forwardable=True, audit="get",
            span_args=("path",))
    def get(self, ctx: OpContext, path: str,
            replica_num: Optional[int] = None,
            args: Optional[str] = None,
            sql_remainder: Optional[str] = None,
            stripes: Union[int, str, None] = None) -> bytes:
        """Retrieve an object's contents by logical path.

        Dispatches on object kind; links resolve to their target;
        failover walks the replica chain when a storage system is down.
        ``args`` feeds method objects (command-line parameters at
        invocation); ``sql_remainder`` completes a partial SQL object.
        ``stripes=k`` opts a large read into SRB parallel I/O: up to
        ``k`` disjoint chunks pulled concurrently from ``k`` clean
        replicas on distinct hosts (falls back to the ordinary chain
        walk when fewer than two are usable or ``replica_num`` pins
        the read).  ``stripes="auto"`` lets the placement engine pick
        ``k`` from measured path bandwidths
        (:meth:`repro.policy.engine.PlacementEngine.choose_stripes`).
        """
        path = paths.normalize(path)
        sink = self._redirect_sink()
        obj, data, res = self._read_item(ctx.principal, path, sink,
                                         replica_num, args, sql_remainder,
                                         stripes)
        if obj is None:
            ctx.audit(target=path, detail="shadow")
            return self._deliver(data, [(res, len(data), path)], self.host,
                                 "get-shadow")
        if res is not None:
            data = self._deliver(data, [(res, len(data), str(obj["path"]))],
                                 sink, "get")
        ctx.audit(target=path, detail=f"{len(data)}B")
        if ctx.span is not None:
            ctx.span.incr("payload_bytes", len(data))
        return data

    def _read_item(self, principal: Principal, path: str, sink: str,
                   replica_num: Optional[int] = None,
                   args: Optional[str] = None,
                   sql_remainder: Optional[str] = None,
                   stripes: Union[int, str, None] = None,
                   prefetched: Optional[Dict[int, bytes]] = None) -> Tuple:
        """The one read of one object, :meth:`get`'s and each
        :meth:`bulk_get` item's: resolve the normalized ``path`` (a file
        under a registered directory when it has no row), follow a
        link, check read access and the lock, and read by kind.

        Returns ``(row, data, resource)``: the row read (``None`` for a
        file under a registered directory), its bytes, and the resource
        whose pull to ``sink`` the caller still owes, or ``None``.  A
        member of the ``prefetched`` container is its slice; a striped
        read is delivered already."""
        obj = self.mcat.find_object(path)
        if obj is None:
            shadow = self._find_shadow(path)
            if shadow is None:
                raise NoSuchObject(f"no object {path!r}")
            res, physical = self._shadow_open(principal, shadow, path)
            return None, res.driver.read(physical), res
        obj = self._resolve_link(obj)
        self.access.require_object(principal, obj, "read")
        self.locks.check_read(int(obj["oid"]), principal)
        kind = obj["kind"]
        if kind in ("data", "registered", "container"):
            if prefetched is not None and int(obj["oid"]) in prefetched:
                return obj, prefetched[int(obj["oid"])], None
            if stripes == "auto" and replica_num is None:
                stripes = self._auto_stripe_count(obj, sink)
            if stripes is not None and not isinstance(stripes, str) \
                    and stripes > 1 and replica_num is None:
                data = self._get_bytes_striped(obj, stripes, sink)
                if data is not None:
                    return obj, data, None
            return (obj, *self._read_replica(obj, replica_num, sink))
        if kind == "sql":
            return obj, self._get_sql(obj, replica_num, sql_remainder), None
        if kind == "url":
            return obj, self._get_url(obj, replica_num), None
        if kind == "method":
            return obj, self._get_method(obj, args), None
        if kind == "shadow-dir":
            raise UnsupportedOperation(
                f"{path!r} is a registered directory; access files "
                "beneath it")
        raise UnsupportedOperation(f"cannot retrieve kind {kind!r}")

    def _get_bytes(self, obj: Dict[str, Any],
                   replica_num: Optional[int], sink: str) -> Any:
        """Plain (non-striped) read: the first readable replica's bytes,
        delivered (:meth:`_deliver`) to ``sink`` — this server or,
        redirected, the caller."""
        data, res = self._read_replica(obj, replica_num, sink)
        if res is None:
            return data
        return self._deliver(data, [(res, len(data), str(obj["path"]))],
                             sink, "get")

    def _read_replica(self, obj: Dict[str, Any],
                      replica_num: Optional[int], sink: str
                      ) -> Tuple[bytes, Optional[PhysicalResource]]:
        """Chain-walk to the first readable replica; defer the wire pull.

        Returns ``(data, resource)`` where ``resource`` is the remote
        resource whose pull the *caller* still owes on the network (so
        ``bulk_get`` can deliver many pulls as one overlapped set), or
        ``None`` when the bytes are already on ``sink``, the host they
        are read on (:meth:`_redirect_sink`).  The chain is the source
        chain to ``sink`` (:meth:`PlacementEngine.source_chain`): an
        online copy on ``sink`` first, tape-resident copies last."""
        oid = int(obj["oid"])
        replicas = self.mcat.replicas(oid)
        if replica_num is not None:
            chain = [r for r in replicas if r["replica_num"] == replica_num]
            if not chain:
                raise NoSuchReplica(
                    f"{obj['path']} has no replica {replica_num}")
        else:
            chain = self.federation.placement.source_chain(
                replicas, sink, probe_down=True)
            if not chain:
                raise ReplicaUnavailable(
                    f"{obj['path']} has no clean replica")
        last: Optional[Exception] = None
        for rep in chain:
            if rep["container_oid"] is not None:
                try:
                    data, res = self.containers.read_member_deferred(
                        rep, from_host=sink)
                except ReplicaUnavailable as exc:
                    last = exc
                    continue
                return data, (res if res.host != sink else None)
            res = self.resources.physical(rep["resource"])
            try:
                # the open probe discovers a dead storage system the
                # expensive way: a charged timeout (E2's failover cost)
                self._resource_session(res)
                data = res.driver.read(rep["physical_path"])
            except (HostUnreachable, ResourceUnavailable) as exc:
                self._invalidate_session(res)
                last = exc
                continue
            return data, (res if res.host != sink else None)
        raise ReplicaUnavailable(
            f"all replicas of {obj['path']!r} unavailable ({last})")

    def _striped_candidates(self, chain: List[Dict[str, Any]], sink: str,
                            cap: Optional[int] = None
                            ) -> List[Tuple[Dict[str, Any],
                                            PhysicalResource]]:
        """Usable striped-read sources in a source ``chain`` to ``sink``
        (where the stripes are read — this server, or the redirect sink
        under direct_io): clean, non-container replicas on distinct
        reachable hosts other than ``sink``, in the chain's order
        (tape-resident copies last), capped at ``cap`` entries."""
        usable: List[Tuple[Dict[str, Any], PhysicalResource]] = []
        seen_hosts = set()
        for rep in chain:
            res = self.resources.physical(rep["resource"])
            if rep["container_oid"] is not None or res.host == sink \
                    or res.host in seen_hosts \
                    or not self.resources.available(res.name):
                continue
            seen_hosts.add(res.host)
            usable.append((rep, res))
            if cap is not None and len(usable) >= cap:
                break
        return usable

    def _sources(self, obj: Dict[str, Any], sink: str) -> List[Dict[str, Any]]:
        """``obj``'s source chain to ``sink``, down hosts' copies kept for
        the probe to discover (:meth:`PlacementEngine.source_chain`)."""
        return self.federation.placement.source_chain(
            self.mcat.replicas(int(obj["oid"])), sink, probe_down=True)

    def _auto_stripe_count(self, obj: Dict[str, Any], sink: str) -> int:
        """Stripe count for a ``get(stripes="auto")`` read.

        When the source chain starts with an online copy on the stripe
        sink's host (this server, or the redirect sink under
        direct_io), that copy beats any wire pull: 1 stripe, and the
        plain read takes it, failing over down the same chain.
        Otherwise the placement engine minimizes its probes + makespan
        model over the measured path bandwidths (E18 checks the pick
        lands within 10% of E14's hand-swept knee).
        """
        chain = self._sources(obj, sink)
        for rep in chain[:1]:           # the head, if there is one
            res = self.resources.physical(rep["resource"])
            if res.host == sink and res.driver.is_online(rep["physical_path"]):
                return 1
        candidates = [res for _rep, res in
                      self._striped_candidates(chain, sink)]
        return self.federation.placement.choose_stripes(
            candidates, int(obj.get("size") or 0),
            owed=[self._session_owed(res) for res in candidates],
            from_host=sink)

    def _get_bytes_striped(self, obj: Dict[str, Any], stripes: int,
                           sink: str) -> Optional[Any]:
        """Read one object as ``stripes`` chunks from distinct replicas.

        SRB's parallel I/O for large objects: when an object has clean
        replicas on several storage hosts, the server pulls disjoint
        byte ranges from up to ``stripes`` of them concurrently — one
        overlapped delivery, so the read charges the slowest chunk
        instead of the whole object over one path.  The payoff scales
        until the per-stream/path knee (experiment E14).  With a remote
        ``sink`` (direct_io) the chunks are not pulled here at all: the
        reply is a :class:`~repro.net.wire.Redirect` whose channels the
        caller runs replica→sink, one parallel group on *its* side.

        Returns ``None`` when striping cannot help (fewer than two
        usable replicas on distinct hosts) so the caller falls back to
        the ordinary chain walk.  A chunk whose replica fails mid-group
        is re-pulled from the first healthy replica; if *every* replica
        fails the usual :class:`ReplicaUnavailable` is raised.
        """
        usable = self._striped_candidates(self._sources(obj, sink), sink,
                                          cap=stripes)
        if len(usable) < 2:
            return None

        alive: List[Tuple[Dict[str, Any], PhysicalResource]] = []
        for rep, res in usable:
            try:
                self._resource_session(res)
            except (HostUnreachable, ResourceUnavailable):
                self._invalidate_session(res)
                continue
            alive.append((rep, res))
        if len(alive) < 2:
            return None       # not enough healthy paths; chain walk wins
        usable = alive
        # bytes come off the first replica's driver (every clean replica
        # holds the same content); the *wire* cost is what stripes
        data = usable[0][1].driver.read(usable[0][0]["physical_path"])
        if not data:
            return data
        k = len(usable)
        chunk = -(-len(data) // k)      # ceil division
        try:
            reply = self._deliver(
                data,
                [(res, min((i + 1) * chunk, len(data)) - i * chunk,
                  rep["physical_path"])
                 for i, (rep, res) in enumerate(usable)],
                sink, "striped-get", retry=True)
        except HostUnreachable as exc:
            raise ReplicaUnavailable(
                f"all striped replicas of {obj['path']!r} "
                f"unavailable ({exc})") from None
        self.obs.metrics.inc("srb.striped_reads", stripes=str(k))
        return reply

    def _get_sql(self, obj: Dict[str, Any], replica_num: Optional[int],
                 sql_remainder: Optional[str]) -> bytes:
        """Execute a registered SQL object at retrieval time and render it
        with its template (built-in or user style-sheet)."""
        target = str(obj["target"])
        resource = obj["resource_hint"]
        # registered replicas of a SQL object are alternative queries
        if replica_num is not None:
            rep = self.mcat.get_replica(int(obj["oid"]), replica_num)
            target = rep["physical_path"]
            resource = rep["resource"]
        if target.startswith("PARTIAL:"):
            fragment = target[len("PARTIAL:"):]
            if sql_remainder is None:
                raise UnsupportedOperation(
                    f"{obj['path']!r} is a partial query; supply the "
                    "remainder")
            sql = fragment + " " + sql_remainder
        else:
            sql = target
        res = self.resources.physical(str(resource))
        self._resource_session(res)
        result = res.driver.execute_sql(sql)
        self._deliver(
            result,
            [(res, sum(len(str(v)) for row in result.rows for v in row),
              str(obj["path"]))], self.host, "get-sql")
        template_name = str(obj["template"] or "HTMLREL")
        sheet = self._load_stylesheet(template_name)
        return sheet.render(result.columns, result.rows).encode()

    def _load_stylesheet(self, template_name: str) -> StyleSheet:
        """A template is a built-in name or the SRB path of a style-sheet
        file already ingested ("the user specifies a file already in SRB
        as the style-sheet file")."""
        if template_name.startswith("/"):
            sheet_obj = self.mcat.find_object(template_name)
            if sheet_obj is None:
                raise NoSuchObject(
                    f"style-sheet {template_name!r} not in SRB")
            source = self._get_bytes(sheet_obj, None, self.host).decode()
            return StyleSheet(source)
        return builtin(template_name)

    def _get_url(self, obj: Dict[str, Any],
                 replica_num: Optional[int]) -> bytes:
        url = str(obj["target"])
        if replica_num is not None:
            rep = self.mcat.get_replica(int(obj["oid"]), replica_num)
            url = rep["physical_path"]
        return self.federation.web.fetch(url, self.host)

    def _get_method(self, obj: Dict[str, Any], args: Optional[str]) -> bytes:
        kind, server_name, command = str(obj["target"]).split(":", 2)
        if kind == "function":
            fn = self.federation.proxy_functions[command]
            return fn(self.server, args or "")
        remote = self.federation.server(server_name)
        if remote.host != self.host:
            raise_failed(self._run_legs(
                [(self.host, remote.host, _CONTROL_MSG, None)], (), "method"))
        fn = self.federation.proxy_bin[server_name][command]
        out = fn(args or "")
        if remote.host != self.host:
            raise_failed(self._run_legs(
                [(remote.host, self.host, len(out), None)], (), "method"))
        return out

    @rpc_op("open_object", scope_arg="path", forwardable=True,
            mcat_hop=False)
    def open_object(self, ctx: OpContext, path: str) -> Dict[str, Any]:
        """Everything MySRB shows when a user "opens" a file, in one reply.

        ``stat`` (a container's row also carries its dead space as
        ``garbage``), ``metadata``, ``annotations``, ``embedded`` — what
        a ``get`` of each object a row :func:`embeds` answered — and,
        for a kind with contents, ``contents`` (at most
        :data:`INLINE_LIMIT` + 1 bytes of them) and their whole
        ``length``.  A collection's reply is its ``stat`` row alone.  A
        file under a registered directory has no catalog row: its reply
        is its contents and empty panes.

        Each part is the answer of its own op, run here through that
        op's plan: the check, the lock, the audit row, the error and the
        catalog hop are that op's, so this op pays no hop of its own.
        An outcome is a :class:`~repro.net.rpc.BatchItemResult`, failed
        on its own as a batch item fails.  Under direct I/O each
        outcome's bytes ride its own redirect legs, whole.
        """
        server, kw = self.server, dict(ticket=ctx.ticket, path=path)
        reply = dict(metadata=[], annotations=[], embedded={}, contents=None)
        try:
            reply["stat"] = info = server.stat(**kw)
        except NoSuchObject as missing:
            try:     # get's shadow fallback, or nothing there either
                data = server.get(**kw)
            except (NoSuchObject, NoSuchPhysicalFile):
                raise missing from None
            reply["stat"] = dict(path=path, kind="shadow-file", replicas=[])
            reply["contents"] = BatchItemResult(ok=True, value=data)
            return _open_reply(reply)
        if "kind" not in info:          # a collection has no object view
            return {"stat": info}
        reply["metadata"] = md = server.get_metadata(**kw)
        reply["annotations"] = server.annotations(**kw)
        for value in dict.fromkeys(row["value"] for row in md if embeds(row)):
            reply["embedded"][value] = self._read(ctx, value)
        if info["kind"] == "container":
            info["garbage"] = server.container_garbage(**kw)
        elif info["kind"] != "shadow-dir":
            reply["contents"] = self._read(ctx, path)
        return _open_reply(reply)

    def _read(self, ctx: OpContext, path: str) -> BatchItemResult:
        """A ``get`` of ``path`` as a batch item: its answer, the
        :class:`SrbError` it raised, or any other error wrapped in
        :class:`RpcError`, as a batch marshals it."""
        try:
            return BatchItemResult(
                ok=True, value=self.server.get(ticket=ctx.ticket, path=path))
        except SrbError as exc:
            return BatchItemResult(ok=False, error=exc)
        except Exception as exc:  # non-SRB bug: fails its outcome alone
            error = RpcError(
                f"remote srb:{self.server.name}.get failed: {exc!r}")
            error.__cause__ = exc
            return BatchItemResult(ok=False, error=error)

    # ------------------------------------------------------------------
    # writes / updates
    # ------------------------------------------------------------------

    @rpc_op("put", scope_arg="path", write=True, audit="put",
            payload_arg="data")
    def put(self, ctx: OpContext, path: str, data: bytes) -> None:
        """Overwrite (re-ingest/edit): metadata stays linked; the written
        replica becomes fresh, siblings become dirty."""
        principal = ctx.principal
        obj = self._resolve_link(self.mcat.get_object(paths.normalize(path)))
        if obj["kind"] not in ("data", "registered"):
            raise UnsupportedOperation(f"cannot write kind {obj['kind']!r}")
        self.access.require_object(principal, obj, "write")
        oid = int(obj["oid"])
        self.locks.check_write(oid, principal)
        replicas = self.mcat.replicas(oid)
        if not replicas:
            raise ReplicaUnavailable(f"{path!r} has no replicas")
        chain = self.federation.placement.failover_chain(
            replicas, from_host=self.host, allow_dirty=True)
        rep = chain[0]
        if rep["container_oid"] is not None:
            # containers are "tarfiles but with more flexibility in
            # accessing and updating files": append the new bytes and
            # repoint the member (compact_container reclaims the garbage)
            self.containers.replace_member(
                rep, data, now=self.now, server_host=ctx.payload_host)
        else:
            self._store(ctx.payload_host,
                        [self.resources.physical(rep["resource"])],
                        rep["physical_path"], data, "put", replace=True)
            self.mcat.update_replica(oid, rep["replica_num"], size=len(data),
                                     is_dirty=False)
            self.mcat.mark_siblings_dirty(oid, rep["replica_num"])
        self.mcat.update_object(oid, size=len(data), modified_at=self.now,
                                checksum=content_checksum(data))
        ctx.audit(detail=f"{len(data)}B")

    @rpc_op("delete", scope_arg="path", write=True, audit="delete",
            need="own", target="object")
    def delete(self, ctx: OpContext, path: str,
               replica_num: Optional[int] = None) -> None:
        """Delete an object — "one replica at a time and when the last
        replica is deleted all the metadata and annotations are also
        deleted".  Registered kinds unlink without touching the physical
        object; deleting a link unlinks."""
        obj = ctx.target
        oid = int(obj["oid"])
        self.locks.check_write(oid, ctx.principal)
        kind = obj["kind"]

        if kind == "link":
            self.mcat.delete_object(oid)     # unlink only
            ctx.audit(action="unlink", target=path)
            return
        if kind in ("sql", "url", "method", "shadow-dir"):
            self.mcat.delete_object(oid)     # pointer kinds: catalog only
            ctx.audit(target=path, detail=kind)
            return
        if kind == "container" and self.mcat.container_members(oid):
            raise ContainerError(
                f"container {path!r} still has members")

        replicas = self.mcat.replicas(oid)
        doomed = replicas
        if replica_num is not None:
            doomed = [r for r in replicas if r["replica_num"] == replica_num]
            if not doomed:
                raise NoSuchReplica(f"{path!r} has no replica {replica_num}")
        for rep in doomed:
            if self.locks.is_pinned(oid, rep["resource"]):
                raise PinnedFile(
                    f"replica {rep['replica_num']} of {path!r} is pinned "
                    f"on {rep['resource']}")
            if kind == "data" and rep["container_oid"] is None:
                res = self.resources.physical(rep["resource"])
                if res.driver.exists(rep["physical_path"]):
                    res.driver.delete(rep["physical_path"])
            self.mcat.remove_replica(oid, rep["replica_num"])
        if not self.mcat.replicas(oid):
            if obj["version"] > 1:
                # the cascade drops the rows of the versions checkin set
                # aside: their bytes go first
                for v in self.locks.versions_of(oid):
                    res = self.resources.physical(v["resource"])
                    if res.driver.exists(v["physical_path"]):
                        res.driver.delete(v["physical_path"])
            self.mcat.delete_object(oid)     # last replica gone -> cascade
        ctx.audit(target=path,
                  detail=f"replica={replica_num}" if replica_num else "all")

    # ------------------------------------------------------------------
    # copy
    # ------------------------------------------------------------------

    @rpc_op("copy", scope_arg="src", write=True, audit="copy",
            detail_arg="dst")
    def copy(self, ctx: OpContext, src: str, dst: str,
             resource: Optional[str] = None) -> int:
        """Copy a file (or recursively a collection) to a new logical name.

        "The copy command does not copy any user-defined metadata or
        annotations. ... these two objects are considered to be entirely
        different and unconnected."  URL/SQL/method objects cannot be
        copied.
        """
        principal = ctx.principal
        src = paths.normalize(src)
        dst = paths.normalize(dst)
        ctx.audit(target=src, detail=dst)
        if self.mcat.collection_exists(src):
            # each copied file audits through its own dispatched copy;
            # the collection-level call itself writes no "copy" row
            ctx.suppress_audit()
            return self._copy_collection(ctx.ticket, principal, src, dst,
                                         resource)
        obj = self._resolve_link(self.mcat.get_object(src))
        if obj["kind"] in ("sql", "url", "method"):
            raise UnsupportedOperation(
                "currently we do not support copy of URL, SQL or method "
                "objects")
        self.access.require_object(principal, obj, "read")
        self.access.require_collection(principal, paths.dirname(dst), "write")
        # resource→resource, as a replicate: the bytes move once per
        # destination, straight from the source replica's host
        data, src_res = self._read_replica(obj, None, self.host)
        resource = resource or str(
            self.mcat.replicas(int(obj["oid"]))[0]["resource"])
        new_oid = self.mcat.create_object(
            dst, kind="data", owner=str(principal), now=self.now,
            data_type=obj["data_type"], size=len(data),
            checksum=content_checksum(data))
        try:
            self._store_replicas(
                src_res.host if src_res is not None else self.host,
                self.federation.placement.order_resources(
                    self.resources.resolve(resource), from_host=self.host,
                    size_hint=len(data)),
                new_oid, f"/srb/copies/{new_oid}-{paths.basename(dst)}",
                data, "copy")
        except SrbError:
            self.mcat.delete_object(new_oid)     # no half-made copies
            raise
        return new_oid

    def _copy_collection(self, ticket, principal: Principal,
                         src: str, dst: str,
                         resource: Optional[str]) -> int:
        self.access.require_collection(principal, src, "read")
        self.access.require_collection(principal, paths.dirname(dst), "write")
        cid = self.mcat.create_collection(dst, str(principal), now=self.now)
        for sub in self.mcat.child_collections(src):
            self._copy_collection(ticket, principal, sub["path"],
                                  paths.join(dst, paths.basename(sub["path"])),
                                  resource)
        for obj in self.mcat.objects_in_collection(src):
            if obj["kind"] in ("sql", "url", "method"):
                continue         # not copyable; skipped like MySRB does
            self.server.copy(ticket, obj["path"],
                             paths.join(dst, str(obj["name"])), resource)
        return cid

    # ------------------------------------------------------------------
    # locks / pins / versions
    # ------------------------------------------------------------------

    @rpc_op("lock", scope_arg="path", write=True, audit="lock",
            detail_arg="lock_type", need="write", target="object")
    def lock(self, ctx: OpContext, path: str, lock_type: str = "shared",
             lifetime_s: Optional[float] = None) -> int:
        from repro.core.locking import DEFAULT_LOCK_LIFETIME_S
        return self.locks.lock(int(ctx.target["oid"]), ctx.principal,
                               lock_type,
                               lifetime_s if lifetime_s is not None
                               else DEFAULT_LOCK_LIFETIME_S)

    @rpc_op("unlock", scope_arg="path", write=True, audit="unlock")
    def unlock(self, ctx: OpContext, path: str) -> int:
        obj = self.mcat.get_object(paths.normalize(path))
        return self.locks.unlock(int(obj["oid"]), ctx.principal)

    @rpc_op("pin", scope_arg="path", write=True, audit="pin",
            detail_arg="resource", need="write", target="object")
    def pin(self, ctx: OpContext, path: str, resource: str,
            lifetime_s: Optional[float] = None) -> int:
        """Pin a replica on a resource so cache management cannot purge
        it."""
        oid = int(ctx.target["oid"])
        target = None
        for rep in self.mcat.replicas(oid):
            if rep["resource"] == resource:
                target = rep
                break
        if target is None:
            raise NoSuchReplica(f"{path!r} has no replica on {resource!r}")
        from repro.core.locking import DEFAULT_PIN_LIFETIME_S
        pid = self.locks.pin(oid, resource, ctx.principal,
                             lifetime_s if lifetime_s is not None
                             else DEFAULT_PIN_LIFETIME_S)
        res = self.resources.physical(resource)
        if isinstance(res.driver, ArchiveDriver):
            res.driver.pin(target["physical_path"])
        return pid

    @rpc_op("unpin", scope_arg="path", write=True, audit="unpin",
            detail_arg="resource")
    def unpin(self, ctx: OpContext, path: str, resource: str) -> int:
        obj = self.mcat.get_object(paths.normalize(path))
        oid = int(obj["oid"])
        count = self.locks.unpin(oid, resource, ctx.principal)
        res = self.resources.physical(resource)
        # the cache pin is the archive's copy of every holder's pin rows:
        # it goes only with the last of them, not with the caller's
        if isinstance(res.driver, ArchiveDriver) \
                and not self.locks.is_pinned(oid, resource):
            for rep in self.mcat.replicas(oid):
                if rep["resource"] == resource:
                    res.driver.unpin(rep["physical_path"])
        return count

    @rpc_op("checkout", scope_arg="path", write=True, audit="checkout",
            need="write", target="object")
    def checkout(self, ctx: OpContext, path: str) -> None:
        """"A checkout by a user disallows any changes to be made to that
        object" until checkin."""
        self.locks.checkout(int(ctx.target["oid"]), ctx.principal)

    @rpc_op("checkin", scope_arg="path", write=True, audit="checkin",
            need="write", target="object")
    def checkin(self, ctx: OpContext, path: str,
                data: Optional[bytes] = None) -> int:
        """Checkin: the older bytes become a numbered historical version;
        optional ``data`` becomes the new current content."""
        principal, obj = ctx.principal, ctx.target
        oid = int(obj["oid"])
        # snapshot current bytes aside on the first clean replica's resource
        replicas = self.mcat.replicas(oid)
        chain = self.federation.placement.failover_chain(
            replicas, from_host=self.host)
        rep = chain[0]
        res = self.resources.physical(rep["resource"])
        if rep["container_oid"] is None:
            old = res.driver.read(rep["physical_path"])
            vpath = f"/srb/versions/{oid}-v{obj['version']}"
            res.driver.replace(vpath, old)
            self.locks.record_version(oid, res.name, vpath, len(old),
                                      principal)
        new_version = self.locks.checkin(oid, principal)
        if data is not None:
            self.server.put(ctx.ticket, path, data)
        ctx.audit(detail=f"v{new_version}")
        return new_version

    @rpc_op("versions", scope_arg="path", forwardable=True, need="read",
            target="object")
    def versions(self, ctx: OpContext, path: str) -> List[Dict[str, Any]]:
        return self.locks.versions_of(int(ctx.target["oid"]))

    @rpc_op("get_version", scope_arg="path", forwardable=True, need="read",
            target="object")
    def get_version(self, ctx: OpContext, path: str,
                    version_num: int) -> bytes:
        """Retrieve the bytes of a historical version."""
        for v in self.locks.versions_of(int(ctx.target["oid"])):
            if v["version_num"] == version_num:
                res = self.resources.physical(v["resource"])
                self._resource_session(res)
                data = res.driver.read(v["physical_path"])
                return self._deliver(
                    data, [(res, len(data), v["physical_path"])],
                    self.host, "get-version")
        raise NoSuchReplica(f"{path!r} has no version {version_num}")

    # ------------------------------------------------------------------
    # containers
    # ------------------------------------------------------------------

    @rpc_op("create_container", scope_arg="path", write=True,
            audit="create-container", detail_arg="logical_resource",
            need="write", target="parent")
    def create_container(self, ctx: OpContext, path: str,
                         logical_resource: str) -> int:
        return self.containers.create(path, logical_resource,
                                      str(ctx.principal), now=self.now)

    @rpc_op("compact_container", scope_arg="path", write=True,
            audit="compact-container", need="write", target="container")
    def compact_container(self, ctx: OpContext, path: str) -> int:
        """Rewrite a container keeping only live member slices; returns
        bytes reclaimed.  Member updates append (log-structured), so a
        heavily-edited container accumulates garbage until compaction."""
        reclaimed = self.containers.compact(path, now=self.now,
                                            server_host=self.host)
        ctx.audit(detail=f"{reclaimed}B")
        return reclaimed

    @rpc_op("container_garbage", scope_arg="path", forwardable=True,
            need="read", target="container")
    def container_garbage(self, ctx: OpContext, path: str) -> int:
        """Bytes of dead space currently in the container."""
        return self.containers.garbage_bytes(int(ctx.target["oid"]))

    @rpc_op("sync_container", scope_arg="path", write=True,
            audit="sync-container", need="write", target="container")
    def sync_container(self, ctx: OpContext, path: str) -> int:
        count = self.containers.sync(path, now=self.now,
                                     server_host=self.host)
        ctx.audit(detail=str(count))
        return count
