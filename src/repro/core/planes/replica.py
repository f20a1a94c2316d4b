"""Replica plane: replication, synchronization, physical placement.

"The new replica inherits all metadata associated with its siblings";
dirty siblings are refreshed with ``synchronize``; ``physical_move`` and
``migrate_collection`` implement the paper's persistence claim — data
relocates onto new storage systems "without changing the name by which
the data is discovered and accessed" (experiment E8)."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.dispatch import OpContext, rpc_op
from repro.core.planes.base import PlaneService, content_checksum
from repro.errors import PinnedFile, SrbError, UnsupportedOperation
from repro.util import paths


class ReplicaService(PlaneService):
    """Replication, synchronization and physical data placement."""

    plane = "replica"

    @rpc_op("replicate", scope_arg="path", write=True, audit="replicate",
            detail_arg="resource", span_args=("path", "resource"))
    def replicate(self, ctx: OpContext, path: str, resource: str) -> int:
        """Create a new replica on ``resource``.

        "The new replica inherits all metadata associated with its
        siblings" (metadata hangs off the object, so this is automatic).
        Files inside containers and inside registered directories are not
        replicable with this operation.
        """
        principal = ctx.principal
        obj = self.mcat.get_object(paths.normalize(path))
        obj = self._resolve_link(obj)
        if obj["kind"] not in ("data", "registered"):
            raise UnsupportedOperation(
                f"cannot replicate kind {obj['kind']!r}; "
                "use register_replica")
        self.access.require_object(principal, obj, "write")
        oid = int(obj["oid"])
        replicas = self.mcat.replicas(oid)
        if any(r["container_oid"] is not None for r in replicas):
            raise UnsupportedOperation(
                "mySRB does not support replication of files inside a "
                "container with this operation")
        # the bytes move source -> destination, never through this
        # server: the source is ranked from the destination's host
        dst_list = self.resources.resolve(resource)
        src = self.federation.placement.source_chain(
            replicas, dst_list[0].host)[0]
        src_res = self.resources.physical(src["resource"])
        dst_resources = self.federation.placement.order_resources(
            dst_list, from_host=src_res.host,
            size_hint=int(src.get("size") or 0))
        self._resource_session(src_res)
        data = src_res.driver.read(src["physical_path"])
        return self._store_replicas(
            src_res.host, dst_resources, oid,
            f"/srb/replicas/{oid}-r{len(replicas) + 1}"
            f"-{paths.basename(str(obj['path']))}", data, "replicate")

    @rpc_op("register_replica", scope_arg="path", write=True,
            audit="register-replica")
    def register_replica(self, ctx: OpContext, path: str,
                         target: str, resource: Optional[str] = None) -> int:
        """Register another URL/SQL/etc. as a *semantically equal* replica.

        "Note that SRB does not check whether a registered replica is
        really an equal of the other copy."
        """
        principal = ctx.principal
        obj = self.mcat.get_object(paths.normalize(path))
        if obj["kind"] not in ("sql", "url", "shadow-dir", "registered"):
            raise UnsupportedOperation(
                f"register_replica applies to registered kinds, "
                f"not {obj['kind']!r}")
        self.access.require_object(principal, obj, "write")
        return self.mcat.add_replica(
            int(obj["oid"]), resource or str(obj["resource_hint"] or "@registered"),
            target, 0, now=self.now)

    @rpc_op("ingest_replica", scope_arg="path", write=True,
            audit="ingest-replica", payload_arg="data", need="write",
            target="resolved")
    def ingest_replica(self, ctx: OpContext, path: str, data: bytes,
                       resource: str) -> int:
        """Ingest different bytes as a replica of an existing object —
        "syntactically different but semantically equal (eg. a tiff file
        and a gif file of the same image)".  No equality checks."""
        oid = int(ctx.target["oid"])
        res_list = self.federation.placement.order_resources(
            self.resources.resolve(resource), from_host=self.host,
            size_hint=len(data))
        return self._store_replicas(
            ctx.payload_host, res_list, oid,
            f"/srb/ingested-replicas/{oid}-"
            f"{len(self.mcat.replicas(oid)) + 1}", data, "ingest-replica")

    @rpc_op("synchronize", scope_arg="path", write=True, audit="synchronize",
            need="write", target="object")
    def synchronize(self, ctx: OpContext, path: str) -> int:
        """Refresh dirty replicas from a clean one."""
        count = self._refresh(int(ctx.target["oid"]), "synchronize", "skip")
        ctx.audit(detail=str(count))
        return count

    @rpc_op("physical_move", scope_arg="path", write=True,
            audit="physical-move", detail_arg="resource")
    def physical_move(self, ctx: OpContext, path: str, resource: str) -> None:
        """Physical move: relocate the bytes, keep the logical name.

        "This is possible only for files ingested into SRB resources
        (container-based files cannot be moved using this operation)."
        """
        principal = ctx.principal
        obj = self.mcat.get_object(paths.normalize(path))
        if obj["kind"] != "data":
            raise UnsupportedOperation(
                "physical move applies to files ingested into SRB")
        self.access.require_object(principal, obj, "own")
        oid = int(obj["oid"])
        self.locks.check_write(obj, principal)
        replicas = self.mcat.replicas(oid)
        if any(r["container_oid"] is not None for r in replicas):
            raise UnsupportedOperation(
                "container-based files cannot be moved with this operation")
        dst_list = self.resources.resolve(resource)
        if len(dst_list) != 1:
            raise UnsupportedOperation(
                "physical move targets a single physical resource")
        dst_res = dst_list[0]
        # the copy read is the copy moved (and deleted where it was):
        # the policy's choice, as for a write target, not the source chain
        src = self.federation.placement.failover_chain(
            replicas, from_host=self.host)[0]
        # a pinned copy stays where it is: refused before a byte moves,
        # as delete refuses it
        if self.locks.is_pinned(oid, src["resource"]):
            raise PinnedFile(f"{path!r} is pinned on {src['resource']}")
        src_res = self.resources.physical(src["resource"])
        self._resource_session(src_res)
        data = src_res.driver.read(src["physical_path"])
        phys = f"/srb/moved/{oid}-{paths.basename(str(obj['path']))}"
        moved = [(dst_res, phys)]
        self._store(src_res.host, moved, data, "move")
        try:
            self._remove([(src_res, src["physical_path"])], "move")
        except SrbError:
            self._remove(moved, "rollback", "skip")     # no second copy
            raise
        self.mcat.update_replica(oid, src["replica_num"], resource=dst_res.name,
                                 physical_path=phys, size=len(data))

    @rpc_op("migrate_collection", scope_arg="coll", write=True,
            audit="migrate", audit_arg="coll", detail_arg="resource")
    def migrate_collection(self, ctx: OpContext, coll: str,
                           resource: str) -> int:
        """Recursively move every SRB-managed file under ``coll`` onto
        ``resource`` — "data can be replicated onto new storage systems by
        a recursive directory movement command, without changing the name
        by which the data is discovered and accessed".  Returns the number
        of objects migrated."""
        coll = paths.normalize(coll)
        ctx.audit(target=coll)
        self.access.require_collection(ctx.principal, coll, "own")
        moved = 0
        for obj in self.mcat.objects_in_collection(coll, recursive=True):
            if obj["kind"] != "data":
                continue
            if any(r["container_oid"] is not None
                   for r in self.mcat.replicas(int(obj["oid"]))):
                continue
            self.server.physical_move(ctx.ticket, str(obj["path"]), resource)
            moved += 1
        return moved

    @rpc_op("verify_checksums", scope_arg="path", forwardable=True,
            audit="verify", need="read", target="resolved")
    def verify_checksums(self, ctx: OpContext, path: str) -> Dict[int, str]:
        """Compare every reachable replica against the recorded checksum.

        Returns ``{replica_num: "ok" | "mismatch" | "unavailable" |
        "no-checksum" | "skipped-container"}``.  Replicas ingested with
        ``ingest_replica`` are *semantically* equal but syntactically
        different, so a "mismatch" on them is expected and the paper's
        warning ("SRB does not check for syntactic or semantic equality")
        applies; this operation reports, it does not judge.
        """
        obj = ctx.target
        expected = obj["checksum"]
        report: Dict[int, str] = {}
        for rep in self.mcat.replicas(int(obj["oid"])):
            num = int(rep["replica_num"])
            if rep["container_oid"] is not None:
                report[num] = "skipped-container"
                continue
            if expected is None:
                report[num] = "no-checksum"
                continue
            res = self.resources.physical(rep["resource"])
            try:
                self._resource_session(res)
                data = res.driver.read(rep["physical_path"])
            except SrbError:
                self._invalidate_session(res)
                report[num] = "unavailable"
                continue
            self._deliver(data, [(res, len(data), rep["physical_path"])],
                          self.host, "verify")
            report[num] = "ok" if content_checksum(data) == expected \
                else "mismatch"
        ctx.audit(detail=",".join(f"{k}:{v}" for k, v in report.items()))
        return report
