"""Containers: physical aggregation of small objects.

"Support is also needed for aggregating small data files into physical
blocks called containers for storage into archives, and for decreasing
latency when accessed over a wide area network. ... One can view
containers as tarfiles but with more flexibility in accessing and
updating files."

A container is itself an SRB object (kind ``container``) whose replicas
live on the physical members of a *logical resource* — typically a disk
cache plus a tape archive.  Member objects do not get their own physical
files; their replica rows carry ``(container_oid, offset, size)`` and
reads resolve to a ranged read inside the container bytes.

Why this wins (experiment E1): ingesting N small files into an archive
individually costs N tape operations and N WAN round trips; through a
container it costs N appends to the *cache* copy plus one bulk
synchronization, and a retrieval working set costs one tape stage for the
whole container instead of one per file.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ContainerError, HostUnreachable, ResourceUnavailable
from repro.mcat.catalog import Mcat
from repro.net.simnet import raise_failed
from repro.policy import PlacementEngine
from repro.storage.resource import ResourceRegistry


class ContainerManager:
    """Creates containers, appends members, reads members, synchronizes."""

    def __init__(self, mcat: Mcat, resources: ResourceRegistry,
                 placement: PlacementEngine, channels):
        self.mcat = mcat
        self.resources = resources
        # container replica ordering goes through the placement engine
        # (cache-tier-first always; within a tier the policy may rank by
        # measured path cost)
        self.placement = placement
        # the federation's ChannelBroker: container bytes move through
        # its leg runner like every other payload byte
        self.channels = channels

    # -- creation -------------------------------------------------------------

    def create(self, path: str, logical_resource: str, owner: str,
               now: float) -> int:
        """Create an empty container stored on ``logical_resource``.

        Every physical member of the logical resource receives a (for
        now empty) physical container file; the first member is the
        primary copy that appends go to.
        """
        members = self.resources.resolve(logical_resource)   # validates
        oid = self.mcat.create_object(
            path, kind="container", owner=owner, now=now,
            data_type="container", size=0, target=logical_resource)
        phys = f"/containers/cont-{oid}.dat"
        for res in members:
            res.driver.create(phys, b"")
            self.mcat.add_replica(oid, res.name, phys, 0, now=now)
        return oid

    def get_container(self, path: str) -> Dict[str, Any]:
        obj = self.mcat.get_object(path)
        if obj["kind"] != "container":
            raise ContainerError(f"{path!r} is not a container")
        return obj

    # -- replica choice -----------------------------------------------------------

    def _ordered_replicas(self, container_oid: int,
                          from_host: Optional[str] = None
                          ) -> List[Dict[str, Any]]:
        """Container replicas, cache (non-archive) resources first."""
        replicas = self.mcat.replicas(container_oid)
        if not replicas:
            raise ContainerError(f"container {container_oid} has no replicas")
        return self.placement.order_container_replicas(replicas,
                                                       from_host=from_host)

    def primary_replica(self, container_oid: int) -> Dict[str, Any]:
        return self._ordered_replicas(container_oid)[0]

    # -- membership ------------------------------------------------------------

    def _append_to_primary(self, coid: int, data: bytes, now: float,
                           server_host: Optional[str], label: str):
        """Land ``data`` at the end of the container's primary copy.

        The bytes move ``server_host`` → primary first (when a host is
        given) through the leg runner, which relays them when the op
        being served brought them on a remote caller's request
        (``ChannelBroker.inbound``); the other container replicas become
        dirty.  Returns ``(resource, primary replica row, offset of the
        new slice)``.
        """
        primary = self.primary_replica(coid)
        res = self.resources.physical(primary["resource"])
        if not self.resources.available(res.name):
            raise ResourceUnavailable(
                f"container primary resource {res.name!r} is down")
        if server_host is not None:
            raise_failed(self.channels.run_legs(
                [(server_host, res.host, len(data),
                  primary["physical_path"])], label))
        offset = res.driver.size(primary["physical_path"])
        res.driver.append(primary["physical_path"], data)
        self.mcat.update_replica(coid, primary["replica_num"],
                                 size=offset + len(data))
        self.mcat.mark_siblings_dirty(coid, primary["replica_num"])
        self.mcat.update_object(coid, size=offset + len(data), modified_at=now)
        return res, primary, offset

    def append_member(self, container: Dict[str, Any], member_oid: int,
                      data: bytes, now: float,
                      server_host: Optional[str] = None) -> Dict[str, Any]:
        """Append a member's bytes to the container's primary replica.

        Other container replicas become dirty (synchronized later in one
        bulk pass).  Returns the member's new replica row.
        """
        coid = int(container["oid"])
        res, primary, offset = self._append_to_primary(
            coid, data, now, server_host, "container-append")
        replica_num = self.mcat.add_replica(
            member_oid, res.name, primary["physical_path"], len(data),
            now=now, container_oid=coid, offset=offset)
        return self.mcat.get_replica(member_oid, replica_num)

    def read_member_deferred(self, member_replica: Dict[str, Any],
                             from_host: Optional[str] = None):
        """Read a member's bytes without charging the wire.

        Tries the cache copy first, failing over to archive copies; a
        ranged read touches only the member's slice (tape staging of the
        whole container happens inside the archive driver, where the cost
        model amortizes it across subsequent members).  Returns ``(data,
        resource)``: the caller delivers the bytes from the resource's
        host to whoever reads them.  ``from_host`` is that reader's
        host, used to order the container replicas.
        """
        coid = member_replica["container_oid"]
        if coid is None:
            raise ContainerError("replica is not container-resident")
        offset = int(member_replica["offset"])
        length = int(member_replica["size"])
        last_error: Optional[Exception] = None
        for crep in self._ordered_replicas(int(coid), from_host=from_host):
            if crep["is_dirty"]:
                continue                      # stale copy: do not serve
            res = self.resources.physical(crep["resource"])
            if not self.resources.available(res.name):
                last_error = ResourceUnavailable(f"{res.name} down")
                continue
            try:
                data = res.driver.read(crep["physical_path"], offset, length)
            except HostUnreachable as exc:    # pragma: no cover - defensive
                last_error = exc
                continue
            return data, res
        raise ResourceUnavailable(
            f"no clean, reachable replica of container {coid}"
            + (f" ({last_error})" if last_error else ""))

    def members(self, container_oid: int) -> List[Dict[str, Any]]:
        return self.mcat.container_members(container_oid)

    # -- member update + compaction ----------------------------------------------

    def replace_member(self, member_replica: Dict[str, Any], data: bytes,
                       now: float, server_host: Optional[str] = None
                       ) -> Dict[str, Any]:
        """Update a member in place — "one can view containers as tarfiles
        but with more flexibility in accessing and updating files".

        The new bytes are appended to the primary container copy and the
        member's (offset, size) repointed; the old slice becomes garbage
        that :meth:`compact` reclaims.  Appending instead of overwriting
        keeps updates O(new bytes) even when sizes change, exactly like a
        log-structured tar.
        """
        coid = member_replica["container_oid"]
        if coid is None:
            raise ContainerError("replica is not container-resident")
        res, primary, offset = self._append_to_primary(
            int(coid), data, now, server_host, "container-replace")
        self.mcat.update_replica(int(member_replica["oid"]),
                                 int(member_replica["replica_num"]),
                                 offset=offset, size=len(data),
                                 resource=res.name,
                                 physical_path=primary["physical_path"])
        return self.mcat.get_replica(int(member_replica["oid"]),
                                     int(member_replica["replica_num"]))

    def garbage_bytes(self, container_oid: int) -> int:
        """Bytes in the container file not referenced by any member."""
        primary = self.primary_replica(container_oid)
        live = sum(int(m["size"]) for m in self.members(container_oid))
        return int(primary["size"]) - live

    def compact(self, container_path: str, now: float,
                server_host: Optional[str] = None) -> int:
        """Rewrite the container keeping only live member slices.

        Returns the number of bytes reclaimed.  Member offsets are
        repointed into the fresh layout; other container replicas become
        dirty (refresh with :meth:`sync`).
        """
        container = self.get_container(container_path)
        coid = int(container["oid"])
        primary = self.primary_replica(coid)
        res = self.resources.physical(primary["resource"])
        if not self.resources.available(res.name):
            raise ResourceUnavailable(
                f"container primary resource {res.name!r} is down")
        members = self.members(coid)
        pieces = []
        new_offsets = []
        cursor = 0
        for m in members:
            data = res.driver.read(m["physical_path"], int(m["offset"]),
                                   int(m["size"]))
            pieces.append(data)
            new_offsets.append(cursor)
            cursor += len(data)
        old_size = res.driver.size(primary["physical_path"])
        res.driver.replace(primary["physical_path"], b"".join(pieces))
        for m, offset in zip(members, new_offsets):
            self.mcat.update_replica(int(m["oid"]),
                                     int(m["replica_num"]), offset=offset)
        self.mcat.update_replica(coid, primary["replica_num"], size=cursor)
        self.mcat.mark_siblings_dirty(coid, primary["replica_num"])
        self.mcat.update_object(coid, size=cursor, modified_at=now)
        return old_size - cursor

    # -- synchronization -----------------------------------------------------------

    def sync(self, container_path: str, now: float,
             server_host: Optional[str] = None) -> int:
        """Copy the fresh container bytes onto every dirty replica.

        One bulk transfer per dirty replica, overlapped — this is the
        "semantics associated with the logical resource specification of
        the container" the paper describes.  Nothing is written unless
        every transfer arrives.  Returns replicas refreshed.
        """
        container = self.get_container(container_path)
        coid = int(container["oid"])
        replicas = self.mcat.replicas(coid)
        fresh = [r for r in replicas if not r["is_dirty"]]
        if not fresh:
            raise ContainerError(f"container {coid} has no clean replica")
        source = fresh[0]
        src_res = self.resources.physical(source["resource"])
        data = src_res.driver.read_all(source["physical_path"])
        dirty = [(rep, self.resources.physical(rep["resource"]))
                 for rep in replicas if rep["is_dirty"]]
        for _rep, dst_res in dirty:
            if not self.resources.available(dst_res.name):
                raise ResourceUnavailable(
                    f"cannot sync container to {dst_res.name!r}: down")
        raise_failed(self.channels.run_legs(
            [(src_res.host, dst_res.host, len(data), rep["physical_path"])
             for rep, dst_res in dirty], "container-sync"))
        for rep, dst_res in dirty:
            dst_res.driver.replace(rep["physical_path"], data)
            self.mcat.update_replica(coid, rep["replica_num"],
                                     is_dirty=False, size=len(data))
        return len(dirty)
