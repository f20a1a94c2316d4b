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

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ContainerError
from repro.mcat.catalog import Mcat
from repro.policy import PlacementEngine
from repro.storage.resource import PhysicalResource, ResourceRegistry


class ContainerManager:
    """The catalog side of containers: their rows, their primary copy,
    their members.  The bytes are the server's to move (``DataService``
    appends, compacts and syncs them through its write loop)."""

    def __init__(self, mcat: Mcat, resources: ResourceRegistry,
                 placement: PlacementEngine):
        self.mcat = mcat
        self.resources = resources
        # container copies are chosen by the placement engine: reads
        # walk its source chain, appends go to its append target
        self.placement = placement

    # -- creation -------------------------------------------------------------

    def create(self, path: str, logical_resource: str, owner: str,
               now: float) -> Tuple[int, List[Tuple[PhysicalResource, str]]]:
        """Register an empty container stored on ``logical_resource``.

        Every physical member of the logical resource holds a replica
        row of it; the first member is the primary copy that appends go
        to.  Returns the oid and the ``(resource, physical path)`` of
        each (for now empty) container file the caller creates.
        """
        members = self.resources.resolve(logical_resource)   # validates
        oid = self.mcat.create_object(
            path, kind="container", owner=owner, now=now,
            data_type="container", size=0, target=logical_resource)
        phys = f"/containers/cont-{oid}.dat"
        for res in members:
            self.mcat.add_replica(oid, res.name, phys, 0, now=now)
        return oid, [(res, phys) for res in members]

    def get_container(self, path: str) -> Dict[str, Any]:
        obj = self.mcat.get_object(path)
        if obj["kind"] != "container":
            raise ContainerError(f"{path!r} is not a container")
        return obj

    # -- replica choice -----------------------------------------------------------

    def primary_replica(self, container_oid: int) -> Dict[str, Any]:
        """The copy appends go to: the placement engine's append target
        (:meth:`~repro.policy.PlacementEngine.order_container_replicas`)."""
        replicas = self.mcat.replicas(container_oid)
        if not replicas:
            raise ContainerError(f"container {container_oid} has no replicas")
        return self.placement.order_container_replicas(replicas)[0]

    def resized(self, coid: int, primary: Dict[str, Any], size: int,
                now: float) -> None:
        """Record that container ``coid``'s primary copy now holds
        ``size`` bytes (after an append or a compaction): its row and
        the object's say so, and the other copies become dirty
        (synchronized later in one bulk pass)."""
        self.mcat.update_replica(coid, primary["replica_num"], size=size)
        self.mcat.mark_siblings_dirty(coid, primary["replica_num"])
        self.mcat.update_object(coid, size=size, modified_at=now)

    # -- membership ------------------------------------------------------------

    def read_member_deferred(self, member_replica: Dict[str, Any],
                             from_host: Optional[str] = None):
        """Read a member's bytes without charging the wire.

        The slice comes from the first copy of the container's source
        chain to ``from_host``, the reader's host
        (:meth:`~repro.policy.PlacementEngine.source_chain`): an online
        copy there first, tape-resident copies last, as for any other
        read.  A ranged read touches only the member's slice (tape
        staging of the whole container happens inside the archive
        driver, where the cost model amortizes it across subsequent
        members).  Returns ``(data, resource)``: the caller delivers the
        bytes from the resource's host to whoever reads them.  Raises
        the chain's :class:`~repro.errors.ReplicaUnavailable` when no
        clean copy is on an available resource.
        """
        coid = member_replica["container_oid"]
        if coid is None:
            raise ContainerError("replica is not container-resident")
        crep = self.placement.source_chain(self.mcat.replicas(int(coid)),
                                           from_host)[0]
        res = self.resources.physical(crep["resource"])
        return res.driver.read(crep["physical_path"],
                               int(member_replica["offset"]),
                               int(member_replica["size"])), res

    def members(self, container_oid: int) -> List[Dict[str, Any]]:
        return self.mcat.container_members(container_oid)

    # -- compaction -----------------------------------------------------------

    def garbage_bytes(self, container_oid: int) -> int:
        """Bytes in the container file not referenced by any member."""
        primary = self.primary_replica(container_oid)
        live = sum(int(m["size"]) for m in self.members(container_oid))
        return int(primary["size"]) - live

    def repacked(self, coid: int, primary: Dict[str, Any],
                 members: List[Dict[str, Any]], now: float) -> None:
        """Record that the primary copy now holds exactly ``members``'
        slices, back to back in their order: each member is repointed,
        and the copy :meth:`resized`."""
        offset = 0
        for m in members:
            self.mcat.update_replica(int(m["oid"]), int(m["replica_num"]),
                                     offset=offset)
            offset += int(m["size"])
        self.resized(coid, primary, offset, now)
