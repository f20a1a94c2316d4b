"""Physical and logical resource registry.

A *physical resource* is one storage system on one host (``unix-sdsc``,
``hpss-caltech`` in the paper's example).  A *logical resource* "ties
together two or more physical resources": storing a file into it writes
every member synchronously, and the copies appear as replicas of the same
SRB object (experiment E6 measures exactly this fan-out).

The registry is federation-wide state kept by the MCAT-enabled server;
remote servers learn about resources through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import NoSuchResource, StorageError
from repro.net.simnet import Network
from repro.storage.base import StorageDriver


@dataclass
class PhysicalResource:
    """One storage system: a driver living on a network host."""

    name: str
    host: str
    driver: StorageDriver
    rtype: str = "unixfs"          # unixfs | archive | database
    zone: str = "demozone"
    is_cache: bool = False         # cache resources are purge candidates

    def __post_init__(self):
        if self.rtype not in ("unixfs", "archive", "database"):
            raise StorageError(f"unknown resource type {self.rtype!r}")


@dataclass
class LogicalResource:
    """A named group of physical resources written synchronously."""

    name: str
    members: List[str]

    def __post_init__(self):
        if len(self.members) < 1:
            raise StorageError("logical resource needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise StorageError(f"duplicate members in logical resource {self.name!r}")


class ResourceRegistry:
    """Federation-wide catalog of storage resources."""

    def __init__(self, network: Network):
        self.network = network
        self._physical: Dict[str, PhysicalResource] = {}
        self._logical: Dict[str, LogicalResource] = {}

    # -- registration -----------------------------------------------------------

    def add_physical(self, resource: PhysicalResource) -> PhysicalResource:
        if resource.name in self._physical or resource.name in self._logical:
            raise StorageError(f"resource name {resource.name!r} already in use")
        self.network.host(resource.host)  # must exist
        self._physical[resource.name] = resource
        return resource

    def add_logical(self, name: str, members: Sequence[str]) -> LogicalResource:
        if name in self._physical or name in self._logical:
            raise StorageError(f"resource name {name!r} already in use")
        for m in members:
            if m not in self._physical:
                raise NoSuchResource(
                    f"logical resource member {m!r} is not a physical resource")
        logical = LogicalResource(name=name, members=list(members))
        self._logical[name] = logical
        return logical

    # -- lookup --------------------------------------------------------------

    def physical(self, name: str) -> PhysicalResource:
        try:
            return self._physical[name]
        except KeyError:
            raise NoSuchResource(f"no physical resource {name!r}") from None

    def is_physical(self, name: str) -> bool:
        return name in self._physical

    def is_logical(self, name: str) -> bool:
        return name in self._logical

    def resolve(self, name: str) -> List[PhysicalResource]:
        """Expand a resource name to the physical resources it denotes.

        A physical name resolves to itself; a logical name to its members
        (in declaration order — the first member is the "primary" copy the
        SRB prefers for retrieval).
        """
        if name in self._physical:
            return [self._physical[name]]
        if name in self._logical:
            return [self._physical[m] for m in self._logical[name].members]
        raise NoSuchResource(f"no resource {name!r}")

    def physical_names(self) -> List[str]:
        return sorted(self._physical)

    def logical_names(self) -> List[str]:
        return sorted(self._logical)

    def available(self, name: str) -> bool:
        """A physical resource is available iff its host is up."""
        res = self.physical(name)
        return self.network.host(res.host).up

    def describe(self, name: str) -> Dict[str, object]:
        """Resource metadata shown by MySRB's resource pages."""
        if self.is_physical(name):
            r = self._physical[name]
            return {"name": r.name, "kind": "physical", "type": r.rtype,
                    "host": r.host, "zone": r.zone, "up": self.available(name)}
        if self.is_logical(name):
            l = self._logical[name]
            return {"name": l.name, "kind": "logical", "members": list(l.members)}
        raise NoSuchResource(f"no resource {name!r}")
