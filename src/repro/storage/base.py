"""Storage driver interface and device cost model.

The SRB's defining feature is that one API fronts "archival storage
systems (such as HPSS, DMF, ADSM, UniTree), file systems (Unix, NTFS,
Linux), and databases (Oracle, Sybase, DB2)".  Every driver in this
package implements :class:`StorageDriver`; the SRB server layer is
written against it and never knows which device is behind a physical
resource.

Each driver charges device time to the shared virtual clock through a
:class:`DeviceCost` profile (per-operation latency + streaming
bandwidth).  Network time between hosts is *not* charged here — the
server layer charges link costs separately — so a benchmark can decompose
end-to-end latency into device and network components.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import NoSuchPhysicalFile, StorageError
from repro.obs import Observability
from repro.util.clock import SimClock


@dataclass(frozen=True)
class DeviceCost:
    """Device-level cost profile.

    op_latency_s:     fixed cost of any metadata/IO operation (seek, open).
    read_bps/write_bps: streaming bandwidth for bulk data.
    """

    op_latency_s: float = 0.0002
    read_bps: float = 200e6
    write_bps: float = 150e6

    def read_cost(self, nbytes: int) -> float:
        return self.op_latency_s + nbytes / self.read_bps

    def write_cost(self, nbytes: int) -> float:
        return self.op_latency_s + nbytes / self.write_bps


# Profiles for the device families the paper names.
DISK_COST = DeviceCost(op_latency_s=0.0002, read_bps=200e6, write_bps=150e6)
NT_DISK_COST = DeviceCost(op_latency_s=0.0004, read_bps=120e6, write_bps=90e6)
ARCHIVE_DISK_CACHE_COST = DeviceCost(op_latency_s=0.0005, read_bps=100e6, write_bps=80e6)
DATABASE_COST = DeviceCost(op_latency_s=0.002, read_bps=40e6, write_bps=25e6)


class StorageDriver(abc.ABC):
    """Uniform interface over heterogeneous storage systems.

    Paths are driver-local strings (POSIX-style); the SRB maps logical
    names to ``(resource, physical_path)`` pairs and calls down here.
    """

    #: driver family name ("unixfs", "archive", "database", "url", ...)
    kind: str = "abstract"

    def __init__(self, clock: Optional[SimClock] = None,
                 cost: DeviceCost = DISK_COST):
        self.clock = clock
        self.cost = cost
        self.obs: Optional[Observability] = None
        self.label = self.kind
        self.ops = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def attach_obs(self, obs: Observability,
                   label: Optional[str] = None) -> None:
        """Hook this driver into the grid-wide observability pipeline.

        ``label`` is the resource name the driver sits behind (the
        federation attaches it when registering the resource), so metrics
        distinguish drivers of the same kind on different resources.
        """
        self.obs = obs
        if label is not None:
            self.label = label
        # the series this driver counts into on every access
        metrics = obs.metrics
        self._op_meters = metrics.bind_family(("driver", "op"),
                                              ("counter", "storage.ops"))
        self._bytes_read = metrics.bind_counter("storage.bytes_read",
                                                driver=self.label)
        self._bytes_written = metrics.bind_counter("storage.bytes_written",
                                                   driver=self.label)

    # -- accounting helpers -------------------------------------------------

    def _charge(self, seconds: float) -> None:
        if self.clock is not None and seconds > 0:
            self.clock.advance(seconds)

    def _count_op(self, op: str) -> None:
        if self.obs is not None:
            self._op_meters[self.label, op][0].inc()

    def _charge_read(self, nbytes: int) -> None:
        self.ops += 1
        self.bytes_read += nbytes
        self._count_op("read")
        if self.obs is not None:
            self._bytes_read.inc(nbytes)
            if self.obs.tracer.stack:
                with self.obs.tracer.span("storage.read", driver=self.label,
                                          bytes=nbytes):
                    self._charge(self.cost.read_cost(nbytes))
                return
        self._charge(self.cost.read_cost(nbytes))

    def _charge_write(self, nbytes: int, op: str = "write") -> None:
        self.ops += 1
        self.bytes_written += nbytes
        self._count_op(op)
        if self.obs is not None:
            self._bytes_written.inc(nbytes)
            if self.obs.tracer.stack:
                with self.obs.tracer.span(f"storage.{op}",
                                          driver=self.label, bytes=nbytes):
                    self._charge(self.cost.write_cost(nbytes))
                return
        self._charge(self.cost.write_cost(nbytes))

    def _charge_op(self, op: str = "meta") -> None:
        self.ops += 1
        self._count_op(op)
        self._charge(self.cost.op_latency_s)

    # -- required interface ----------------------------------------------------

    @abc.abstractmethod
    def create(self, path: str, data: bytes) -> None:
        """Create a file with ``data``; parents are created implicitly.

        A driver may keep the caller's ``bytes`` object as the file
        rather than a copy of it (a ``bytearray`` or ``memoryview`` is
        copied, so the caller's later changes to it do not reach the
        file).  A driver never mutates a ``bytes``: an in-place write
        or append first takes a private ``bytearray`` (:func:`writable`).
        """

    @abc.abstractmethod
    def read(self, path: str, offset: int = 0,
             length: Optional[int] = None) -> bytes:
        """Read ``length`` bytes (to EOF if None) starting at ``offset``."""

    @abc.abstractmethod
    def write(self, path: str, data: bytes, offset: int = 0) -> None:
        """Overwrite bytes at ``offset`` (extending the file if needed)."""

    @abc.abstractmethod
    def append(self, path: str, data: bytes) -> None:
        """Append ``data`` to an existing file."""

    @abc.abstractmethod
    def delete(self, path: str) -> None:
        """Remove a file."""

    @abc.abstractmethod
    def exists(self, path: str) -> bool:
        """True iff ``path`` names an existing file."""

    @abc.abstractmethod
    def size(self, path: str) -> int:
        """Size in bytes of an existing file."""

    @abc.abstractmethod
    def list_dir(self, path: str) -> List[str]:
        """Names (not full paths) of entries directly under directory ``path``.

        Directories are implicit (created by file paths containing '/');
        a trailing '/' in a returned name marks a subdirectory.
        """

    # -- conveniences shared by drivers -----------------------------------------

    def read_all(self, path: str) -> bytes:
        return self.read(path, 0, None)

    def replace(self, path: str, data: bytes) -> None:
        """Put ``data`` at ``path``, over a file already there: charged
        exactly as that file's delete and then a create are.  A driver
        that can refuse the new bytes refuses them before the old ones
        go, so a refused overwrite keeps the old file."""
        if self.exists(path):
            self.delete(path)
        self.create(path, data)

    def copy_within(self, src: str, dst: str) -> None:
        """Copy a file inside the same resource (device-local)."""
        self.create(dst, self.read_all(src))

    def require(self, path: str) -> None:
        if not self.exists(path):
            raise NoSuchPhysicalFile(f"{self.kind}: no file {path!r}")

    def is_online(self, path: str) -> bool:
        """Whether a read of ``path`` starts streaming at device prices
        (online) rather than after a tape stage (nearline).  A driver
        with no tape behind it is always online."""
        return True

    def used_bytes(self) -> int:
        """Total bytes stored (for capacity accounting); drivers override
        when they can answer cheaply."""
        raise StorageError(f"{self.kind} driver cannot report usage")


def writable(files: Dict[str, bytes], path: str) -> bytearray:
    """``files[path]`` as a buffer this driver alone holds, to change in
    place: a file still kept as the ``bytes`` it was created from (maybe
    the caller's own object, or another copy's) is replaced by a
    ``bytearray`` copy of it first, once; later writes and appends reuse
    that copy."""
    if type(files[path]) is bytes:
        files[path] = bytearray(files[path])
    return files[path]


def normalize_physical(path: str) -> str:
    """Normalize a driver-local path: collapse '//' and strip trailing '/'.

    Driver paths are rooted at '/', like SRB's physical path names.  A
    path with nothing to change (rooted, no '//', no '/.', no trailing
    '/') comes back as the same object, found without a call: the key a
    driver files its bytes under is then the string of the catalog row
    that names them, not an equal copy.
    """
    if path[:1] == "/" and path[-1:] != "/" and "//" not in path \
            and "/." not in path:
        return path
    if not path.startswith("/"):
        path = "/" + path
    parts = [p for p in path.split("/") if p]
    for p in parts:
        if p in (".", ".."):
            raise StorageError(f"relative components not allowed: {path!r}")
    return "/" + "/".join(parts)
