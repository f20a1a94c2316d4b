"""Tape-archive storage model (HPSS / UniTree / ADSM / DMF class).

The paper's container feature exists because of archives like these:
each file stored to tape pays a large fixed cost (robot fetch + mount +
seek) before any byte streams, so "aggregating small data files into
physical blocks called containers" wins enormously.  The model captures
exactly the cost structure that drives that claim:

* a *disk cache* front-end: recently written/staged files live on disk
  and cost disk prices;
* a *tape* back-end: files not in cache must be **staged** — one fixed
  ``tape_mount_s`` penalty (amortized while the "mount" persists across
  consecutive accesses) plus ``tape_seek_s`` per file plus streaming at
  ``tape_bps``;
* cache management: the SRB may purge unpinned cache entries; pinned
  files ("pin operation makes sure that a SRB object does not get
  deleted from a particular resource") survive purges, and pinning a
  tape-resident file stages it first.  That a pinned copy is not
  deleted is the catalog's guard (its live pins, checked by the server
  ops), not the cache's: deleting a file drops its cache pin.

A file in the disk cache is *online*, one only on tape *nearline*
(:meth:`StorageDriver.is_online`): the placement engine reads online
copies before tape-resident ones.

Experiment E1 sweeps file count and container size against this model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Union

from repro.errors import AlreadyExists, StorageError
from repro.storage.base import (
    ARCHIVE_DISK_CACHE_COST,
    DeviceCost,
    StorageDriver,
    normalize_physical,
    writable,
)
from repro.util.clock import SimClock


@dataclass(frozen=True)
class TapeCost:
    """Tape back-end cost profile (defaults are HPSS-like, early 2000s)."""

    tape_mount_s: float = 20.0      # robot fetch + mount, paid on first touch
    tape_seek_s: float = 2.0        # position to a file on the mounted tape
    tape_bps: float = 30e6          # streaming rate once positioned
    mount_linger_s: float = 60.0    # mount persists; consecutive ops amortize it


class ArchiveDriver(StorageDriver):
    """Hierarchical storage manager: disk cache over tape."""

    kind = "archive"

    def __init__(self, clock: Optional[SimClock] = None,
                 cache_cost: DeviceCost = ARCHIVE_DISK_CACHE_COST,
                 tape: TapeCost = TapeCost(),
                 cache_capacity_bytes: Optional[int] = None):
        super().__init__(clock=clock, cost=cache_cost)
        self.tape_cost = tape
        self.cache_capacity_bytes = cache_capacity_bytes
        self._tape: Dict[str, bytes] = {}          # migrated (authoritative) copies
        # staged / recently written; the tape's own object until written
        self._cache: Dict[str, Union[bytes, bytearray]] = {}
        self._cache_order: List[str] = []          # LRU order, oldest first
        self._cached_bytes = 0                     # sum of the cached buffers
        self._pinned: Set[str] = set()
        self._mount_expires = -1.0                 # virtual time the mount lingers to
        self.stages = 0
        self.tape_mounts = 0

    # -- tape mechanics ------------------------------------------------------

    def _charge_tape(self, nbytes: int) -> None:
        """Charge one tape access: mount (if not lingering) + seek + stream."""
        now = self.clock.now if self.clock is not None else 0.0
        cost = self.tape_cost.tape_seek_s + nbytes / self.tape_cost.tape_bps
        if now > self._mount_expires:
            cost += self.tape_cost.tape_mount_s
            self.tape_mounts += 1
        self._charge(cost)
        if self.clock is not None:
            self._mount_expires = self.clock.now + self.tape_cost.mount_linger_s

    def _stage(self, path: str) -> None:
        """Bring a tape-resident file into the disk cache."""
        data = self._tape[path]
        if self.obs is not None:
            self.obs.metrics.inc("storage.stages", driver=self.label)
            with self.obs.tracer.span("storage.stage", driver=self.label,
                                      bytes=len(data)):
                self._charge_tape(len(data))
        else:
            self._charge_tape(len(data))
        self.stages += 1
        self._cache_put(path, data)

    def _cache_put(self, path: str, data: bytes) -> None:
        if path in self._cache:
            self._cache_order.remove(path)
            self._cached_bytes -= len(self._cache[path])
        self._cache[path] = data
        self._cached_bytes += len(data)
        self._cache_order.append(path)
        self._evict_if_needed()

    def _cache_touch(self, path: str) -> None:
        if path in self._cache:
            self._cache_order.remove(path)
            self._cache_order.append(path)

    def _evict_if_needed(self) -> None:
        """Flush least-recently-used unpinned entries to tape until the
        cache fits.  The newest entry, the file just put, is never the
        victim: a file larger than the cache overflows it rather than
        vanish from under the access that staged or created it."""
        if self.cache_capacity_bytes is None:
            return
        idx = 0
        while self._cached_bytes > self.cache_capacity_bytes \
                and idx < len(self._cache_order) - 1:
            victim = self._cache_order[idx]
            if victim in self._pinned:
                idx += 1            # skip pinned entries
                continue
            self._migrate(victim)
            self._cache_order.pop(idx)
            self._cached_bytes -= len(self._cache.pop(victim))

    def _migrate(self, path: str) -> None:
        """Ensure the authoritative tape copy matches the cache copy: the
        same object while the cache copy is still a ``bytes``."""
        self._tape[path] = bytes(self._cache[path])

    # -- cache management API (used by SRB cache management + pin ops) ------------

    def pin(self, path: str) -> None:
        """Bring ``path`` online and keep it there (SRM's bring-online):
        a tape-resident file is staged now, charged and counted as a
        read's stage is, and survives purges and eviction until unpinned."""
        path = normalize_physical(path)
        self.require(path)
        self._pinned.add(path)
        if path not in self._cache:
            self._stage(path)

    def unpin(self, path: str) -> None:
        self._pinned.discard(normalize_physical(path))

    def is_pinned(self, path: str) -> bool:
        return normalize_physical(path) in self._pinned

    def purge_cache(self) -> int:
        """SRB cache management: flush unpinned entries to tape.

        Returns the number of entries purged.  Pinned files stay cached.
        """
        purged = 0
        for path in list(self._cache_order):
            if path in self._pinned:
                continue
            self._migrate(path)
            self._cache_order.remove(path)
            self._cached_bytes -= len(self._cache.pop(path))
            purged += 1
        return purged

    # -- StorageDriver -----------------------------------------------------------

    def is_online(self, path: str) -> bool:
        """Online exactly while in the disk cache."""
        return normalize_physical(path) in self._cache

    def create(self, path: str, data: bytes) -> None:
        path = normalize_physical(path)
        if self.exists(path):
            raise AlreadyExists(f"archive file exists: {path!r}")
        self._charge_write(len(data), op="create")  # lands in disk cache
        self._cache_put(path, bytes(data))
        self._migrate(path)                     # HSM migrates asynchronously;
        # we record the tape copy immediately (migration bandwidth is not on
        # the caller's critical path in an HSM, so no tape cost is charged).

    def read(self, path: str, offset: int = 0,
             length: Optional[int] = None) -> bytes:
        path = normalize_physical(path)
        self.require(path)
        if path not in self._cache:
            if self.obs is not None:
                self.obs.metrics.inc("storage.cache_misses",
                                     driver=self.label)
                self.obs.tracer.add("cache_misses", 1)
            self._stage(path)
        else:
            if self.obs is not None:
                self.obs.metrics.inc("storage.cache_hits", driver=self.label)
                self.obs.tracer.add("cache_hits", 1)
            self._cache_touch(path)
        buf = self._cache[path]
        end = len(buf) if length is None else min(len(buf), offset + length)
        if offset < 0 or offset > len(buf):
            raise StorageError(f"offset {offset} out of range for {path!r}")
        data = bytes(buf[offset:end])
        self._charge_read(len(data))
        return data

    def write(self, path: str, data: bytes, offset: int = 0) -> None:
        path = normalize_physical(path)
        self.require(path)
        if path not in self._cache:
            self._stage(path)
        buf = self._cache[path]
        if offset < 0 or offset > len(buf):
            raise StorageError(f"offset {offset} out of range for {path!r}")
        grow = max(0, offset + len(data) - len(buf))
        buf = writable(self._cache, path)
        if grow:
            buf.extend(b"\x00" * grow)
            self._cached_bytes += grow
        buf[offset:offset + len(data)] = data
        self._charge_write(len(data))
        self._migrate(path)

    def append(self, path: str, data: bytes) -> None:
        path = normalize_physical(path)
        self.require(path)
        if path not in self._cache:
            self._stage(path)
        writable(self._cache, path).extend(data)
        self._cached_bytes += len(data)
        self._charge_write(len(data))
        self._migrate(path)

    def delete(self, path: str) -> None:
        """Remove the file, and its cache pin with it: whether a pinned
        copy may go is the catalog's to say (its live pins), not the
        cache's."""
        path = normalize_physical(path)
        self.require(path)
        self._pinned.discard(path)
        self._tape.pop(path, None)
        if path in self._cache:
            self._cached_bytes -= len(self._cache.pop(path))
            self._cache_order.remove(path)
        self._charge_op("delete")

    def replace(self, path: str, data: bytes) -> None:
        """Overwrite as :meth:`StorageDriver.replace` does; the file's
        cache pin stays."""
        path = normalize_physical(path)
        pinned = path in self._pinned
        super().replace(path, data)
        if pinned:
            self._pinned.add(path)

    def exists(self, path: str) -> bool:
        path = normalize_physical(path)
        return path in self._cache or path in self._tape

    def size(self, path: str) -> int:
        path = normalize_physical(path)
        self.require(path)
        self._charge_op()
        if path in self._cache:
            return len(self._cache[path])
        return len(self._tape[path])

    def list_dir(self, path: str) -> List[str]:
        prefix = normalize_physical(path)
        if prefix != "/":
            prefix += "/"
        names = set()
        for fpath in set(self._tape) | set(self._cache):
            if fpath.startswith(prefix):
                rest = fpath[len(prefix):]
                if "/" in rest:
                    names.add(rest.split("/", 1)[0] + "/")
                else:
                    names.add(rest)
        self._charge_op()
        return sorted(names)

    def used_bytes(self) -> int:
        return sum(len(b) for b in self._tape.values())
