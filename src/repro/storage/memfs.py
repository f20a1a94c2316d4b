"""In-memory file-system driver.

Models the "Unix File System, NT File System and Mac OSX File System"
class of resources.  Files live in a dict keyed by normalized path;
directories are implicit.  This is the default driver for simulated
deployments (deterministic, no real-disk noise in the virtual-clock
accounting); :mod:`repro.storage.unixfs` provides a real-POSIX-backed
variant for the examples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import AlreadyExists, StorageError, StorageFull
from repro.storage.base import DISK_COST, DeviceCost, StorageDriver, \
    normalize_physical, writable
from repro.util.clock import SimClock


class MemFsDriver(StorageDriver):
    """Dictionary-backed POSIX-flavoured file store."""

    kind = "unixfs"

    def __init__(self, clock: Optional[SimClock] = None,
                 cost: DeviceCost = DISK_COST,
                 capacity_bytes: Optional[int] = None):
        super().__init__(clock=clock, cost=cost)
        # a file is the bytes it was created from until written in place
        self._files: Dict[str, Union[bytes, bytearray]] = {}
        self._used = 0                  # sum of the files' sizes
        self.capacity_bytes = capacity_bytes

    # -- helpers ------------------------------------------------------------

    def _check_capacity(self, delta: int) -> None:
        if self.capacity_bytes is None or delta <= 0:
            return
        if self.used_bytes() + delta > self.capacity_bytes:
            raise StorageFull(
                f"resource full: {self.used_bytes() + delta} > {self.capacity_bytes}")

    # -- StorageDriver ------------------------------------------------------

    def create(self, path: str, data: bytes) -> None:
        path = normalize_physical(path)
        if path in self._files:
            raise AlreadyExists(f"file exists: {path!r}")
        size = len(data)
        self._check_capacity(size)
        self._files[path] = bytes(data)
        self._used += size
        self._charge_write(size, op="create")

    def read(self, path: str, offset: int = 0,
             length: Optional[int] = None) -> bytes:
        path = normalize_physical(path)
        self.require(path)
        buf = self._files[path]
        if offset < 0 or offset > len(buf):
            raise StorageError(f"offset {offset} out of range for {path!r}")
        end = len(buf) if length is None else min(len(buf), offset + length)
        data = bytes(buf[offset:end])
        self._charge_read(len(data))
        return data

    def write(self, path: str, data: bytes, offset: int = 0) -> None:
        path = normalize_physical(path)
        self.require(path)
        buf = self._files[path]
        if offset < 0 or offset > len(buf):
            raise StorageError(f"offset {offset} out of range for {path!r}")
        grow = max(0, offset + len(data) - len(buf))
        self._check_capacity(grow)
        buf = writable(self._files, path)
        if grow:
            buf.extend(b"\x00" * grow)
            self._used += grow
        buf[offset:offset + len(data)] = data
        self._charge_write(len(data))

    def append(self, path: str, data: bytes) -> None:
        path = normalize_physical(path)
        self.require(path)
        self._check_capacity(len(data))
        writable(self._files, path).extend(data)
        self._used += len(data)
        self._charge_write(len(data))

    def delete(self, path: str) -> None:
        path = normalize_physical(path)
        self.require(path)
        self._used -= len(self._files[path])
        del self._files[path]
        self._charge_op("delete")

    def replace(self, path: str, data: bytes) -> None:
        old = self._files.get(normalize_physical(path))
        if old is not None:
            # the size change must fit before the old bytes go
            self._check_capacity(len(data) - len(old))
            self.delete(path)
        self.create(path, data)

    def exists(self, path: str) -> bool:
        return normalize_physical(path) in self._files

    def size(self, path: str) -> int:
        path = normalize_physical(path)
        self.require(path)
        self._charge_op()
        return len(self._files[path])

    def list_dir(self, path: str) -> List[str]:
        prefix = normalize_physical(path)
        if prefix != "/":
            prefix += "/"
        names = set()
        for fpath in self._files:
            if fpath.startswith(prefix):
                rest = fpath[len(prefix):]
                if "/" in rest:
                    names.add(rest.split("/", 1)[0] + "/")
                else:
                    names.add(rest)
        self._charge_op()
        return sorted(names)

    def used_bytes(self) -> int:
        return self._used

    def file_count(self) -> int:
        return len(self._files)
