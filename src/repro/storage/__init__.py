"""Heterogeneous storage: drivers, resources, external web space."""

from repro.storage.base import (
    ARCHIVE_DISK_CACHE_COST,
    DATABASE_COST,
    DISK_COST,
    NT_DISK_COST,
    DeviceCost,
    StorageDriver,
    normalize_physical,
)
from repro.storage.memfs import MemFsDriver
from repro.storage.archive import ArchiveDriver, TapeCost
from repro.storage.database import DatabaseResourceDriver
from repro.storage.web import WebSpace
from repro.storage.resource import LogicalResource, PhysicalResource, ResourceRegistry

__all__ = [
    "StorageDriver", "DeviceCost", "normalize_physical",
    "DISK_COST", "NT_DISK_COST", "ARCHIVE_DISK_CACHE_COST", "DATABASE_COST",
    "MemFsDriver", "ArchiveDriver", "TapeCost",
    "DatabaseResourceDriver", "WebSpace",
    "PhysicalResource", "LogicalResource", "ResourceRegistry",
]
