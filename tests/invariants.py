"""A judge of a grid's state: what should hold between the catalog, the
bytes on every driver and the servers, as a list of typed findings.

``check_invariants(fed)`` walks the catalog's tables and every physical
resource's files as they are held, not through the grid's own calls, so
judging charges nothing — no virtual second, no catalog op, no storage
metric, no tape stage — and a test may call it after every op.  It
finds:

* ``missing-bytes`` — a replica row of a data object or a container
  whose file is not on its resource's driver;
* ``member-outside-container`` — a container member's replica row whose
  slice does not lie inside the container file;
* ``orphan-file`` — a file under ``/srb/`` or ``/containers/`` on a
  driver that no replica or version row names;
* ``checksum-mismatch`` — a clean replica (or member slice) whose sha256
  is not the object's ``checksum``;
* ``station-in-flight`` — a host's ``ServiceStation`` with a worker
  still checked out;
* ``replica-diverged`` — a catalog read replica that has applied past
  its shard's write-log end, or one caught up to that end whose tables
  are not its primary's.

An empty list is a clean grid.  A finding that a design accepts (an
unreachable member keeps the bytes a rolled-back write left there) is
asserted as that finding where it is expected, not filtered out here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Set, Tuple

from repro.storage.archive import ArchiveDriver
from repro.storage.base import normalize_physical
from repro.storage.database import DatabaseResourceDriver
from repro.storage.memfs import MemFsDriver

#: the driver prefixes the servers write managed files under: objects'
#: bytes, and containers'
MANAGED = ("/srb/", "/containers/")


@dataclass(frozen=True, order=True)
class Finding:
    kind: str
    resource: str
    path: str
    detail: str


def check_invariants(fed) -> List[Finding]:
    """Every invariant ``fed`` breaks, sorted."""
    files = {name: held_files(fed.resources.physical(name).driver)
             for name in fed.resources.physical_names()}
    objects = {row["oid"]: row for row in _rows(fed, "objects")}
    owned: Set[Tuple[str, str]] = set()
    found: List[Finding] = []
    for rep in _rows(fed, "replicas"):
        obj = objects.get(rep["oid"])
        if rep["resource"] not in files or obj is None:
            continue
        res, path = rep["resource"], normalize_physical(rep["physical_path"])
        owned.add((res, path))
        if obj["kind"] not in ("data", "container"):
            continue        # registered kinds point at bytes nobody manages
        data = files[res].get(path)
        if data is None:
            found.append(Finding("missing-bytes", res, path,
                                 f"replica {rep['replica_num']} of "
                                 f"{obj['path']}"))
            continue
        if rep["container_oid"] is not None:
            start, size = int(rep["offset"]), int(rep["size"])
            if start < 0 or start + size > len(data):
                found.append(Finding(
                    "member-outside-container", res, path,
                    f"{obj['path']} [{start}, {start + size}) of "
                    f"{len(data)} bytes"))
                continue
            data = data[start:start + size]
        if not rep["is_dirty"] and obj["checksum"] is not None \
                and hashlib.sha256(data).hexdigest() != obj["checksum"]:
            found.append(Finding("checksum-mismatch", res, path,
                                 f"replica {rep['replica_num']} of "
                                 f"{obj['path']}"))
    for version in _rows(fed, "versions"):
        owned.add((version["resource"],
                   normalize_physical(version["physical_path"])))
    for res, held in files.items():
        for path in held:
            if path.startswith(MANAGED) and (res, path) not in owned:
                found.append(Finding("orphan-file", res, path,
                                     f"{len(held[path])} bytes, no row"))
    for host in fed.network.hosts():
        station = host.station
        if station is not None and len(station._free) < station.workers:
            found.append(Finding(
                "station-in-flight", host.name, "",
                f"{station.workers - len(station._free)} of "
                f"{station.workers} workers checked out"))
    found.extend(_diverged_replicas(fed))
    return sorted(found)


def _diverged_replicas(fed) -> Iterator[Finding]:
    """Each catalog replica past its shard's log end, or caught up to it
    with tables that differ from the primary's (compared as held)."""
    for shard in fed.mcat.shards:
        end = shard.log_end()
        for r, rep in enumerate(shard.replicas):
            where = f"shard {shard.index} replica {r}"
            if rep.applied > end:
                yield Finding("replica-diverged", where, "",
                              f"applied {rep.applied} of {end} log entries")
            elif rep.applied == end:
                for name in shard.primary.db.tables():
                    if rep.catalog.db.table(name)._rows \
                            != shard.primary.db.table(name)._rows:
                        yield Finding("replica-diverged", where, name,
                                      "caught up, and not its primary's")


def _rows(fed, table: str) -> Iterator[Dict[str, Any]]:
    """Every live row of ``table`` on every catalog partition, read from
    the heap: an uncharged copy, not a query."""
    for shard in fed.mcat.shards:
        tab = shard.primary.db.table(table)
        names = tab.column_names()
        for row in tab.snapshot_rows():
            if row is not None:
                yield dict(zip(names, row))


def held_files(driver) -> Dict[str, bytes]:
    """``{path: contents}`` of every file ``driver`` holds, as it holds
    them, not copied (an archive file's cache copy when it has one, else
    its tape copy).  Read them; do not change them."""
    if isinstance(driver, ArchiveDriver):
        return {**driver._tape, **driver._cache}
    if isinstance(driver, MemFsDriver):
        return dict(driver._files)
    if isinstance(driver, DatabaseResourceDriver):
        return dict(row[:2] for row in driver._lobs.snapshot_rows()
                    if row is not None)
    raise TypeError(f"no uncharged view of a {type(driver).__name__}")
