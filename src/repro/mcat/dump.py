"""Catalog export / import.

The persistent-archive capability is about surviving technology
migration — and the catalog itself is technology that gets migrated
(the paper's MCAT lived on Oracle; its successors moved databases more
than once).  This module serializes an entire MCAT to a plain-JSON
document and rebuilds an equivalent catalog from one, preserving every
table row and the id counters, so a restored catalog keeps numbering
where the original left off.

The dump format is deliberately boring: one JSON object with a format
version, the zone name, the id-counter state, and a rows-per-table map.
Boring formats are what survive decades.

Indexes are not part of a dump: :func:`import_catalog` inserts the rows
into a freshly built schema, which maintains its own — on ``metadata``
the ``target_id`` and ``attr`` hash indexes and the sorted
``(attr, value_num)`` / ``(attr, value)`` pair indexes the query planner
probes — so a restored catalog answers queries from the same plans.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.errors import MetadataError
from repro.mcat.catalog import Mcat
from repro.util.clock import SimClock
from repro.util.ids import IdFactory

DUMP_FORMAT_VERSION = 1

#: tables included in a dump, in an order that satisfies references
_TABLES = ("collections", "objects", "replicas", "metadata",
           "structural_meta", "annotations", "acls", "audit", "locks",
           "pins", "versions")

#: id-counter prefixes MCAT mints (kept so restored catalogs keep counting)
_ID_PREFIXES = ("cid", "oid", "rid", "mid", "smid", "aid", "aclid", "auid",
                "lid", "pid", "vid")


def export_catalog(*partitions: Mcat) -> str:
    """Serialize a catalog — its partitions' stores, primaries in shard
    order — to a JSON string.

    However many partitions, the export is one merged document: rows
    from every one, with the per-partition copies of the root
    collections deduplicated (the first's copy is canonical) — so a
    dump taken from a sharded deployment imports into one store and
    vice versa.
    """
    first = partitions[0]       # zone and id factory are shared
    doc: Dict[str, Any] = {
        "format": DUMP_FORMAT_VERSION,
        "zone": first.zone,
        "id_counters": {p: first.ids.peek(p) for p in _ID_PREFIXES},
        "tables": {},
    }
    for name in _TABLES:
        rows = []
        seen_paths = set()
        for mcat in partitions:
            for row in mcat.db.table(name).all_rows():
                if name == "collections":
                    if row["path"] in seen_paths:
                        continue
                    seen_paths.add(row["path"])
                rows.append(row)
        doc["tables"][name] = rows
    return json.dumps(doc, indent=1, sort_keys=True)


def import_catalog(dump: str, clock: Optional[SimClock] = None) -> Mcat:
    """Rebuild an MCAT from a dump produced by :func:`export_catalog`."""
    try:
        doc = json.loads(dump)
    except json.JSONDecodeError as exc:
        raise MetadataError(f"catalog dump is not valid JSON: {exc}") from exc
    if doc.get("format") != DUMP_FORMAT_VERSION:
        raise MetadataError(
            f"unsupported dump format {doc.get('format')!r}; "
            f"this build reads version {DUMP_FORMAT_VERSION}")
    zone = doc["zone"]
    ids = IdFactory()
    mcat = Mcat(zone=zone, clock=clock, ids=ids)

    # the constructor pre-creates "/" and "/<zone>"; drop them so the dump
    # is authoritative (it contains both)
    colls = mcat.db.table("collections")
    for rid in list(colls.scan()):
        colls.delete_row(rid)

    for name in _TABLES:
        table = mcat.db.table(name)
        for row in doc["tables"].get(name, []):
            table.insert(row)

    # restore counters by advancing each prefix to the dumped value
    for prefix, value in doc["id_counters"].items():
        while ids.peek(prefix) < int(value):
            ids.next_int(prefix)
    return mcat


def migrate_catalog(mcat: Mcat, clock: Optional[SimClock] = None) -> Mcat:
    """One-call catalog technology refresh: export + import.

    Returns a brand-new, independent MCAT holding identical content —
    what a site does when it moves its catalog to a new database server.
    """
    return import_catalog(export_catalog(mcat), clock=clock)
