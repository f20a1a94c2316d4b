"""Catalog export / import.

The persistent-archive capability is about surviving technology
migration — and the catalog itself is technology that gets migrated
(the paper's MCAT lived on Oracle; its successors moved databases more
than once).  A dump is a catalog's snapshot, serialised as one plain-JSON
object: the format version, the zone, the id-counter state, each table's
column names, and one :meth:`repro.db.Database.snapshot` per partition,
in shard order — every table's rows by row id, tombstones included.
Boring formats are what survive decades.

:func:`import_catalog` restores a K-partition dump into a K-partition
:class:`~repro.mcat.shard.ShardedMcat` with no replica: each partition's
primary takes its snapshot (:meth:`repro.db.Database.restore`, which
rebuilds the indexes and refuses a row its table could not hold).  It
inserts no row, so the restored catalog holds the original's rows at the
original's row ids, answers and charges every read as the original
does, and its id counters continue where the original's stopped.  A dump
is taken at rest: it carries no write-log position.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import MetadataError
from repro.mcat.catalog import Mcat
from repro.mcat.shard import ShardedMcat
from repro.util.clock import SimClock

DUMP_FORMAT_VERSION = 2

#: id-counter prefixes MCAT mints (kept so restored catalogs keep counting)
_ID_PREFIXES = ("cid", "oid", "rid", "mid", "smid", "aid", "aclid", "auid",
                "lid", "pid", "vid")


def _columns(mcat: Mcat) -> Dict[str, List[str]]:
    db = mcat.db
    return {name: db.table(name).column_names() for name in db.tables()}


def export_catalog(*partitions: Mcat) -> str:
    """Serialize a catalog — its partitions' primaries, in shard order —
    to a JSON string."""
    first = partitions[0]       # zone and id factory are shared
    return json.dumps({
        "format": DUMP_FORMAT_VERSION,
        "zone": first.zone,
        "id_counters": {p: first.ids.peek(p) for p in _ID_PREFIXES},
        "columns": _columns(first),
        "partitions": [mcat.db.snapshot() for mcat in partitions],
    }, indent=1, sort_keys=True)


def import_catalog(dump: str, clock: Optional[SimClock] = None
                   ) -> ShardedMcat:
    """Restore the catalog a dump of :func:`export_catalog` holds.

    A dump that is not JSON, has another format version or other
    columns than this schema's, or holds a row its table could not hold
    (wrong width, a value its column refuses, a repeated key) is refused
    before any catalog is returned."""
    try:
        doc = json.loads(dump)
    except json.JSONDecodeError as exc:
        raise MetadataError(f"catalog dump is not valid JSON: {exc}") from exc
    version = doc.get("format") if isinstance(doc, dict) else None
    if version != DUMP_FORMAT_VERSION:
        raise MetadataError(f"unsupported dump format {version!r}; "
                            f"this build reads version {DUMP_FORMAT_VERSION}")
    catalog = ShardedMcat(zone=doc["zone"], clock=clock,
                          shards=len(doc["partitions"]))
    if doc["columns"] != _columns(catalog.shards[0].primary):
        raise MetadataError("catalog dump's columns are not this schema's")
    for shard, snapshot in zip(catalog.shards, doc["partitions"]):
        shard.primary.db.restore(snapshot)
    if len(catalog.shards) > 1:
        catalog._locate_ids()       # the restored rows passed no observer
    for prefix, value in doc["id_counters"].items():
        catalog.ids.next_ints(prefix, max(0, value - catalog.ids.peek(prefix)))
    return catalog
