"""MCAT relational schema.

The Metadata Catalog [MCAT, 2000] runs on a relational database; we
define its tables on :class:`repro.db.Database`.  Indexes mirror what a
production MCAT must have (path lookups, attribute-name lookups) — the
E4 benchmark's "no index" ablation drops the attribute indexes to show
why they matter at millions of datasets.

The attribute indexes on ``metadata`` are the ones the query planner
(:mod:`repro.mcat.query`) probes: a hash index over the pair
:data:`TARGET_INDEX` ``(target_id, attr)`` (one object's triples, or
only its triples of the attributes a query names), a hash index on
``attr`` (every triple of one attribute, and the distinct attribute
names), and two sorted indexes
over a pair of columns, :data:`NUM_INDEX` ``(attr, value_num)`` and
:data:`TEXT_INDEX` ``(attr, value)``, in which one attribute's values are
one ordered run — so ``JMAG < 6`` is one range probe, and how many rows
it would return is two bisects.

Object kinds (``objects.kind``) cover everything MySRB can put in a
collection:

``data``        file fully managed by SRB (bytes on SRB resources)
``registered``  file registered in place (pointer only; size may drift)
``shadow-dir``  registered directory exposing its cone of files read-only
``sql``         registered SQL query, executed at retrieval
``url``         registered URL, fetched at retrieval
``method``      proxy command / proxy function (virtual data)
``link``        soft link to another object (no chains)
``container``   physical aggregation of small objects
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Optional, Tuple

from repro.db import Column, Database

OBJECT_KINDS = ("data", "registered", "shadow-dir", "sql", "url",
                "method", "link", "container")

#: ACL permission ladder, weakest to strongest.  Each level implies the
#: ones before it.  "annotate" sits between read and write: the paper lets
#: any user with read permission add annotations, and MySRB's role matrix
#: distinguishes annotators from contributors.
PERMISSIONS = ("read", "annotate", "write", "own")

#: canonical order of one object's replica rows (a row order, not a
#: placement choice: which replica to use is ``repro.policy``'s)
REPLICA_ORDER = itemgetter("replica_num")

#: the two sorted pair indexes on ``metadata``: an attribute's numeric
#: values in numeric order, and all its values in text order
NUM_INDEX = ("attr", "value_num")
TEXT_INDEX = ("attr", "value")
#: the hash index over a pair on ``metadata``: a target's triples, by
#: attribute
TARGET_INDEX = ("target_id", "attr")


def numeric(value: Any) -> Optional[float]:
    """The numeric mirror of a metadata value (``value_num``): the number
    ``float`` reads in it, or None for NULL and for a value it cannot
    read.  A query's value is read by the same rule."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def subtree_path_range(coll: str,
                       cursor: Optional[str] = None) -> Tuple[str, str]:
    """The objects under ``coll``, at any depth, as an open range of the
    sorted ``objects.path`` index: exactly the paths between ``coll + "/"``
    and ``coll + "0"`` ("0" is the character after "/").  A keyset
    ``cursor`` (the last path already delivered) replaces the lower end."""
    prefix = coll.rstrip("/") + "/"
    return (cursor if cursor is not None else prefix), prefix[:-1] + "0"


def build_schema(db: Database) -> None:
    """Create all MCAT tables and their production indexes."""

    objects = db.create_table("objects", [
        Column("oid", "INT", nullable=False),
        Column("path", "TEXT", nullable=False),        # logical path
        Column("coll", "TEXT", nullable=False),        # parent collection path
        Column("name", "TEXT", nullable=False),
        Column("kind", "TEXT", nullable=False),
        Column("data_type", "TEXT"),                   # e.g. "fits image"
        Column("owner", "TEXT", nullable=False),
        Column("created_at", "FLOAT", nullable=False),
        Column("modified_at", "FLOAT", nullable=False),
        Column("size", "INT"),                         # logical size (best known)
        Column("target", "TEXT"),                      # url / sql text / method spec /
                                                       # link target path / shadow root
        Column("template", "TEXT"),                    # pretty-print template for sql
        Column("resource_hint", "TEXT"),               # registered resource (registered kinds)
        Column("version", "INT", nullable=False),
        Column("checked_out_by", "TEXT"),
        Column("checksum", "TEXT"),                    # sha256 of the bytes
    ], primary_key="oid")
    # path carries a sorted index too: logical paths are the stable
    # ordering key of every listing/query result, and keyset pagination
    # seeks pages of a subtree as the lexicographic range
    # (coll + "/", coll + "0") — O(page) per fetch, not O(subtree)
    objects.create_index("path", unique=False, sorted_index=True)
    objects.create_index("coll")

    replicas = db.create_table("replicas", [
        Column("rid", "INT", nullable=False),
        Column("oid", "INT", nullable=False),
        Column("replica_num", "INT", nullable=False),
        Column("resource", "TEXT", nullable=False),
        Column("physical_path", "TEXT", nullable=False),
        Column("size", "INT", nullable=False),
        Column("created_at", "FLOAT", nullable=False),
        Column("is_dirty", "BOOL", nullable=False),    # out of sync with siblings
        Column("container_oid", "INT"),                # member bytes live in container
        Column("offset", "INT"),                       # ... at this offset
    ], primary_key="rid")
    replicas.create_index("oid")
    replicas.create_index("container_oid")

    collections = db.create_table("collections", [
        Column("cid", "INT", nullable=False),
        Column("path", "TEXT", nullable=False),
        Column("parent", "TEXT"),                      # NULL for the root "/"
        Column("owner", "TEXT", nullable=False),
        Column("created_at", "FLOAT", nullable=False),
    ], primary_key="cid")
    collections.create_index("path", unique=True)
    collections.create_index("parent")

    metadata = db.create_table("metadata", [
        Column("mid", "INT", nullable=False),
        Column("target_kind", "TEXT", nullable=False),  # 'object' | 'collection'
        Column("target_id", "INT", nullable=False),
        Column("meta_class", "TEXT", nullable=False),   # user | type | file-based
        Column("schema_name", "TEXT"),                  # e.g. 'dublin-core'
        Column("attr", "TEXT", nullable=False),
        Column("value", "TEXT"),
        Column("value_num", "FLOAT"),                   # numeric mirror for ranges
        Column("units", "TEXT"),
        Column("created_by", "TEXT", nullable=False),
        Column("created_at", "FLOAT", nullable=False),
    ], primary_key="mid")
    _create_attribute_indexes(metadata)

    structural = db.create_table("structural_meta", [
        Column("smid", "INT", nullable=False),
        Column("coll_path", "TEXT", nullable=False),
        Column("attr", "TEXT", nullable=False),
        Column("default_value", "TEXT"),
        Column("vocabulary", "TEXT"),                   # '|'-joined reserved keywords
        Column("mandatory", "BOOL", nullable=False),
        Column("comment", "TEXT"),
    ], primary_key="smid")
    structural.create_index("coll_path")

    annotations = db.create_table("annotations", [
        Column("aid", "INT", nullable=False),
        Column("target_kind", "TEXT", nullable=False),
        Column("target_id", "INT", nullable=False),
        Column("ann_type", "TEXT", nullable=False),     # comment|rating|errata|dialogue|annotation
        Column("location", "TEXT"),                     # where in the object it applies
        Column("author", "TEXT", nullable=False),
        Column("created_at", "FLOAT", nullable=False),
        Column("text", "TEXT", nullable=False),
    ], primary_key="aid")
    annotations.create_index("target_id")

    acls = db.create_table("acls", [
        Column("aclid", "INT", nullable=False),
        Column("target_kind", "TEXT", nullable=False),
        Column("target_id", "INT", nullable=False),
        Column("principal", "TEXT", nullable=False),    # user@domain or group:name or '*'
        Column("permission", "TEXT", nullable=False),
    ], primary_key="aclid")
    acls.create_index("target_id")

    audit = db.create_table("audit", [
        Column("auid", "INT", nullable=False),
        Column("at", "FLOAT", nullable=False),
        Column("principal", "TEXT", nullable=False),
        Column("action", "TEXT", nullable=False),
        Column("target", "TEXT", nullable=False),
        Column("detail", "TEXT"),
        Column("ok", "BOOL", nullable=False),
    ], primary_key="auid")
    audit.create_index("principal")
    audit.create_index("action")

    locks = db.create_table("locks", [
        Column("lid", "INT", nullable=False),
        Column("oid", "INT", nullable=False),
        Column("lock_type", "TEXT", nullable=False),    # shared | exclusive
        Column("holder", "TEXT", nullable=False),
        Column("expires_at", "FLOAT", nullable=False),
    ], primary_key="lid")
    locks.create_index("oid")

    pins = db.create_table("pins", [
        Column("pid", "INT", nullable=False),
        Column("oid", "INT", nullable=False),
        Column("resource", "TEXT", nullable=False),
        Column("holder", "TEXT", nullable=False),
        Column("expires_at", "FLOAT", nullable=False),
    ], primary_key="pid")
    pins.create_index("oid")

    versions = db.create_table("versions", [
        Column("vid", "INT", nullable=False),
        Column("oid", "INT", nullable=False),
        Column("version_num", "INT", nullable=False),
        Column("resource", "TEXT", nullable=False),
        Column("physical_path", "TEXT", nullable=False),
        Column("size", "INT", nullable=False),
        Column("created_at", "FLOAT", nullable=False),
        Column("author", "TEXT", nullable=False),
    ], primary_key="vid")
    versions.create_index("oid")


def _create_attribute_indexes(metadata) -> None:
    metadata.create_index(TARGET_INDEX)
    metadata.create_index("attr")
    metadata.create_sorted_index(*NUM_INDEX)
    metadata.create_sorted_index(*TEXT_INDEX)


def drop_attribute_indexes(db: Database) -> None:
    """E4 ablation: force attribute queries onto full scans (drops
    ``attr`` and the three pair indexes)."""
    md = db.table("metadata")
    for key in (TARGET_INDEX, "attr", NUM_INDEX, TEXT_INDEX):
        md.drop_index(key)


def restore_attribute_indexes(db: Database) -> None:
    """Rebuild the attribute indexes dropped for the E4 ablation."""
    _create_attribute_indexes(db.table("metadata"))
