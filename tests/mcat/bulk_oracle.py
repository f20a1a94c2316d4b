"""The catalog's bulk writes as they stood one row at a time — the oracle
``Mcat.create_objects``, ``add_replicas`` and ``add_metadata_bulk`` are
compared with.

Each function takes the ``Mcat`` it writes to and runs under that
catalog's charge, as the method did: one ``Table.insert`` per row, one
``next_int`` per minted id, every lookup made where the row-by-row code
made it.
"""

from typing import Any, Dict, List, Sequence

from repro.errors import AlreadyExists, MetadataError, NoSuchCollection, \
    SrbError
from repro.mcat.catalog import Mcat, _num
from repro.mcat.schema import OBJECT_KINDS
from repro.util import paths


def create_objects(mcat: Mcat, specs: Sequence[Dict[str, Any]], owner: str,
                   now: float) -> List[Any]:
    with mcat._charge:
        results: List[Any] = []
        for spec in specs:
            try:
                results.append(_create_object_row(mcat, owner=owner, now=now,
                                                  **spec))
            except SrbError as exc:
                results.append(exc)
        return results


def _create_object_row(mcat: Mcat, path: str, kind: str, owner: str,
                       now: float, data_type=None, size=None, target=None,
                       template=None, resource_hint=None,
                       checksum=None) -> int:
    if kind not in OBJECT_KINDS:
        raise MetadataError(f"unknown object kind {kind!r}")
    path = paths.normalize(path)
    coll = paths.dirname(path)
    if not mcat._collection_rid(coll):
        raise NoSuchCollection(f"no collection {coll!r}")
    if mcat._object_rid(path) or mcat._collection_rid(path):
        raise AlreadyExists(f"path {path!r} already in use")
    oid = mcat.ids.next_int("oid")
    mcat._objects.insert({
        "oid": oid, "path": path, "coll": coll,
        "name": paths.basename(path), "kind": kind,
        "data_type": data_type, "owner": owner,
        "created_at": now, "modified_at": now, "size": size,
        "target": target, "template": template,
        "resource_hint": resource_hint,
        "version": 1, "checked_out_by": None,
        "checksum": checksum,
    })
    return oid


def add_replicas(mcat: Mcat, specs: Sequence[Dict[str, Any]],
                 now: float) -> List[int]:
    with mcat._charge:
        return [_add_replica_row(mcat, now=now, **spec) for spec in specs]


def _add_replica_row(mcat: Mcat, oid: int, resource: str, physical_path: str,
                     size: int, now: float, container_oid=None,
                     offset=None) -> int:
    existing = mcat._replica_rows(oid)
    replica_num = 1 + max((r["replica_num"] for r in existing), default=0)
    mcat._replicas.insert({
        "rid": mcat.ids.next_int("rid"), "oid": oid,
        "replica_num": replica_num, "resource": resource,
        "physical_path": physical_path, "size": size,
        "created_at": now, "is_dirty": False,
        "container_oid": container_oid, "offset": offset,
    })
    return replica_num


def add_metadata_bulk(mcat: Mcat, specs: Sequence[Dict[str, Any]], by: str,
                      now: float) -> List[int]:
    with mcat._charge:
        full = [{"target_kind": spec["target_kind"],
                 "target_id": spec["target_id"],
                 "attr": spec["attr"], "value": spec["value"],
                 "units": spec.get("units"),
                 "meta_class": spec.get("meta_class", "user"),
                 "schema_name": spec.get("schema_name")} for spec in specs]
        for spec in full:
            mcat._check_metadata_spec(spec["target_kind"], spec["attr"],
                                      spec["value"], spec["meta_class"],
                                      spec["schema_name"])
        mids = []
        for spec in full:
            mid = mcat.ids.next_int("mid")
            mcat._metadata.insert({
                "mid": mid, "target_kind": spec["target_kind"],
                "target_id": spec["target_id"],
                "meta_class": spec["meta_class"],
                "schema_name": spec["schema_name"], "attr": spec["attr"],
                "value": spec["value"], "value_num": _num(spec["value"]),
                "units": spec["units"], "created_by": by, "created_at": now,
            })
            mids.append(mid)
        return mids
