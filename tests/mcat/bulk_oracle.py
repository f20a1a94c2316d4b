"""The catalog's writes as they stood one row at a time — the oracle
``Mcat.create_objects``, ``add_replicas`` and ``add_metadata_bulk`` are
compared with, and the row writers ``create_object``, ``add_replica`` and
``add_metadata`` had before each became its table's bulk writer run on
one item.

Each function takes the ``Mcat`` it writes to and runs under that
catalog's charge, as the method did: one ``Table.insert`` per row, one
``next_int`` per minted id, every lookup made where the row-by-row code
made it.  The three row writers are their method bodies verbatim.
"""

from typing import Any, Dict, List, Optional, Sequence

from repro.errors import AlreadyExists, MetadataError, NoSuchCollection, \
    SrbError
from repro.mcat.catalog import _META_CLASSES, _TARGET_KINDS, Mcat, \
    _refuse_non_text
from repro.mcat.schema import OBJECT_KINDS, numeric
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
            _check_metadata_spec(mcat, spec["target_kind"], spec["attr"],
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
                "value": spec["value"], "value_num": numeric(spec["value"]),
                "units": spec["units"], "created_by": by, "created_at": now,
            })
            mids.append(mid)
        return mids


# -- the row writers, one charged block, id and insert each -----------------

def create_object(self: Mcat, path: str, kind: str, owner: str, now: float,
                  data_type: Optional[str] = None,
                  size: Optional[int] = None,
                  target: Optional[str] = None,
                  template: Optional[str] = None,
                  resource_hint: Optional[str] = None,
                  checksum: Optional[str] = None) -> int:
    """Register a new object row; the collection must exist."""
    with self._charge:
        values = self._object_values(
            (), path, kind, owner, now, data_type=data_type, size=size,
            target=target, template=template,
            resource_hint=resource_hint, checksum=checksum)
        oid = values["oid"] = self.ids.next_int("oid")
        self._objects.insert(values)
        return oid


def add_replica(self: Mcat, oid: int, resource: str, physical_path: str,
                size: int, now: float,
                container_oid: Optional[int] = None,
                offset: Optional[int] = None) -> int:
    with self._charge:
        existing = self._replica_rows(oid)
        replica_num = 1 + max((r["replica_num"] for r in existing),
                              default=0)
        self._replicas.insert({
            "rid": self.ids.next_int("rid"), "oid": oid,
            "replica_num": replica_num, "resource": resource,
            "physical_path": physical_path, "size": size,
            "created_at": now, "is_dirty": False,
            "container_oid": container_oid, "offset": offset,
        })
        return replica_num


def _check_metadata_spec(self: Mcat, target_kind: str, attr: str,
                         value: Optional[str], meta_class: str,
                         schema_name: Optional[str]) -> None:
    if target_kind not in _TARGET_KINDS:
        raise MetadataError(f"bad metadata target kind {target_kind!r}")
    if meta_class not in _META_CLASSES:
        raise MetadataError(f"bad metadata class {meta_class!r}")
    if not attr:
        raise MetadataError("metadata attribute name may not be empty")
    if type(attr) is not str or (type(value) is not str
                                 and value is not None):
        _refuse_non_text(attr, value)
    if meta_class == "type":
        schema = self.schemas.get(schema_name or "")
        element = schema.element(attr)
        if value is not None:
            element.check(value)


def add_metadata(self: Mcat, target_kind: str, target_id: int, attr: str,
                 value: Optional[str], by: str, now: float,
                 units: Optional[str] = None,
                 meta_class: str = "user",
                 schema_name: Optional[str] = None) -> int:
    with self._charge:
        _check_metadata_spec(self, target_kind, attr, value, meta_class,
                             schema_name)
        mid = self.ids.next_int("mid")
        self._metadata.insert({
            "mid": mid, "target_kind": target_kind,
            "target_id": target_id, "meta_class": meta_class,
            "schema_name": schema_name, "attr": attr, "value": value,
            "value_num": numeric(value), "units": units,
            "created_by": by, "created_at": now,
        })
        return mid
