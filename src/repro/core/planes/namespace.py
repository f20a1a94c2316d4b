"""Namespace plane: the logical collection hierarchy.

Browse ops (``list_collection_page``/``stat``) are forwardable reads; the
structure mutations (``mkcoll``/``rmcoll``/``move``/``link``) are writes
and uniformly refuse foreign-zone paths at the zone stage."""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Any, Dict, List, Optional

from repro.auth.users import Principal
from repro.core.dispatch import OpContext, rpc_op
from repro.core.planes.base import PlaneService
from repro.errors import (
    InvalidPath,
    LinkChainError,
    NoSuchCollection,
    NoSuchObject,
)
from repro.util import paths

#: an object row's columns a listing entry shows, picked with no call
_LISTED = ("path", "name", "kind", "data_type", "owner", "size", "version",
           "modified_at")
_pick_listed = itemgetter(*_LISTED)


class NamespaceService(PlaneService):
    """Collections: create, remove, browse, stat, move, link."""

    plane = "namespace"

    @rpc_op("mkcoll", scope_arg="path", write=True, audit="mkcoll",
            need="write", target="parent")
    def mkcoll(self, ctx: OpContext, path: str) -> int:
        return self.mcat.create_collection(path, str(ctx.principal),
                                           now=self.now)

    @rpc_op("rmcoll", scope_arg="path", write=True, audit="rmcoll",
            need="own", target="collection")
    def rmcoll(self, ctx: OpContext, path: str) -> None:
        self.mcat.remove_collection(path)

    def _listed(self, principal: Principal,
                rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """The listing entries of the object ``rows`` that ``principal``
        may read."""
        readable = self.access.can_objects(principal, rows, "read")
        return [dict(zip(_LISTED, _pick_listed(obj)))
                for obj in compress(rows, readable)]

    @rpc_op("list_collection_page", scope_arg="path", forwardable=True)
    def list_collection_page(self, ctx: OpContext, path: str,
                             limit: int = 100,
                             cursor: Optional[str] = None) -> Dict[str, Any]:
        """One keyset page of the collections + objects directly under
        ``path`` (the browse view).

        Returns ``{"collections", "objects", "next_cursor"}``.  The
        cursor is phase-prefixed: ``"c:<path>"`` while sub-collections
        are being delivered, ``"o:<path>"`` while objects are (``"o:"``
        alone starts the object phase) — collections always precede
        objects, each phase in path order.  Object pages seek the sorted
        path index, so a page is charged O(page) catalog rows.  If
        ``path`` falls inside a registered shadow directory, the listing
        comes from the underlying physical directory instead: it has no
        catalog cursor and is served whole as a single final page.
        """
        principal = ctx.principal
        path = paths.normalize(path)
        page_limit = max(1, int(limit))
        row = self.mcat.lookup(path)
        if row is None or "oid" in row:
            shadow = row if row is not None and \
                row["kind"] == "shadow-dir" else self._find_shadow(path)
            if shadow is None:
                raise NoSuchCollection(f"no collection {path!r}")
            return self._list_shadow(principal, shadow, path)
        self.access.require_entry(principal, row, "read")

        colls: list = []
        next_cursor = None
        obj_cursor: Optional[str] = None
        room = page_limit
        if cursor is None or cursor.startswith("c:"):
            children = [c["path"] for c in self.mcat.child_collections(path)]
            if cursor is not None:
                last = cursor[2:]
                children = [c for c in children if c > last]
            colls = children[:page_limit]
            if len(children) > page_limit:
                return {"collections": colls, "objects": [],
                        "next_cursor": "c:" + colls[-1]}
            room = page_limit - len(colls)
            if room == 0:
                return {"collections": colls, "objects": [],
                        "next_cursor": "o:"}
        else:
            if not cursor.startswith("o:"):
                raise InvalidPath(f"bad listing cursor {cursor!r}")
            obj_cursor = cursor[2:] or None

        rows, nc = self.mcat.objects_in_collection_page(
            path, cursor=obj_cursor, limit=room, recursive=False)
        next_cursor = ("o:" + nc) if nc is not None else None
        return {"collections": colls,
                "objects": self._listed(principal, rows),
                "next_cursor": next_cursor}

    def _list_shadow(self, principal: Principal, shadow: Dict[str, Any],
                     path: str) -> Dict[str, Any]:
        res, physical = self._shadow_open(principal, shadow, path)
        entries = res.driver.list_dir(physical)
        colls = [paths.join(path, e[:-1]) for e in entries if e.endswith("/")]
        objs = [{"path": paths.join(path, e), "name": e, "kind": "shadow-file",
                 "data_type": None, "owner": shadow["owner"], "size": None,
                 "version": 1, "modified_at": None}
                for e in entries if not e.endswith("/")]
        return {"collections": colls, "objects": objs, "next_cursor": None}

    @rpc_op("stat", scope_arg="path", forwardable=True, need="read",
            target="entry")
    def stat(self, ctx: OpContext, path: str) -> Dict[str, Any]:
        """System metadata + replica list for an object, or collection info.

        A container also answers its ``members`` — ``path``, ``name``,
        ``offset``, ``size`` of each member the caller may read, in
        offset order."""
        kind, tid, row = ctx.target
        if kind == "collection":
            return {**row, "replicas": []}
        out = dict(row)
        out["replicas"] = self.mcat.replicas(tid)
        if row["kind"] == "container":
            out["members"] = self._readable_members(ctx.principal, tid)
        return out

    def _readable_members(self, principal: Principal,
                          container_oid: int) -> List[Dict[str, Any]]:
        """Where each member ``principal`` may read lies in the container."""
        slices = self.containers.members(container_oid)
        objs = self.mcat.get_objects_by_ids([int(s["oid"]) for s in slices])
        readable = self.access.can_objects(principal, objs, "read")
        by_oid = {obj["oid"]: obj for obj in compress(objs, readable)}
        return [{"path": by_oid[s["oid"]]["path"],
                 "name": by_oid[s["oid"]]["name"],
                 "offset": s["offset"], "size": s["size"]}
                for s in slices if s["oid"] in by_oid]

    @rpc_op("move", scope_arg="src", write=True, audit="move",
            detail_arg="dst")
    def move(self, ctx: OpContext, src: str, dst: str) -> None:
        """Logical move of a file or sub-collection: "the user-defined
        metadata remains unchanged"."""
        principal = ctx.principal
        src = paths.normalize(src)
        dst = paths.normalize(dst)
        ctx.audit(target=src, detail=dst)
        row = self.mcat.lookup(src)
        if row is None:
            raise NoSuchObject(f"no object {src!r}")
        self.access.require_entry(principal, row, "own")
        self.access.require_collection(principal, paths.dirname(dst), "write")
        if "oid" in row:
            self.locks.check_write(row, principal)
            self.mcat.move_object(int(row["oid"]), dst)
            return
        # the catalog refuses a taken destination (src itself included)
        if paths.is_ancestor(src, dst) and self.mcat.lookup(dst) is None:
            raise InvalidPath(f"cannot move {src!r} into itself")
        self.mcat.rename_subtree(src, dst)

    @rpc_op("link", scope_arg="link_path", write=True, audit="link")
    def link(self, ctx: OpContext, target: str, link_path: str) -> int:
        """Soft-link an object or collection into another collection.

        "Chaining of links is not allowed.  An attempt to link to another
        link object will result in a direct link to the parent object."
        Replica-style duplicate links to the same parent are allowed
        ("one can have more than one link to the same data").
        """
        principal = ctx.principal
        target = paths.normalize(target)
        link_path = paths.normalize(link_path)
        self.access.require_collection(principal, paths.dirname(link_path),
                                       "write")
        row = self.mcat.lookup(target)
        if row is not None and row.get("kind") == "link":
            target = str(row["target"])            # collapse the chain
            row = self.mcat.find_object(target)
            if row is None:
                raise LinkChainError(
                    f"link target {target!r} no longer exists")
        if row is None:
            raise NoSuchObject(f"link target {target!r} does not exist")
        self.access.require_entry(principal, row, "read")
        ctx.audit(target=link_path, detail=target)
        return self.mcat.create_object(
            link_path, kind="link", owner=str(principal), now=self.now,
            target=target)
