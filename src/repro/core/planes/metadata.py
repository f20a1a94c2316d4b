"""Metadata plane: triples, annotations, query, ACLs and the audit trail.

The MCAT-facing half of the server: everything here is catalog reads and
writes — attribute triples (four ingestion methods), structural metadata
declared by collection curators, annotations, the attribute query
engine, and access-control administration."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.dispatch import OpContext, rpc_op
from repro.core.planes.base import PlaneService, link_view
from repro.errors import AccessDenied, MetadataError
from repro.mcat.query import Condition, DisplayOnly, QueryResult
from repro.util import paths


class MetadataService(PlaneService):
    """Metadata triples, annotations, queries, grants and audit reads."""

    plane = "metadata"

    # ------------------------------------------------------------------
    # metadata triples
    # ------------------------------------------------------------------

    @rpc_op("add_metadata", scope_arg="path", write=True,
            audit="add-metadata", detail_arg="attr", need="own",
            target="entry")
    def add_metadata(self, ctx: OpContext, path: str, attr: str,
                     value: Optional[str], units: Optional[str] = None,
                     meta_class: str = "user",
                     schema_name: Optional[str] = None) -> int:
        """Attach one metadata triple.  "User-defined metadata and
        type-oriented metadata can be ingested only by users who have
        'ownership' permission" — the op's declared need."""
        kind, tid, _obj = ctx.target
        return self.mcat.add_metadata(kind, tid, attr, value,
                                      by=str(ctx.principal), now=self.now,
                                      units=units, meta_class=meta_class,
                                      schema_name=schema_name)

    @rpc_op("get_metadata", scope_arg="path", forwardable=True)
    def get_metadata(self, ctx: OpContext, path: str,
                     meta_class: Optional[str] = None
                     ) -> List[Dict[str, Any]]:
        """All metadata for an object/collection; a link shows its own
        metadata plus a read-only view of its target's."""
        path = paths.normalize(path)
        obj = self.mcat.find_object(path)
        link = obj if obj is not None and obj["kind"] == "link" else None
        if link is None:
            kind, tid, obj = self._target_for_metadata(path)
        self.access.require_entry(ctx.principal, obj, path, "read")
        if link is None:
            return self.mcat.get_metadata(kind, tid, meta_class)
        return link_view(
            self.mcat.get_metadata("object", int(link["oid"]), meta_class),
            self.mcat.get_metadata(
                "object", int(self._resolve_link(link)["oid"]), meta_class))

    @rpc_op("update_metadata", scope_arg="path", write=True,
            audit="update-metadata", detail_arg="mid", need="own",
            target="entry")
    def update_metadata(self, ctx: OpContext, path: str, mid: int,
                        value: Optional[str],
                        units: Optional[str] = None) -> None:
        self.mcat.update_metadata(mid, value, units)

    @rpc_op("delete_metadata", scope_arg="path", write=True,
            audit="delete-metadata", detail_arg="mid", need="own",
            target="entry")
    def delete_metadata(self, ctx: OpContext, path: str, mid: int) -> None:
        self.mcat.delete_metadata(mid)

    @rpc_op("copy_metadata", scope_arg="src", write=True,
            audit="copy-metadata", detail_arg="dst")
    def copy_metadata(self, ctx: OpContext, src: str, dst: str) -> int:
        """Copy metadata from another SRB object (ingestion method 3)."""
        principal = ctx.principal
        skind, sid, sobj = self._target_for_metadata(src)
        dkind, did, dobj = self._target_for_metadata(dst)
        self.access.require_entry(principal, sobj, src, "read")
        self.access.require_entry(principal, dobj, dst, "own")
        return self.mcat.copy_metadata(skind, sid, dkind, did,
                                       by=str(principal), now=self.now)

    @rpc_op("extract_metadata", scope_arg="path", write=True,
            audit="extract-metadata", need="own", target="resolved")
    def extract_metadata(self, ctx: OpContext, path: str, method: str,
                         sidecar: Optional[str] = None) -> int:
        """Run an extraction method (ingestion method 4).

        Sidecar-style methods read a *second* SRB object (``sidecar``) and
        attach the triples to ``path``.  Returns triples attached.
        """
        principal, obj = ctx.principal, ctx.target
        data_type = str(obj["data_type"] or "")
        m = self.federation.extractors.get(data_type, method)
        if m.from_sidecar:
            if sidecar is None:
                raise MetadataError(
                    f"extraction method {method!r} reads a sidecar object; "
                    "pass sidecar=")
            side_obj = self.mcat.get_object(paths.normalize(sidecar))
            self.access.require_object(principal, side_obj, "read")
            content = self.server.data._get_bytes(side_obj, None, self.host)
        else:
            content = self.server.data._get_bytes(obj, None, self.host)
        triples = m.program.run(content)
        for t in triples:
            self.mcat.add_metadata("object", int(obj["oid"]), t.attr, t.value,
                                   by=str(principal), now=self.now,
                                   units=t.units)
        ctx.audit(detail=f"{method}:{len(triples)}")
        return len(triples)

    @rpc_op("define_structural", scope_arg="coll", write=True,
            audit="define-structural", audit_arg="coll", detail_arg="attr",
            need="own", target="collection")
    def define_structural(self, ctx: OpContext, coll: str, attr: str,
                          default_value: Optional[str] = None,
                          vocabulary: Optional[Sequence[str]] = None,
                          mandatory: bool = False,
                          comment: Optional[str] = None) -> int:
        """Collection curator declares required/suggested ingest metadata."""
        return self.mcat.define_structural(coll, attr,
                                           default_value=default_value,
                                           vocabulary=vocabulary,
                                           mandatory=mandatory,
                                           comment=comment)

    @rpc_op("structural_metadata", scope_arg="coll", forwardable=True,
            need="read", target="collection")
    def structural_metadata(self, ctx: OpContext,
                            coll: str) -> List[Dict[str, Any]]:
        return self.mcat.structural_for(coll)

    # ------------------------------------------------------------------
    # annotations
    # ------------------------------------------------------------------

    @rpc_op("add_annotation", scope_arg="path", write=True, audit="annotate",
            detail_arg="ann_type", need="annotate", target="entry")
    def add_annotation(self, ctx: OpContext, path: str, ann_type: str,
                       text: str, location: Optional[str] = None) -> int:
        """"The annotations and commentary can be inserted by any user
        with a read permission on the object" (read implies annotate)."""
        kind, tid, _obj = ctx.target
        return self.mcat.add_annotation(kind, tid, ann_type,
                                        str(ctx.principal), text,
                                        now=self.now, location=location)

    @rpc_op("annotations", scope_arg="path", forwardable=True, need="read",
            target="entry")
    def annotations(self, ctx: OpContext,
                    path: str) -> List[Dict[str, Any]]:
        kind, tid, _obj = ctx.target
        return self.mcat.annotations_for(kind, tid)

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------

    @rpc_op("query", scope_arg="scope", forwardable=True, audit="query",
            span_args=("scope",), need="read", target="collection")
    def query(self, ctx: OpContext, scope: str,
              conditions: Sequence[Condition | DisplayOnly],
              include_annotations: bool = False,
              include_system: bool = False,
              limit: Optional[int] = None,
              strategy: str = "auto") -> QueryResult:
        """Attribute search under ``scope``; only objects the caller may
        read are returned, and only those count toward ``limit``."""
        result = self.mcat.search(scope, conditions,
                                  include_annotations=include_annotations,
                                  include_system=include_system,
                                  limit=limit, strategy=strategy,
                                  visible=self._readable_by(ctx.principal))
        ctx.audit(detail=f"{len(conditions)} conds, "
                         f"{len(result.rows)} hits")
        if ctx.span is not None:
            ctx.span.incr("rows", len(result.rows))
        return result

    def _readable_by(self, principal):
        """The ACL filter the query engine applies to the object rows it
        holds: rows in, one may-read verdict per row out."""
        return lambda objs: self.access.can_objects(principal, objs, "read")

    @rpc_op("query_page", scope_arg="scope", forwardable=True,
            audit="query", span_args=("scope",), need="read",
            target="collection")
    def query_page(self, ctx: OpContext, scope: str,
                   conditions: Sequence[Condition | DisplayOnly],
                   include_annotations: bool = False,
                   include_system: bool = False,
                   limit: int = 100,
                   cursor: Optional[str] = None) -> Dict[str, Any]:
        """One keyset page of :meth:`query`, charged per page.

        Returns ``{"columns", "rows", "next_cursor"}``; feed
        ``next_cursor`` back (or stream via ``SrbClient.iter_query``)
        for the rest.  Only objects the caller may read are returned and
        a page closes at ``limit`` of them; the cursor is the last row
        delivered, so no visible row is ever skipped or duplicated.
        """
        page = self.mcat.search_page(
            scope, conditions, include_annotations=include_annotations,
            include_system=include_system, limit=limit, cursor=cursor,
            visible=self._readable_by(ctx.principal))
        ctx.audit(detail=f"{len(conditions)} conds, "
                         f"{len(page.rows)} hits (page)")
        if ctx.span is not None:
            ctx.span.incr("rows", len(page.rows))
        return {"columns": page.columns, "rows": page.rows,
                "next_cursor": page.next_cursor}

    @rpc_op("queryable_attrs", scope_arg="scope", forwardable=True,
            need="read", target="collection")
    def queryable_attrs(self, ctx: OpContext, scope: str,
                        include_system: bool = False) -> List[str]:
        return self.mcat.queryable_attributes(scope, include_system)

    # ------------------------------------------------------------------
    # access control administration
    # ------------------------------------------------------------------

    @rpc_op("grant", scope_arg="path", write=True, audit="grant",
            need="own", target="entry")
    def grant(self, ctx: OpContext, path: str, principal_str: str,
              permission: str) -> None:
        """Owner grants ``permission`` to a user, ``group:<name>`` or ``*``."""
        kind, tid, _obj = ctx.target
        self.mcat.grant(kind, tid, principal_str, permission)
        ctx.audit(detail=f"{principal_str}:{permission}")

    @rpc_op("revoke", scope_arg="path", write=True, audit="revoke",
            detail_arg="principal_str", need="own", target="entry")
    def revoke(self, ctx: OpContext, path: str, principal_str: str) -> None:
        kind, tid, _obj = ctx.target
        self.mcat.revoke(kind, tid, principal_str)

    @rpc_op("audit_log")
    def audit_log(self, ctx: OpContext,
                  principal_filter: Optional[str] = None,
                  action: Optional[str] = None,
                  target: Optional[str] = None, limit: int = 100,
                  cursor: Optional[int] = None) -> Dict[str, Any]:
        """Auditing facilities (sysadmin only): one page of the audit
        rows the filters match, in ``auid`` order, as ``{"entries",
        "next_cursor"}`` — feed ``next_cursor`` back for the rest."""
        principal = ctx.principal
        if not (self.users.exists(principal) and
                self.users.role_of(principal) == "sysadmin"):
            raise AccessDenied(principal, "read", "audit log")
        limit = max(1, int(limit))
        rows = self.mcat.audit_query(principal_filter, action, target,
                                     after=cursor, limit=limit + 1)
        return {"entries": rows[:limit], "next_cursor":
                rows[limit - 1]["auid"] if len(rows) > limit else None}
