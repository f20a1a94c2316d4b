"""SrbClient: the user-facing connection API.

A client runs on some host of the grid and connects to *any* SRB server
(location transparency: the server brokers whatever the client asks for,
wherever the data lives).  Every call is a real RPC through the simulated
network — request and response bytes are charged — so end-to-end client
latencies include the WAN.

Typical use::

    client = SrbClient(fed, client_host="laptop", server_name="srb1",
                       username="sekar@sdsc", password="pw")
    client.login()
    client.mkcoll("/demozone/home/sekar/Cultures")
    client.ingest("/demozone/home/sekar/Cultures/notes.txt", b"...",
                  resource="unix-sdsc")
    data = client.get("/demozone/home/sekar/Cultures/notes.txt")
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.auth.tickets import Ticket
from repro.auth.users import UserRegistry
from repro.core.federation import Federation
from repro.errors import AuthError
from repro.mcat.query import Condition, DisplayOnly, QueryResult
from repro.net.rpc import BatchItemResult


class SrbClient:
    """A connection from ``client_host`` to one SRB server (switchable)."""

    def __init__(self, federation: Federation, client_host: str,
                 server_name: str, username: Optional[str] = None,
                 password: Optional[str] = None):
        self.federation = federation
        self.client_host = client_host
        self.server_name = server_name
        self.username = username
        self.password = password
        self.ticket: Optional[Ticket] = None
        federation.network.host(client_host)   # must exist
        federation.server(server_name)         # must exist

    # -- plumbing ------------------------------------------------------------

    @property
    def _server_host(self) -> str:
        return self.federation.server(self.server_name).host

    def _call(self, method: str, /, **kwargs: Any) -> Any:
        return self.federation.rpc.call(
            self.client_host, self._server_host,
            f"srb:{self.server_name}", method, **kwargs)

    def _defer(self, data: Any) -> Any:
        """Wrap a write payload for direct I/O.

        With ``Federation(direct_io=True)`` the payload bytes stay on
        this client host: the request carries a
        :class:`~repro.net.wire.DeferredPayload` claim token instead of
        the bytes, and the server moves them once, client→resource,
        over a brokered channel.  Off (the default), the bytes ride the
        request exactly as they always did.
        """
        if data is None or not self.federation.direct_io:
            return data
        from repro.net.wire import DeferredPayload
        return DeferredPayload(data)

    def batch(self, *items: Tuple[str, Dict[str, Any]]
              ) -> List[BatchItemResult]:
        """Pipeline independent ops as one message pair.

        Each item is ``(op_name, kwargs)`` — the RPC op's name and
        keyword arguments, without the ticket.  The items share one
        request, one admission and one reply
        (:meth:`~repro.net.rpc.ServiceRegistry.call_batch`); on the
        server each still runs its own dispatch plan — auth, ACL check,
        audit row, span — in order.  A payload in the slot the op
        declares (``payload_arg`` / ``payload_items``) is deferred under
        ``direct_io`` exactly as the unary method defers it.

        Returns one :class:`~repro.net.rpc.BatchItemResult` per item: an
        item that fails carries its error and the others still run, so
        only put calls together that do not depend on each other.  Only
        a whole-message failure (server unreachable or busy) raises
        here.  No items, no exchange.
        """
        if not items:
            return []
        dispatch = self.federation.server(self.server_name).dispatch
        sent = []
        for op, kwargs in items:
            kwargs = dict(kwargs)
            if op in dispatch:      # an unknown op is the server's to refuse
                spec = dispatch.get(op).spec
                if spec.auth:
                    kwargs["ticket"] = self.ticket
                if spec.payload_arg in kwargs:
                    kwargs[spec.payload_arg] = \
                        self._defer(kwargs[spec.payload_arg])
                elif spec.payload_items in kwargs:
                    kwargs[spec.payload_items] = [
                        dict(item, data=self._defer(item["data"]))
                        if "data" in item else dict(item)
                        for item in kwargs[spec.payload_items]]
            sent.append((op, kwargs))
        return self.federation.rpc.call_batch(
            self.client_host, self._server_host,
            f"srb:{self.server_name}", sent)

    def connect(self, server_name: str) -> None:
        """Switch to a different SRB server; the SSO ticket stays valid
        ("users can connect to any SRB server")."""
        self.federation.server(server_name)
        self.server_name = server_name

    # -- authentication -----------------------------------------------------

    def login(self, username: Optional[str] = None,
              password: Optional[str] = None) -> Ticket:
        """Challenge–response sign-on; keeps the zone SSO ticket."""
        username = username or self.username
        password = password or self.password
        if not username or password is None:
            raise AuthError("login needs username and password")
        first = self._call("auth_challenge", username=username)
        response = UserRegistry.respond(password, first["salt"],
                                        first["challenge"])
        self.ticket = self._call("auth_login", username=username,
                                 challenge=first["challenge"],
                                 response=response)
        self.username = username
        return self.ticket

    def logout(self) -> None:
        self.ticket = None

    # -- namespace ------------------------------------------------------------

    def mkcoll(self, path: str) -> int:
        return self._call("mkcoll", ticket=self.ticket, path=path)

    def rmcoll(self, path: str) -> None:
        return self._call("rmcoll", ticket=self.ticket, path=path)

    def ls(self, path: str) -> Dict[str, Any]:
        return self._call("list_collection", ticket=self.ticket, path=path)

    def ls_page(self, path: str, limit: int = 100,
                cursor: Optional[str] = None) -> Dict[str, Any]:
        """One keyset page of :meth:`ls`: ``{"collections", "objects",
        "next_cursor"}`` — feed ``next_cursor`` back for the rest."""
        return self._call("list_collection_page", ticket=self.ticket,
                          path=path, limit=limit, cursor=cursor)

    def iter_ls(self, path: str, page_size: int = 100):
        """Iterate a collection listing with transparent page fetch.

        Streams ``list_collection_page`` chunks through
        :meth:`~repro.net.rpc.ServiceRegistry.call_stream` — one
        request, then the server pushes the pages: a drain pays the
        link latency once, each page its catalog work and its bytes —
        and yields entries one by one: sub-collections first as
        ``{"path", "kind": "collection"}``, then object rows as
        :meth:`ls` returns them.
        """
        for chunk in self.federation.rpc.call_stream(
                self.client_host, self._server_host,
                f"srb:{self.server_name}", "list_collection_page",
                page_size=page_size, ticket=self.ticket, path=path):
            for coll in chunk["collections"]:
                yield {"path": coll, "kind": "collection"}
            for obj in chunk["objects"]:
                yield obj

    def stat(self, path: str) -> Dict[str, Any]:
        return self._call("stat", ticket=self.ticket, path=path)

    # -- data ----------------------------------------------------------------

    def ingest(self, path: str, data: bytes,
               resource: Optional[str] = None,
               container: Optional[str] = None,
               data_type: Optional[str] = None,
               metadata: Optional[Dict[str, str]] = None) -> int:
        return self._call("ingest", ticket=self.ticket, path=path,
                          data=self._defer(data),
                          resource=resource, container=container,
                          data_type=data_type, metadata=metadata)

    def get(self, path: str, replica_num: Optional[int] = None,
            args: Optional[str] = None,
            sql_remainder: Optional[str] = None,
            stripes: Union[int, str, None] = None) -> bytes:
        """``stripes`` is a chunk count for SRB parallel I/O, or
        ``"auto"`` to let the server's placement engine pick one from
        measured path bandwidths."""
        kwargs: Dict[str, Any] = {}
        if stripes is not None:
            # only serialized when used, so default gets stay
            # byte-identical on the wire
            kwargs["stripes"] = stripes
        return self._call("get", ticket=self.ticket, path=path,
                          replica_num=replica_num, args=args,
                          sql_remainder=sql_remainder, **kwargs)

    def put(self, path: str, data: bytes) -> None:
        return self._call("put", ticket=self.ticket, path=path,
                          data=self._defer(data))

    def delete(self, path: str, replica_num: Optional[int] = None) -> None:
        return self._call("delete", ticket=self.ticket, path=path,
                          replica_num=replica_num)

    # -- bulk operations -----------------------------------------------------

    def bulk_ingest(self, items: Sequence[Dict[str, Any]],
                    resource: Optional[str] = None,
                    container: Optional[str] = None) -> List[Dict[str, Any]]:
        """Ingest many files in one round trip (Sbload's data plane).

        Each item is ``{"path", "data"}`` plus optional
        ``data_type``/``metadata``.  Returns per-item results aligned
        with ``items`` — failed items carry ``error``/``error_type``
        instead of ``oid``.
        """
        sent = [dict(item, data=self._defer(item["data"]))
                if "data" in item else dict(item)
                for item in items]
        return self._call("bulk_ingest", ticket=self.ticket,
                          items=sent, resource=resource,
                          container=container)

    def bulk_get(self, targets: Sequence[str],
                 via_container: Optional[str] = None
                 ) -> List[Dict[str, Any]]:
        """Fetch a working set of paths in one round trip."""
        return self._call("bulk_get", ticket=self.ticket,
                          targets=list(targets),
                          via_container=via_container)

    def bulk_query_metadata(self, targets: Sequence[str],
                            meta_class: Optional[str] = None
                            ) -> List[Dict[str, Any]]:
        """Metadata for many paths in one round trip."""
        return self._call("bulk_query_metadata", ticket=self.ticket,
                          targets=list(targets), meta_class=meta_class)

    def iter_bulk_query_metadata(self, targets: Sequence[str],
                                 meta_class: Optional[str] = None,
                                 page_size: int = 100):
        """Iterate :meth:`bulk_query_metadata` results in bounded pages.

        The target list is client-supplied, so paging slices it: one
        ``bulk_query_metadata`` round trip per ``page_size`` targets,
        yielding per-item results in target order as each reply lands —
        peak reply size is bounded by the slice, and a failed item
        (missing path, denied ACL) still yields its marshalled
        ``error``/``error_type`` entry without disturbing later items.
        """
        targets = list(targets)
        step = max(1, int(page_size))
        for start in range(0, len(targets), step):
            for item in self.bulk_query_metadata(
                    targets[start:start + step], meta_class=meta_class):
                yield item

    # -- registration -----------------------------------------------------------

    def register_file(self, path: str, resource: str, physical_path: str,
                      data_type: Optional[str] = None,
                      metadata: Optional[Dict[str, str]] = None) -> int:
        return self._call("register_file", ticket=self.ticket, path=path,
                          resource=resource, physical_path=physical_path,
                          data_type=data_type, metadata=metadata)

    def register_directory(self, path: str, resource: str,
                           physical_dir: str) -> int:
        return self._call("register_directory", ticket=self.ticket, path=path,
                          resource=resource, physical_dir=physical_dir)

    def register_sql(self, path: str, resource: str, sql: str,
                     template: str = "HTMLREL", partial: bool = False) -> int:
        return self._call("register_sql", ticket=self.ticket, path=path,
                          resource=resource, sql=sql, template=template,
                          partial=partial)

    def register_url(self, path: str, url: str) -> int:
        return self._call("register_url", ticket=self.ticket, path=path,
                          url=url)

    def register_method(self, path: str, server: str, command: str,
                        proxy_function: bool = False) -> int:
        return self._call("register_method", ticket=self.ticket, path=path,
                          server=server, command=command,
                          proxy_function=proxy_function)

    # -- replication ------------------------------------------------------------

    def replicate(self, path: str, resource: str) -> int:
        return self._call("replicate", ticket=self.ticket, path=path,
                          resource=resource)

    def register_replica(self, path: str, target: str,
                         resource: Optional[str] = None) -> int:
        return self._call("register_replica", ticket=self.ticket, path=path,
                          target=target, resource=resource)

    def ingest_replica(self, path: str, data: bytes, resource: str) -> int:
        return self._call("ingest_replica", ticket=self.ticket, path=path,
                          data=self._defer(data), resource=resource)

    def synchronize(self, path: str) -> int:
        return self._call("synchronize", ticket=self.ticket, path=path)

    # -- copy / move / link --------------------------------------------------------

    def copy(self, src: str, dst: str, resource: Optional[str] = None) -> int:
        return self._call("copy", ticket=self.ticket, src=src, dst=dst,
                          resource=resource)

    def move(self, src: str, dst: str) -> None:
        return self._call("move", ticket=self.ticket, src=src, dst=dst)

    def physical_move(self, path: str, resource: str) -> None:
        return self._call("physical_move", ticket=self.ticket, path=path,
                          resource=resource)

    def link(self, target: str, link_path: str) -> int:
        return self._call("link", ticket=self.ticket, target=target,
                          link_path=link_path)

    def migrate_collection(self, coll: str, resource: str) -> int:
        return self._call("migrate_collection", ticket=self.ticket, coll=coll,
                          resource=resource)

    # -- metadata -------------------------------------------------------------

    def add_metadata(self, path: str, attr: str, value: Optional[str],
                     units: Optional[str] = None, meta_class: str = "user",
                     schema_name: Optional[str] = None) -> int:
        return self._call("add_metadata", ticket=self.ticket, path=path,
                          attr=attr, value=value, units=units,
                          meta_class=meta_class, schema_name=schema_name)

    def get_metadata(self, path: str,
                     meta_class: Optional[str] = None) -> List[Dict[str, Any]]:
        return self._call("get_metadata", ticket=self.ticket, path=path,
                          meta_class=meta_class)

    def update_metadata(self, path: str, mid: int, value: Optional[str],
                        units: Optional[str] = None) -> None:
        return self._call("update_metadata", ticket=self.ticket, path=path,
                          mid=mid, value=value, units=units)

    def delete_metadata(self, path: str, mid: int) -> None:
        return self._call("delete_metadata", ticket=self.ticket, path=path,
                          mid=mid)

    def copy_metadata(self, src: str, dst: str) -> int:
        return self._call("copy_metadata", ticket=self.ticket, src=src,
                          dst=dst)

    def extract_metadata(self, path: str, method: str,
                         sidecar: Optional[str] = None) -> int:
        return self._call("extract_metadata", ticket=self.ticket, path=path,
                          method=method, sidecar=sidecar)

    def define_structural(self, coll: str, attr: str,
                          default_value: Optional[str] = None,
                          vocabulary: Optional[Sequence[str]] = None,
                          mandatory: bool = False,
                          comment: Optional[str] = None) -> int:
        return self._call("define_structural", ticket=self.ticket, coll=coll,
                          attr=attr, default_value=default_value,
                          vocabulary=list(vocabulary) if vocabulary else None,
                          mandatory=mandatory, comment=comment)

    def structural_metadata(self, coll: str) -> List[Dict[str, Any]]:
        return self._call("structural_metadata", ticket=self.ticket, coll=coll)

    def add_annotation(self, path: str, ann_type: str, text: str,
                       location: Optional[str] = None) -> int:
        return self._call("add_annotation", ticket=self.ticket, path=path,
                          ann_type=ann_type, text=text, location=location)

    def annotations(self, path: str) -> List[Dict[str, Any]]:
        return self._call("annotations", ticket=self.ticket, path=path)

    # -- query ------------------------------------------------------------------

    def query(self, scope: str,
              conditions: Sequence[Condition | DisplayOnly],
              include_annotations: bool = False,
              include_system: bool = False,
              limit: Optional[int] = None,
              strategy: str = "auto") -> QueryResult:
        return self._call("query", ticket=self.ticket, scope=scope,
                          conditions=list(conditions),
                          include_annotations=include_annotations,
                          include_system=include_system, limit=limit,
                          strategy=strategy)

    def query_page(self, scope: str,
                   conditions: Sequence[Condition | DisplayOnly],
                   include_annotations: bool = False,
                   include_system: bool = False,
                   limit: int = 100,
                   cursor: Optional[str] = None) -> Dict[str, Any]:
        """One keyset page of :meth:`query`: ``{"columns", "rows",
        "next_cursor"}`` — feed ``next_cursor`` back for the rest."""
        return self._call("query_page", ticket=self.ticket, scope=scope,
                          conditions=list(conditions),
                          include_annotations=include_annotations,
                          include_system=include_system, limit=limit,
                          cursor=cursor)

    def iter_query_pages(self, scope: str,
                         conditions: Sequence[Condition | DisplayOnly],
                         include_annotations: bool = False,
                         include_system: bool = False,
                         page_size: int = 100):
        """The pages :meth:`iter_query` flattens, as :meth:`query_page`
        returns them — for a consumer that wants the column header, or
        to stop on a page boundary knowing whether more would follow.

        Streams ``query_page`` chunks through
        :meth:`~repro.net.rpc.ServiceRegistry.call_stream`: one request,
        then the server pushes the pages.  The first page arrives after
        one page of catalog work (not the whole result set); every page
        is separately admitted, authorised and charged, but only the
        first pays the link latency — a drain costs about what the
        materialising :meth:`query` does.  Dropping the iterator stops
        the stream at no further cost.
        """
        return self.federation.rpc.call_stream(
            self.client_host, self._server_host,
            f"srb:{self.server_name}", "query_page",
            page_size=page_size, ticket=self.ticket, scope=scope,
            conditions=list(conditions),
            include_annotations=include_annotations,
            include_system=include_system)

    def iter_query(self, scope: str,
                   conditions: Sequence[Condition | DisplayOnly],
                   include_annotations: bool = False,
                   include_system: bool = False,
                   page_size: int = 100):
        """Iterate query result rows with transparent page fetch: the
        rows of :meth:`iter_query_pages`, as tuples in path order."""
        for chunk in self.iter_query_pages(
                scope, conditions, include_annotations, include_system,
                page_size):
            yield from chunk["rows"]

    def queryable_attrs(self, scope: str,
                        include_system: bool = False) -> List[str]:
        return self._call("queryable_attrs", ticket=self.ticket, scope=scope,
                          include_system=include_system)

    # -- access control -----------------------------------------------------------

    def grant(self, path: str, principal: str, permission: str) -> None:
        return self._call("grant", ticket=self.ticket, path=path,
                          principal_str=principal, permission=permission)

    def revoke(self, path: str, principal: str) -> None:
        return self._call("revoke", ticket=self.ticket, path=path,
                          principal_str=principal)

    def audit_log(self, principal_filter: Optional[str] = None,
                  action: Optional[str] = None,
                  target: Optional[str] = None) -> List[Dict[str, Any]]:
        return self._call("audit_log", ticket=self.ticket,
                          principal_filter=principal_filter, action=action,
                          target=target)

    # -- locks / versions ----------------------------------------------------------

    def lock(self, path: str, lock_type: str = "shared",
             lifetime_s: Optional[float] = None) -> int:
        return self._call("lock", ticket=self.ticket, path=path,
                          lock_type=lock_type, lifetime_s=lifetime_s)

    def unlock(self, path: str) -> int:
        return self._call("unlock", ticket=self.ticket, path=path)

    def pin(self, path: str, resource: str,
            lifetime_s: Optional[float] = None) -> int:
        return self._call("pin", ticket=self.ticket, path=path,
                          resource=resource, lifetime_s=lifetime_s)

    def unpin(self, path: str, resource: str) -> int:
        return self._call("unpin", ticket=self.ticket, path=path,
                          resource=resource)

    def checkout(self, path: str) -> None:
        return self._call("checkout", ticket=self.ticket, path=path)

    def checkin(self, path: str, data: Optional[bytes] = None) -> int:
        return self._call("checkin", ticket=self.ticket, path=path, data=data)

    def versions(self, path: str) -> List[Dict[str, Any]]:
        return self._call("versions", ticket=self.ticket, path=path)

    def get_version(self, path: str, version_num: int) -> bytes:
        return self._call("get_version", ticket=self.ticket, path=path,
                          version_num=version_num)

    def verify(self, path: str):
        """Per-replica checksum verification report."""
        return self._call("verify_checksums", ticket=self.ticket, path=path)

    # -- containers ------------------------------------------------------------

    def create_container(self, path: str, logical_resource: str) -> int:
        return self._call("create_container", ticket=self.ticket, path=path,
                          logical_resource=logical_resource)

    def sync_container(self, path: str) -> int:
        return self._call("sync_container", ticket=self.ticket, path=path)

    def compact_container(self, path: str) -> int:
        return self._call("compact_container", ticket=self.ticket, path=path)

    def container_garbage(self, path: str) -> int:
        return self._call("container_garbage", ticket=self.ticket, path=path)
