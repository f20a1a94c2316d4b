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

One op table, two surfaces.  An op's signature lives in its plane
handler only: every op a plane service declares with ``@rpc_op``
(:func:`repro.core.dispatch.declared_ops`, the same walk the server's
:class:`~repro.core.dispatch.Dispatcher` registers from) becomes
``SrbClient.<op>`` at import — a real function with the handler's name,
signature (minus ``self, ctx``) and docstring, compiled once the way
``dataclasses`` builds methods.  Its body is one :meth:`SrbClient._call`
that sends the ticket when the op authenticates, each parameter by
name, the payload the op declares (``payload_arg`` / ``payload_items``)
through :meth:`~SrbClient._defer`, and a ``Sequence`` parameter as a
list (``None`` stays ``None``).  Adding a parameter to an op is one
edit, in the handler.

Written out are only the methods that do something else:

* ``login``, ``logout``, ``connect``, ``batch`` — the session, and
  pipelined calls (``auth_challenge`` / ``auth_login`` are ``login``'s);
* ``get`` — sends ``stripes`` only when one is given, so a default get
  stays byte-identical on the wire;
* ``ls``, ``ls_page``, ``verify`` — named other than their ops
  (``ls`` joins the pages of one ``list_collection_page`` stream,
  ``ls_page`` is one of them, ``verify`` sends ``verify_checksums``);
* ``audit_log`` — joins the pages of one ``audit_log`` stream;
* ``grant``, ``revoke`` — take ``principal``, which travels as the
  handler's ``principal_str``;
* ``iter_ls``, ``iter_query_pages``, ``iter_query`` — streams and
  pages composed of calls.
"""

from __future__ import annotations

import inspect
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple, Union

from repro.auth.tickets import Ticket
from repro.auth.users import UserRegistry
from repro.core.dispatch import OpSpec, declared_ops
from repro.core.federation import Federation
from repro.core.planes import AuthService, DataService, MetadataService, \
    NamespaceService, ReplicaService
from repro.errors import AuthError
from repro.mcat.query import Condition, DisplayOnly
from repro.net.rpc import BatchItemResult

#: every op the servers register, with its declaration and handler
_DECLARED = [pair for service in (AuthService, NamespaceService, DataService,
                                  ReplicaService, MetadataService)
             for pair in declared_ops(service)]
_SPECS: Dict[str, OpSpec] = {spec.name: spec for spec, _fn in _DECLARED}


def _ls_entries(chunk: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The entries of one ``list_collection_page`` chunk, as
    :meth:`SrbClient.iter_ls` yields them."""
    return [{"path": coll, "kind": "collection"}
            for coll in chunk["collections"]] + chunk["objects"]


#: ops a written method reaches under another name
_REACHED_OTHERWISE = {"auth_challenge", "auth_login", "list_collection_page",
                      "verify_checksums"}


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
        # must exist; bound once, since a server never changes host
        self._server_host = federation.server(server_name).host

    # -- plumbing ------------------------------------------------------------

    def _call(self, method: str, /, **kwargs: Any) -> Any:
        return self.federation.rpc.call(
            self.client_host, self._server_host,
            f"srb:{self.server_name}", method, **kwargs)

    def _stream(self, method: str, /, **kwargs: Any) -> Iterator[Any]:
        return self.federation.rpc.call_stream(
            self.client_host, self._server_host,
            f"srb:{self.server_name}", method, **kwargs)

    def _defer(self, data: Any, items: bool = False) -> Any:
        """Wrap a write payload for direct I/O.

        With ``Federation(direct_io=True)`` the payload bytes stay on
        this client host: the request carries a
        :class:`~repro.net.wire.DeferredPayload` claim token instead of
        the bytes, and the server moves them once, client→resource,
        over a brokered channel.  Off (the default), the bytes ride the
        request exactly as they always did.

        With ``items``, ``data`` is a bulk payload: each item's
        ``"data"`` is wrapped, in copies of the caller's dicts — with
        direct I/O off, plain copies made in one C-level pass.
        """
        if not self.federation.direct_io:
            return list(map(dict, data)) if items else data
        if items:
            return [dict(item, data=self._defer(item["data"]))
                    if "data" in item else dict(item) for item in data]
        from repro.net.wire import DeferredPayload
        return data if data is None else DeferredPayload(data)

    def batch(self, *items: Tuple[Any, ...]) -> List[BatchItemResult]:
        """Pipeline ops as one message pair.

        Each item is ``(op_name, kwargs)`` — the RPC op's name and
        keyword arguments, without the ticket — or ``(op_name, kwargs,
        after)``, where ``after`` holds the indices of the earlier items
        it needs.  The items share one request, one admission and one
        reply (:meth:`~repro.net.rpc.ServiceRegistry.call_batch`); on
        the server each still runs its own dispatch plan — auth, ACL
        check, audit row, span — in order.  A payload in the slot the op
        declares (``payload_arg`` / ``payload_items``) is deferred under
        ``direct_io`` exactly as the unary method defers it.

        Returns one :class:`~repro.net.rpc.BatchItemResult` per item: an
        item that fails carries its error and the others still run,
        except those that need it, which do not run and carry
        :class:`~repro.errors.DependencyFailed`.  Only a whole-message
        failure (server unreachable or busy) raises here.  No items, no
        exchange.
        """
        if not items:
            return []
        sent = []
        for op, kwargs, *after in items:
            kwargs = dict(kwargs)
            spec = _SPECS.get(op)   # an unknown op is the server's to refuse
            if spec is not None:
                if spec.auth:
                    kwargs["ticket"] = self.ticket
                if spec.payload_arg in kwargs:
                    kwargs[spec.payload_arg] = \
                        self._defer(kwargs[spec.payload_arg])
                elif spec.payload_items in kwargs:
                    kwargs[spec.payload_items] = \
                        self._defer(kwargs[spec.payload_items], items=True)
            sent.append((op, kwargs, *after))
        return self.federation.rpc.call_batch(
            self.client_host, self._server_host,
            f"srb:{self.server_name}", sent)

    def connect(self, server_name: str) -> None:
        """Switch to a different SRB server; the SSO ticket stays valid
        ("users can connect to any SRB server")."""
        self._server_host = self.federation.server(server_name).host
        self.server_name = server_name

    # -- authentication -----------------------------------------------------

    def login(self, username: Optional[str] = None,
              password: Optional[str] = None) -> Ticket:
        """Challenge–response sign-on; keeps the zone SSO ticket.  A
        credential left out (``None``) is the one the client was built
        with; one given, even empty, is the one that signs on."""
        username = self.username if username is None else username
        password = self.password if password is None else password
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

    # -- methods other than their op ----------------------------------------

    def ls(self, path: str) -> Dict[str, Any]:
        """The whole listing, ``{"collections", "objects"}``: the pages
        of :meth:`iter_ls`'s one stream, joined."""
        listing: Dict[str, Any] = {"collections": [], "objects": []}
        for entry in self.iter_ls(path):
            if entry["kind"] == "collection":
                listing["collections"].append(entry["path"])
            else:
                listing["objects"].append(entry)
        return listing

    def ls_page(self, path: str, limit: int = 100,
                cursor: Optional[str] = None) -> Dict[str, Any]:
        """One keyset page of :meth:`ls`: ``{"collections", "objects",
        "next_cursor"}`` — feed ``next_cursor`` back for the rest."""
        return self._call("list_collection_page", ticket=self.ticket,
                          path=path, limit=limit, cursor=cursor)

    def audit_log(self, principal_filter: Optional[str] = None,
                  action: Optional[str] = None,
                  target: Optional[str] = None) -> List[Dict[str, Any]]:
        """Every audit row the filters match, in ``auid`` order
        (sysadmin only): the pages of one ``audit_log`` stream, joined."""
        pages = self._stream("audit_log", ticket=self.ticket, target=target,
                             principal_filter=principal_filter, action=action)
        return [entry for page in pages for entry in page["entries"]]

    def verify(self, path: str):
        """Per-replica checksum verification report."""
        return self._call("verify_checksums", ticket=self.ticket, path=path)

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

    def grant(self, path: str, principal: str, permission: str) -> None:
        return self._call("grant", ticket=self.ticket, path=path,
                          principal_str=principal, permission=permission)

    def revoke(self, path: str, principal: str) -> None:
        return self._call("revoke", ticket=self.ticket, path=path,
                          principal_str=principal)

    # -- streams and pages ----------------------------------------------------

    def iter_ls(self, path: str, page_size: int = 100):
        """Iterate a collection listing with transparent page fetch.

        Streams ``list_collection_page`` chunks through
        :meth:`~repro.net.rpc.ServiceRegistry.call_stream` — one
        request, then the server pushes the pages: a drain pays the
        link latency once, each page its catalog work and its bytes —
        and yields entries one by one: of each page, sub-collections
        first as ``{"path", "kind": "collection"}``, then object rows as
        :meth:`ls` returns them.  The pages are chained, as
        :meth:`iter_query` chains its pages: nothing runs per entry.
        """
        return chain.from_iterable(map(_ls_entries, self._stream(
            "list_collection_page", page_size=page_size, ticket=self.ticket,
            path=path)))

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
        return self._stream(
            "query_page", page_size=page_size, ticket=self.ticket, scope=scope,
            conditions=list(conditions),
            include_annotations=include_annotations,
            include_system=include_system)

    def iter_query(self, scope: str,
                   conditions: Sequence[Condition | DisplayOnly],
                   include_annotations: bool = False,
                   include_system: bool = False,
                   page_size: int = 100):
        """Iterate query result rows with transparent page fetch: the
        rows of :meth:`iter_query_pages`, as tuples in path order, the
        pages chained (nothing runs per row).  Dropping the iterator
        drops the stream, which stops it."""
        return chain.from_iterable(map(itemgetter("rows"),
                                       self.iter_query_pages(
                                           scope, conditions,
                                           include_annotations,
                                           include_system, page_size)))


def _forward(spec: OpSpec, handler: Callable) -> Callable:
    """``SrbClient.<op>`` for one declared op: the handler's parameters,
    and a body that is one ``_call`` (module docstring)."""
    params = list(inspect.signature(handler).parameters.values())[2:]
    sent = ["ticket=self.ticket"] if spec.auth else []
    for p in params:
        value = p.name
        if p.name == spec.payload_arg:
            value = f"self._defer({value})"
        elif p.name == spec.payload_items:
            value = f"self._defer({value}, items=True)"
        elif "Sequence[" in str(p.annotation):
            value = f"None if {value} is None else list({value})"
        sent.append(f"{p.name}={value}")
    head = inspect.Signature([p.replace(annotation=p.empty, default=p.empty)
                              for p in params])
    source = (f"def {spec.name}(self, {str(head)[1:-1]}):\n"
              f"    return self._call({spec.name!r}, {', '.join(sent)})\n")
    namespace: Dict[str, Callable] = {}
    # compiled under this file's name, so profiles charge it to the
    # client; in the handler's globals, where its annotations resolve
    exec(compile(source, __file__, "exec"), handler.__globals__, namespace)
    forward = namespace[spec.name]
    forward.__defaults__ = handler.__defaults__
    forward.__kwdefaults__ = handler.__kwdefaults__
    forward.__annotations__ = {name: note for name, note
                               in handler.__annotations__.items()
                               if name != "ctx"}
    forward.__module__ = __name__
    forward.__qualname__ = f"SrbClient.{spec.name}"
    forward.__doc__ = handler.__doc__
    return forward


for _spec, _handler in _DECLARED:
    if _spec.name not in vars(SrbClient) \
            and _spec.name not in _REACHED_OTHERWISE:
        setattr(SrbClient, _spec.name, _forward(_spec, _handler))
