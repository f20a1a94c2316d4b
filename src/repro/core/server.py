"""The federated SRB server — a façade over five plane services.

Each :class:`SrbServer` runs on one network host and brokers the storage
resources local to it; all servers expose the *same* operation surface,
and a client may connect to any of them ("Users can connect to any SRB
server to access data from any other SRB server").  One server per zone
is MCAT-enabled: it holds the catalog.  The others reach the catalog over
the network, paying one round trip per brokered operation — which is
exactly the overhead experiment E5 measures.

The paper presents the server as a layered system: one common request
interface over distinct namespace, data-movement, replica and metadata
functions.  That is now literal structure:

* :mod:`repro.core.planes` — ``auth``, ``namespace``, ``data``,
  ``replica`` and ``metadata`` services own the operation logic;
* :mod:`repro.core.dispatch` — every RPC runs through one declarative
  pipeline (error accounting, op span/metrics, ticket auth, cross-zone
  forwarding, MCAT hop, audit), compiled per op from the ``@rpc_op``
  declarations on the plane methods.

``SrbServer`` itself keeps only identity, counters, the plumbing the
op plans call (``_mcat_hop``/``_forward``/``_auth``/``_audit``)
and an auto-generated public method per registered op, so the external
surface — ``server.get(ticket, path)``, RPC by method name, scommands —
is unchanged.

The server is deliberately synchronous and stateless between calls; all
durable state lives in MCAT and on the storage drivers.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional

from repro.auth.tickets import Ticket
from repro.auth.users import PUBLIC, Principal
from repro.core.dispatch import Dispatcher, RegisteredOp
from repro.core.planes import (
    AuthService,
    DataService,
    MetadataService,
    NamespaceService,
    ReplicaService,
    content_checksum,
)
from repro.core.planes.base import _CONTROL_MSG, Wired
from repro.errors import InvalidPath, SrbError, UnsupportedOperation
from repro.util import paths

__all__ = ["SrbServer", "content_checksum"]


def _facade_method(server: "SrbServer", reg: RegisteredOp) -> Callable:
    """Build the public ``server.<op>(ticket, ...)`` method for one op.

    The signature is derived from the plane handler's (minus ``self`` and
    ``ctx``), with ``ticket`` prepended for authenticated ops — i.e. the
    exact signature the monolithic server's method had.  The body binds
    the arguments and hands them to the dispatcher as kwargs.
    """
    spec = reg.spec
    params = list(inspect.signature(reg.impl).parameters.values())[2:]
    if spec.auth:
        params = [inspect.Parameter(
            "ticket", inspect.Parameter.POSITIONAL_OR_KEYWORD,
            annotation=Ticket)] + params
    sig = inspect.Signature(params)
    # Bound once here, not per call: every parameter in signature order
    # with its default (None stands in for a required one, which the
    # caller must then supply), and the names a call may not omit.
    keyword_ok = all(p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
                     for p in params)
    template = {p.name: None if p.default is p.empty else p.default
                for p in params}
    known = frozenset(template)
    required = {p.name for p in params if p.default is p.empty}

    def facade(*args: Any, **kwargs: Any) -> Any:
        names = kwargs.keys()
        if keyword_ok and not args and required <= names \
                and names <= known:
            # the all-keyword call rpc makes: defaults, then the arguments
            call_kwargs = dict(template)
            call_kwargs.update(kwargs)
        else:
            # positional, unknown or missing arguments: let inspect bind
            # them, or raise its usual TypeError
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            call_kwargs = dict(bound.arguments)
        ticket = call_kwargs.pop("ticket", None)
        return server.dispatch.call(spec.name, ticket, call_kwargs)

    facade.__name__ = spec.name
    facade.__qualname__ = f"SrbServer.{spec.name}"
    facade.__doc__ = reg.impl.__doc__
    facade.__signature__ = sig
    return facade


class SrbServer(Wired):
    """One SRB server process in the federation."""

    def __init__(self, name: str, host: str, federation: "Federation",
                 is_mcat_server: bool = False):
        self.name = name
        self.host = host
        self._wire(federation)
        self.is_mcat_server = is_mcat_server
        self.ops_served = 0
        # live server<->resource sessions: resource name -> the network
        # topology epoch the session was opened under (read and written
        # by planes/base.py)
        self._session_cache: Dict[str, int] = {}
        #: bound ``srb.session_cache`` series, by (result, server, resource)
        self.session_meters = federation.obs.metrics.bind_family(
            ("result", "server", "resource"),
            ("counter", "srb.session_cache"))

        self.auth = AuthService(self)
        self.namespace = NamespaceService(self)
        self.data = DataService(self)
        self.replica = ReplicaService(self)
        self.metadata = MetadataService(self)
        self.planes = (self.auth, self.namespace, self.data,
                       self.replica, self.metadata)

        self.dispatch = Dispatcher(self)
        for service in self.planes:
            self.dispatch.register_service(service)
        for op_name in self.dispatch.names():
            setattr(self, op_name,
                    _facade_method(self, self.dispatch.get(op_name)))

    def __rpc_lookup__(self, method: str) -> Optional[Callable]:
        """RPC surface = exactly the registered ops (see repro.net.rpc)."""
        if method in self.dispatch:
            return getattr(self, method)
        return None

    def reset_sessions(self) -> int:
        """Drop every kept-alive resource session; returns how many were
        flushed.  The next touch of each resource pays the full open
        probe (and, without SSO, the challenge–response) again."""
        count = len(self._session_cache)
        self._session_cache.clear()
        return count

    # ------------------------------------------------------------------
    # plumbing the op plans call
    # ------------------------------------------------------------------

    def _mcat_hop(self, scope: Optional[str] = None) -> None:
        """Charge one catalog round trip when this server is not the
        MCAT-enabled one (it batches its catalog work per operation).

        When the catalog has more than one shard the op's scope path
        resolves to its owning shard — the hop is charged once, to that
        shard only, and the route shows up on the span and the
        ``mcat.shard.route`` metric.
        """
        self.ops_served += 1
        shard: Optional[int] = None
        mcat = self.mcat
        if scope is not None and len(mcat.shards) > 1:
            try:
                shard = mcat.shard_of_path(scope)
            except SrbError:
                shard = None
            if shard is not None:
                self.obs.metrics.inc("mcat.shard.route", server=self.name,
                                     shard=str(shard))
        if not self.is_mcat_server:
            mhost = self.federation.mcat_server.host
            attrs = {"server": self.name}
            if shard is not None:
                attrs["shard"] = shard
            with self.obs.tracer.span("srb.mcat_hop", **attrs):
                self.network.transfer(self.host, mhost, _CONTROL_MSG)
                self.network.transfer(mhost, self.host, _CONTROL_MSG)

    def _foreign_zone(self, path: str) -> Optional[str]:
        """The zone of ``path`` if it belongs to a *federated peer*.

        A top-level name that is neither our zone nor a peer's is treated
        as an ordinary local collection (the catalog allows arbitrary
        roots), so unfederated paths keep resolving locally.
        """
        try:
            zone = paths.zone_of(paths.normalize(path))
        except InvalidPath:
            return None
        if zone == self.federation.zone:
            return None
        return zone if zone in self.federation.peers else None

    def _forward(self, zone: str, method: str, ticket: Ticket,
                 **kwargs: Any) -> Any:
        """Forward a read operation to a federated peer zone.

        The peer's MCAT server handles it; our caller's ticket validates
        there through cross-zone trust, and the peer's ACLs authorize.
        One server-to-server RPC is charged on the shared network.
        """
        peer = self.federation.peer_zone(zone)
        target = peer.mcat_server
        return peer.rpc.call(self.host, target.host, f"srb:{target.name}",
                             method, ticket=ticket, **kwargs)

    def _require_local(self, path: str, operation: str) -> None:
        zone = self._foreign_zone(path)
        if zone is not None:
            raise UnsupportedOperation(
                f"{operation} in foreign zone {zone!r} requires connecting "
                "to a server of that zone (cross-zone forwarding is "
                "read-only)")

    def _auth(self, ticket: Ticket) -> Principal:
        """Validate the caller's SSO ticket (local check, no messages)."""
        if ticket is None:
            return PUBLIC
        return self.authority.validate(ticket)

    def _audit(self, principal: Principal, action: str, target: str,
               detail: Optional[str] = None, ok: bool = True) -> None:
        self.mcat.record_audit(self.now, str(principal), action, target,
                               detail=detail, ok=ok)
