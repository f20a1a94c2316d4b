"""Declarative RPC dispatch: an op registry plus one compiled plan per op.

The paper describes the SRB server as a *layered* system: one common
request interface in front of distinct namespace, data-movement, replica
and metadata functions.  Before this module existed, our server was a
single class where every RPC handler hand-rolled the cross-cutting
concerns — auth, tracing, audit, cross-zone forwarding, error accounting
— and did so inconsistently.  Here those concerns are one ordered
pipeline that *every* server RPC runs through, and a handler is just a
method on a plane service carrying a declaration::

    @rpc_op("query", scope_arg="scope", forwardable=True, audit="query",
            span_args=("scope",), need="read", target="collection")
    def query(self, ctx, scope, conditions, ...):
        ...only the query logic...

Pipeline order (outermost first) — this is a *contract*; tests depend
on it:

1. **error**    — label failures on the ``srb.errors`` metric, re-raise.
2. **span**     — increment the ``srb.ops`` counter (exactly once per
                  op, every op) and open the ``srb.<plane>.<op>`` span.
3. **auth**     — validate the caller's SSO ticket (skipped for the
                  login handshake itself).
4. **zone**     — if the op's scope path lies in a federated peer zone:
                  forward reads (``forwardable=True``) to the peer and
                  refuse everything else with ``UnsupportedOperation``
                  (cross-zone forwarding is read-only).
5. **hop**      — count the op as served and charge the MCAT round trip
                  when this server is not the catalog holder.
6. **audit**    — around the permission check and the handler: before
                  the handler, an op declaring ``need=`` has its subject
                  resolved (``target=``) and checked; after the handler
                  returns, write the declared audit record; on
                  ``AccessDenied``/``AuthError`` from a mutation — the
                  check's or the handler's — write it with ``ok=False``
                  instead.

The check is the paper's access matrix ("control at multiple levels ...
for users and user groups") stated once per op: ``need=`` names a
permission of ``mcat.schema.PERMISSIONS`` and ``target=`` how the
subject path (``scope_arg``) becomes the row it is checked on — see
:data:`TARGETS`.  The row reaches the handler as ``ctx.target``.  It runs
on the local branch only (a forwarded read is checked by the peer that
serves it), after the hop and just before the handler, so it charges the
catalog exactly what the same check in the handler would.  An op whose
handler must check for itself — a second path, per item, or in an order
no target kind repeats — is named in :data:`WRITTEN_CHECKS` with why.

The pipeline is *compiled*, not interpreted.  :func:`_compile` turns a
registered :class:`OpSpec` into one runner (its *op plan*, built once,
by the op's first call on that server) that walks the six stages in
that order in a single function, with everything the declaration fixes
decided once: the span name, the bound ``srb.ops`` series and the audit
fields are prebuilt, and a stage that can do nothing for this op is not
in its plan —

* the zone check, for an op with no ``scope_arg`` (and, for a scoped
  one, while the federation has no peer zone to be foreign to);
* the catalog round trip, on the server that holds a one-shard catalog
  (the hop still counts the op as served);
* the audit record, for an op that declares no ``audit=``
  (:meth:`OpContext.audit` refuses to invent one at run time);
* the op span, while no trace is recording (``Tracer.stack`` is empty;
  the span would have been a no-op).

None of these is observable: each dropped stage is one whose every
effect — metric, span, audit row, charged message — was already nil for
that op.  A ``DeferredPayload`` claim is unwrapped only in the slot the
op declares (``payload_arg`` / ``payload_items`` — the two places
``SrbClient._defer`` puts one).  Anywhere else it stays what it is, an
object of the wrong type, and is refused by whatever refuses an ``int``
there: the catalog's typed columns, path validation.

Stages 1–3 are free on the virtual clock, so the refactor from inline
preambles to this pipeline is behavior-preserving on the simulated
clock (``benchmarks/test_refactor_parity.py`` holds it to that, and
``tests/obs/test_obs_parity.py`` holds every metric and span to a
recording made before the plans existed).

Handlers receive an :class:`OpContext` as their second argument for the
rare dynamic cases: refining the audit record (``ctx.audit(detail=...)``),
adding span counters (``ctx.span``), per-item zone checks in bulk ops
(``ctx.require_local``), or the checked subject row (``ctx.target``).
Everything else is declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.auth.tickets import Ticket
from repro.auth.users import PUBLIC, Principal
from repro.errors import AccessDenied, AuthError, SrbError, \
    UnsupportedOperation
from repro.mcat.schema import PERMISSIONS
from repro.net.wire import DeferredPayload
from repro.util import paths


def _announced_items(items: Any) -> Tuple[Any, bool]:
    """``(items, found)`` with every item's ``DeferredPayload`` ``"data"``
    replaced by its bytes: the bulk payload slot.  The caller's list is
    copied only when an item carried a claim."""
    plain = None
    if type(items) is list or type(items) is tuple:
        for i, item in enumerate(items):
            if type(item) is dict and "data" in item \
                    and type(item["data"]) is DeferredPayload:
                if plain is None:
                    plain = list(items)
                plain[i] = {**item, "data": item["data"].data}
    return (items, False) if plain is None else (plain, True)


# ---------------------------------------------------------------------------
# target kinds: how an op's subject path becomes the row its check reads
# ---------------------------------------------------------------------------
#
# Each resolves ``path`` on the op's plane ``svc``, checks that
# ``principal`` holds ``need`` on it and returns what ``ctx.target``
# holds — the catalog calls, in order, the handlers used to make.

def _object(svc, principal, path, need):
    """The object at ``path``."""
    obj = svc.mcat.get_object(paths.normalize(path))
    svc.access.require_object(principal, obj, need)
    return obj


def _resolved(svc, principal, path, need):
    """The object at ``path``, or the one it links to."""
    obj = svc._resolve_link(svc.mcat.get_object(paths.normalize(path)))
    svc.access.require_object(principal, obj, need)
    return obj


def _entry(svc, principal, path, need):
    """``(kind, id, object row or None)`` of the object or collection at
    ``path`` (``PlaneService._target_for_metadata``)."""
    entry = svc._target_for_metadata(path)
    svc.access.require_entry(principal, entry[2], path, need)
    return entry


def _collection(svc, principal, path, need):
    """The collection ``path`` itself."""
    svc.access.require_collection(principal, path, need)
    return path


def _parent(svc, principal, path, need):
    """The collection that holds (or is to hold) ``path``."""
    parent = paths.dirname(paths.normalize(path))
    svc.access.require_collection(principal, parent, need)
    return parent


def _container(svc, principal, path, need):
    """The container object at ``path``."""
    cont = svc.containers.get_container(paths.normalize(path))
    svc.access.require_object(principal, cont, need)
    return cont


#: ``target=`` kind -> its resolver
TARGETS: Dict[str, Callable] = {
    "object": _object, "resolved": _resolved, "entry": _entry,
    "collection": _collection, "parent": _parent, "container": _container}

#: Ops whose handler checks a permission itself (or runs the ops that
#: do), and why the declaration cannot say the same thing in the same
#: order.  Every other scoped op declares ``need=``.
WRITTEN_CHECKS = {
    "move": "second target", "copy_metadata": "second target",
    "extract_metadata": "second target",
    "bulk_ingest": "per item", "bulk_get": "per item",
    "bulk_query_metadata": "per item",
    "get": "shadow fallback", "list_collection": "shadow fallback",
    "list_collection_page": "shadow fallback",
    "copy": "kind checked first", "put": "kind checked first",
    "replicate": "kind checked first",
    "register_replica": "kind checked first",
    "physical_move": "kind checked first",
    "unlock": "own rows only", "unpin": "own rows only",
    "ingest": "own order", "link": "own order", "stat": "own order",
    "get_metadata": "own order", "migrate_collection": "own order",
    "open_object": "nested ops",
}


@dataclass(frozen=True)
class OpSpec:
    """One RPC operation's declaration (see :func:`rpc_op`)."""

    name: str                           #: RPC method name clients call
    plane: str = "?"                    #: owning plane service (set at registration)
    attr: str = ""                      #: method attribute on the service
    auth: bool = True                   #: validate the caller's ticket
    mcat_hop: bool = True               #: charge the catalog round trip
    scope_arg: Optional[str] = None     #: kwarg holding the op's subject path
    forwardable: bool = False           #: reads: forward to a peer zone
    write: bool = False                 #: mutations: refuse foreign scopes
    audit: Optional[str] = None         #: audit action recorded on success
    audit_arg: Optional[str] = None     #: kwarg audited as target (default: scope_arg)
    audit_denied: Optional[bool] = None  #: audit ok=False on denial (default: write)
    detail_arg: Optional[str] = None    #: kwarg audited as detail
    detail: Optional[str] = None        #: static audit detail
    span_args: Tuple[str, ...] = ()     #: kwargs copied onto the op span
    span_items: Optional[str] = None    #: sequence kwarg -> span attr items=len(...)
    payload_arg: Optional[str] = None   #: kwarg a client may announce (DeferredPayload)
    payload_items: Optional[str] = None  #: sequence kwarg whose items' "data" it may
    need: Optional[str] = None          #: permission the plan checks on the subject
    target: Optional[str] = None        #: how the subject is found (TARGETS)

    @property
    def span_name(self) -> str:
        return f"srb.{self.plane}.{self.name}"

    @property
    def audits_denied(self) -> bool:
        return self.audit_denied if self.audit_denied is not None \
            else self.write


def rpc_op(name: str, *,
           auth: bool = True,
           mcat_hop: bool = True,
           scope_arg: Optional[str] = None,
           forwardable: bool = False,
           write: bool = False,
           audit: Optional[str] = None,
           audit_arg: Optional[str] = None,
           audit_denied: Optional[bool] = None,
           detail_arg: Optional[str] = None,
           detail: Optional[str] = None,
           span_args: Tuple[str, ...] = (),
           span_items: Optional[str] = None,
           payload_arg: Optional[str] = None,
           payload_items: Optional[str] = None,
           need: Optional[str] = None,
           target: Optional[str] = None) -> Callable:
    """Declare a plane-service method as an RPC operation.

    The declaration is stored on the function; :class:`Dispatcher`
    collects it when the plane service registers.  Validation happens
    here so a bad declaration fails at import time, not at call time.

    ``need=`` (a permission of ``mcat.schema.PERMISSIONS``) with
    ``target=`` (a kind of :data:`TARGETS`) makes the plan resolve the
    ``scope_arg`` path, check the caller holds ``need`` on it and hand
    the row to the handler as ``ctx.target``: the handler checks nothing
    on its subject itself (``tools/lint_dispatch.py`` rule 9).
    """
    if forwardable and scope_arg is None:
        raise ValueError(f"op {name!r}: forwardable requires scope_arg")
    if forwardable and write:
        raise ValueError(f"op {name!r}: an op cannot be both forwardable "
                         "and a write (cross-zone forwarding is read-only)")
    if write and scope_arg is None:
        raise ValueError(f"op {name!r}: write requires scope_arg (the zone "
                         "check needs a subject path)")
    if detail is not None and detail_arg is not None:
        raise ValueError(f"op {name!r}: detail and detail_arg are exclusive")
    if audit is None and (audit_arg or detail_arg or detail
                          or audit_denied is not None):
        raise ValueError(f"op {name!r}: audit refinements require audit=")
    if payload_arg is not None and payload_items is not None:
        raise ValueError(f"op {name!r}: payload_arg and payload_items are "
                         "exclusive (an op has one payload slot)")
    if (need is None) != (target is None):
        raise ValueError(f"op {name!r}: need and target come together")
    if need is not None and scope_arg is None:
        raise ValueError(f"op {name!r}: need requires scope_arg (the check "
                         "needs a subject path)")
    if need is not None and (need not in PERMISSIONS
                             or target not in TARGETS):
        raise ValueError(f"op {name!r}: unknown need={need!r} or "
                         f"target={target!r}")

    decl = dict(name=name, auth=auth, mcat_hop=mcat_hop, scope_arg=scope_arg,
                forwardable=forwardable, write=write, audit=audit,
                audit_arg=audit_arg, audit_denied=audit_denied,
                detail_arg=detail_arg, detail=detail,
                span_args=tuple(span_args), span_items=span_items,
                payload_arg=payload_arg, payload_items=payload_items,
                need=need, target=target)

    def decorate(fn: Callable) -> Callable:
        fn.__rpc_op__ = decl
        return fn
    return decorate


def declared_ops(service_class: type) -> List[Tuple[OpSpec, Callable]]:
    """``(spec, handler)`` for every ``@rpc_op``-declared method of a
    plane service class, in attribute order.

    The one place a declaration is read: the server's
    :class:`Dispatcher` registers these, and ``SrbClient`` generates its
    forwards from the same pairs.
    """
    ops = []
    for attr in sorted(dir(service_class)):
        fn = getattr(service_class, attr, None)
        decl = getattr(fn, "__rpc_op__", None)
        if decl is not None:
            ops.append((OpSpec(plane=service_class.plane, attr=attr, **decl),
                        fn))
    return ops


class OpContext:
    """Per-call state the op plan hands to the handler."""

    __slots__ = ("server", "spec", "ticket", "kwargs", "principal", "span",
                 "payload_host", "target", "_audit_action", "_audit_target",
                 "_audit_detail", "_audit_suppressed")

    def __init__(self, server: Any, spec: OpSpec, ticket: Optional[Ticket],
                 kwargs: Dict[str, Any], payload_host: str):
        self.server = server
        self.spec = spec
        self.ticket = ticket
        self.kwargs = kwargs
        # where a write op's payload bytes are: on this server (they
        # rode the request), or still on the caller's host when the
        # client announced them with a DeferredPayload claim instead.
        # Unwrapped either way, so handlers see plain bytes.
        self.payload_host = payload_host
        self.principal: Optional[Principal] = None
        self.span = None
        # the subject the plan resolved and checked (spec.need/target)
        self.target: Any = None
        # what the handler refined; the declared defaults are filled in
        # by the plan when (and only if) the record is written
        self._audit_action = spec.audit
        self._audit_target: Optional[str] = None
        self._audit_detail: Optional[str] = None
        self._audit_suppressed = False

    def audit(self, action: Optional[str] = None,
              target: Optional[str] = None,
              detail: Optional[str] = None) -> None:
        """Refine the declared audit record from inside a handler."""
        if self.spec.audit is None:
            # the op's plan has no audit stage to read the refinement
            raise SrbError(f"op {self.spec.name!r} declares no audit= "
                           "and cannot write an audit record")
        if action is not None:
            self._audit_action = action
        if target is not None:
            self._audit_target = target
        if detail is not None:
            self._audit_detail = detail

    def suppress_audit(self) -> None:
        """Skip the success audit for this call (used when an op delegates
        wholesale to other audited ops, e.g. collection copy)."""
        self._audit_suppressed = True

    def require_local(self, path: str) -> None:
        """Per-item zone check for bulk ops (the batch itself is unscoped).
        Like the plan's zone stage, nil while there is no peer zone."""
        server = self.server
        if server.federation.peers:
            server._require_local(path, self.spec.name)


# ---------------------------------------------------------------------------
# the op plan: the six stages of one op, compiled into one function
# ---------------------------------------------------------------------------

def _compile(server: Any, spec: OpSpec, service: Any,
             fn: Callable) -> Callable[[Optional[Ticket], Dict[str, Any]],
                                       Any]:
    """Build ``run(ticket, kwargs)`` for one op on one server.

    Everything the declaration or the server's place in the federation
    fixes is resolved here, once — the target resolver among it; ``run``
    keeps the documented order error → span → auth → zone → hop → audit
    (the check inside it) and leaves out the stages that are nil for
    this op (module docstring).
    """
    fed = server.federation
    rpc, channels = fed.rpc, fed.channels
    tracer = server.obs.tracer
    metrics = server.obs.metrics
    op, host, server_name = spec.name, server.host, server.name
    ops = metrics.bind_counter("srb.ops", server=server_name,
                               plane=spec.plane, op=op)
    span_name, span_args, span_items = \
        spec.span_name, spec.span_args, spec.span_items
    payload_arg, payload_items = spec.payload_arg, spec.payload_items
    carries = payload_arg is not None or payload_items is not None
    needs_auth, scope_arg, forwardable = \
        spec.auth, spec.scope_arg, spec.forwardable
    # the hop is a charged round trip only off the catalog's server, or
    # when the catalog has shards to choose from (the route is metered
    # per shard)
    remote_catalog = spec.mcat_hop and (
        not server.is_mcat_server or len(fed.mcat.shards) > 1)
    resolve, need = TARGETS.get(spec.target), spec.need
    audited = spec.audit is not None
    audits_denied = audited and spec.audits_denied
    audit_arg = spec.audit_arg or spec.scope_arg
    detail_arg, static_detail = spec.detail_arg, spec.detail

    errors = metrics.bind_family(("server", "op", "error"),
                                 ("counter", "srb.errors"))

    def run(ticket: Optional[Ticket], kwargs: Dict[str, Any]) -> Any:
        # the payload rode a remote caller's request, unless it was
        # announced: then it waits on the caller's host (payload_host)
        caller_host = rpc.caller_host
        payload_host = host
        inbound = caller_host if carries and caller_host != host else None
        if payload_arg is not None:
            data = kwargs.get(payload_arg)
            if type(data) is DeferredPayload:
                kwargs = {**kwargs, payload_arg: data.data}
                payload_host, inbound = caller_host or host, None
        elif payload_items is not None:
            items, found = _announced_items(kwargs.get(payload_items))
            if found:
                kwargs = {**kwargs, payload_items: items}
                payload_host, inbound = caller_host or host, None
        ctx = OpContext(server, spec, ticket, kwargs, payload_host)
        span = None
        try:                                            # 1. error
            ops.inc()                                   # 2. span
            if tracer.stack:
                attrs = {"server": server_name}
                for arg in span_args:
                    attrs[arg] = kwargs.get(arg)
                if span_items is not None:
                    attrs["items"] = len(kwargs.get(span_items) or ())
                span = ctx.span = tracer.open(span_name, attrs)
            if needs_auth:                              # 3. auth
                ctx.principal = server._auth(ticket)
            scope = zone = None
            if scope_arg is not None:                   # 4. zone
                scope = kwargs.get(scope_arg)
                if type(scope) is not str and not isinstance(scope, str):
                    scope = None
                elif fed.peers:
                    zone = server._foreign_zone(scope)
            if zone is not None:
                if not forwardable:
                    raise UnsupportedOperation(
                        f"{op} in foreign zone {zone!r} requires "
                        "connecting to a server of that zone (cross-zone "
                        "forwarding is read-only)")
                result = server._forward(zone, op, ticket, **kwargs)
            else:
                if remote_catalog:                      # 5. hop
                    server._mcat_hop(scope)
                else:
                    server.ops_served += 1
                # the leg runner relays this op's payload legs (and none
                # of an op it runs in-process, which sets its own)
                outer, channels.inbound = channels.inbound, inbound
                try:                                    # 6. audit
                    if resolve is not None:             #    the check
                        ctx.target = resolve(service, ctx.principal,
                                             kwargs[scope_arg], need)
                    result = fn(service, ctx, **kwargs)
                except (AccessDenied, AuthError):
                    # a denied mutation is itself an auditable event
                    if audits_denied and ctx.principal is not None:
                        target = ctx._audit_target
                        if target is None:
                            target = _declared(kwargs, audit_arg)
                        server._audit(ctx.principal, ctx._audit_action,
                                      target or "-", ok=False)
                    raise
                finally:
                    channels.inbound = outer
                if audited and not ctx._audit_suppressed:
                    target, detail = ctx._audit_target, ctx._audit_detail
                    if target is None:
                        target = _declared(kwargs, audit_arg)
                    if detail is None:
                        detail = static_detail if detail_arg is None \
                            else _declared(kwargs, detail_arg)
                    server._audit(
                        ctx.principal if ctx.principal is not None
                        else PUBLIC,
                        ctx._audit_action, target or "-", detail=detail)
        except BaseException as exc:
            if span is not None:
                tracer.close(span, exc)
            if isinstance(exc, Exception):
                errors[server_name, op, type(exc).__name__][0].inc()
            raise
        if span is not None:
            tracer.close(span)
        return result

    return run


def _declared(kwargs: Dict[str, Any], arg: Optional[str]) -> Optional[str]:
    """The audit field an op declares by naming a kwarg, as text."""
    value = kwargs.get(arg) if arg else None
    return str(value) if value is not None else None


@dataclass
class RegisteredOp:
    """One op as the dispatcher runs it: spec + service + compiled plan
    (``run`` is filled in by the op's first call)."""

    spec: OpSpec
    service: Any
    impl: Callable
    run: Optional[Callable[[Optional[Ticket], Dict[str, Any]], Any]] = None


class Dispatcher:
    """The server's op registry: collects ``@rpc_op`` declarations from
    plane services and runs every call through that op's plan."""

    def __init__(self, server: Any):
        self.server = server
        self._ops: Dict[str, RegisteredOp] = {}

    # -- registration -------------------------------------------------------

    def register_service(self, service: Any) -> None:
        """Collect every ``@rpc_op``-declared method of ``service``."""
        for spec, fn in declared_ops(type(service)):
            if spec.name in self._ops:
                other = self._ops[spec.name].spec
                raise SrbError(
                    f"duplicate rpc op {spec.name!r}: declared by both "
                    f"{other.plane}.{other.attr} and {spec.plane}.{spec.attr}")
            self._ops[spec.name] = RegisteredOp(spec=spec, service=service,
                                                impl=fn)

    # -- dispatch -----------------------------------------------------------

    def call(self, name: str, ticket: Optional[Ticket],
             kwargs: Dict[str, Any]) -> Any:
        reg = self._ops[name]
        run = reg.run
        if run is None:
            # compiled once, by the first call: building a grid does not
            # pay for the plans of ops it never serves
            run = reg.run = _compile(self.server, reg.spec, reg.service,
                                     reg.impl)
        return run(ticket, kwargs)

    # -- introspection ------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def names(self) -> List[str]:
        return sorted(self._ops)

    def get(self, name: str) -> RegisteredOp:
        return self._ops[name]

    def specs(self) -> List[OpSpec]:
        return [self._ops[n].spec for n in self.names()]

    def render(self) -> str:
        """Plain-text registry listing (``Sdispatch`` prints this)."""
        lines = []
        for spec in sorted(self.specs(),
                           key=lambda s: (s.plane, s.name)):
            flags = []
            if spec.forwardable:
                flags.append("forwardable")
            if spec.write:
                flags.append("write")
            if not spec.auth:
                flags.append("no-auth")
            if spec.audit:
                flags.append(f"audit={spec.audit}")
            if spec.need:
                flags.append(f"need={spec.need}@{spec.target}")
            if spec.name in WRITTEN_CHECKS:
                flags.append("checks=written")
            lines.append(f"{spec.plane:<10} {spec.name:<22} "
                         f"{' '.join(flags)}".rstrip())
        return "\n".join(lines)
