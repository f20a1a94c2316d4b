"""Declarative RPC dispatch: an op registry plus a middleware pipeline.

The paper describes the SRB server as a *layered* system: one common
request interface in front of distinct namespace, data-movement, replica
and metadata functions.  Before this module existed, our server was a
single class where every RPC handler hand-rolled the cross-cutting
concerns — auth, tracing, audit, cross-zone forwarding, error accounting
— and did so inconsistently.  Here those concerns become an ordered
middleware pipeline that *every* server RPC runs through, and a handler
is just a method on a plane service carrying a declaration::

    @rpc_op("query", scope_arg="scope", forwardable=True, audit="query",
            span_args=("scope",))
    def query(self, ctx, scope, conditions, ...):
        ...only the query logic...

Pipeline order (outermost first) — this is a *contract*; stages and
tests depend on it:

1. **error**    — label failures on the ``srb.errors`` metric, re-raise.
2. **span**     — open the ``srb.<plane>.<op>`` span and increment the
                  ``srb.ops`` counter (exactly once per op, every op).
3. **auth**     — validate the caller's SSO ticket (skipped for the
                  login handshake itself).
4. **zone**     — if the op's scope path lies in a federated peer zone:
                  forward reads (``forwardable=True``) to the peer and
                  refuse everything else with ``UnsupportedOperation``
                  (cross-zone forwarding is read-only).
5. **hop**      — count the op as served and charge the MCAT round trip
                  when this server is not the catalog holder.
6. **audit**    — after the handler returns, write the declared audit
                  record; on ``AccessDenied``/``AuthError`` from a
                  mutation, write it with ``ok=False`` instead.

Stages 1–3 are free on the virtual clock, so the refactor from inline
preambles to this pipeline is behavior-preserving on the simulated
clock (``benchmarks/test_refactor_parity.py`` holds it to that).

Handlers receive an :class:`OpContext` as their second argument for the
rare dynamic cases: refining the audit record (``ctx.audit(detail=...)``),
adding span counters (``ctx.span``), or per-item zone checks in bulk ops
(``ctx.require_local``).  Everything else is declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.auth.tickets import Ticket
from repro.auth.users import PUBLIC, Principal
from repro.errors import AccessDenied, AuthError, SrbError, \
    UnsupportedOperation
from repro.net.wire import DeferredPayload


def _unwrap_deferred(value: Any) -> Tuple[Any, bool]:
    """Strip :class:`DeferredPayload` wrappers from an op's kwargs.

    Returns ``(unwrapped, found)``.  Wrappers appear at the top level
    (``data=DeferredPayload(...)``) and inside the dict/list structures
    bulk ops carry; anything else is returned untouched.
    """
    if isinstance(value, DeferredPayload):
        return value.data, True
    if isinstance(value, dict):
        found = False
        out = {}
        for k, v in value.items():
            out[k], hit = _unwrap_deferred(v)
            found = found or hit
        return (out if found else value), found
    if isinstance(value, (list, tuple)):
        items, hits = [], False
        for v in value:
            item, hit = _unwrap_deferred(v)
            items.append(item)
            hits = hits or hit
        if not hits:
            return value, False
        return (type(value)(items) if isinstance(value, tuple)
                else items), True
    return value, False


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
           span_items: Optional[str] = None) -> Callable:
    """Declare a plane-service method as an RPC operation.

    The declaration is stored on the function; :class:`Dispatcher`
    collects it when the plane service registers.  Validation happens
    here so a bad declaration fails at import time, not at call time.
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

    decl = dict(name=name, auth=auth, mcat_hop=mcat_hop, scope_arg=scope_arg,
                forwardable=forwardable, write=write, audit=audit,
                audit_arg=audit_arg, audit_denied=audit_denied,
                detail_arg=detail_arg, detail=detail,
                span_args=tuple(span_args), span_items=span_items)

    def decorate(fn: Callable) -> Callable:
        fn.__rpc_op__ = decl
        return fn
    return decorate


class OpContext:
    """Per-call state threaded through the pipeline into the handler."""

    __slots__ = ("server", "spec", "ticket", "kwargs", "principal", "span",
                 "caller_host", "payload_host",
                 "_audit_action", "_audit_target", "_audit_detail",
                 "_audit_suppressed")

    def __init__(self, server: Any, spec: OpSpec, ticket: Optional[Ticket],
                 kwargs: Dict[str, Any]):
        self.server = server
        self.spec = spec
        self.ticket = ticket
        # host of the RPC caller currently being served (None when the
        # op was invoked in-process, e.g. a facade method calling back)
        self.caller_host: Optional[str] = \
            server.federation.rpc.caller_host
        # where a write op's payload bytes are: on this server (they
        # rode the request), or still on the caller's host when the
        # client announced them with a DeferredPayload claim instead.
        # Unwrapped either way, so handlers see plain bytes.
        kwargs, deferred = _unwrap_deferred(kwargs)
        self.payload_host: str = \
            self.caller_host if deferred else server.host
        self.kwargs = kwargs
        self.principal: Optional[Principal] = None
        self.span = None
        self._audit_action = spec.audit
        arg = spec.audit_arg or spec.scope_arg
        value = kwargs.get(arg) if arg else None
        self._audit_target = str(value) if value is not None else None
        if spec.detail is not None:
            self._audit_detail: Optional[str] = spec.detail
        elif spec.detail_arg is not None:
            dv = kwargs.get(spec.detail_arg)
            self._audit_detail = str(dv) if dv is not None else None
        else:
            self._audit_detail = None
        self._audit_suppressed = False

    def audit(self, action: Optional[str] = None,
              target: Optional[str] = None,
              detail: Optional[str] = None) -> None:
        """Refine the declared audit record from inside a handler."""
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
        """Per-item zone check for bulk ops (the batch itself is unscoped)."""
        self.server._require_local(path, self.spec.name)


# ---------------------------------------------------------------------------
# pipeline stages, outermost first
# ---------------------------------------------------------------------------

def _stage_error(ctx: OpContext, nxt: Callable) -> Any:
    try:
        return nxt(ctx)
    except Exception as exc:
        ctx.server.obs.metrics.inc("srb.errors", server=ctx.server.name,
                                   op=ctx.spec.name,
                                   error=type(exc).__name__)
        raise


def _stage_span(ctx: OpContext, nxt: Callable) -> Any:
    server, spec = ctx.server, ctx.spec
    server.obs.metrics.inc("srb.ops", server=server.name, plane=spec.plane,
                           op=spec.name)
    attrs = {a: ctx.kwargs.get(a) for a in spec.span_args}
    if spec.span_items is not None:
        attrs["items"] = len(ctx.kwargs.get(spec.span_items) or ())
    with server.obs.tracer.span(spec.span_name, server=server.name,
                                **attrs) as sp:
        ctx.span = sp
        return nxt(ctx)


def _stage_auth(ctx: OpContext, nxt: Callable) -> Any:
    if ctx.spec.auth:
        ctx.principal = ctx.server._auth(ctx.ticket)
    return nxt(ctx)


def _stage_zone(ctx: OpContext, nxt: Callable) -> Any:
    spec = ctx.spec
    if spec.scope_arg is not None:
        scope = ctx.kwargs.get(spec.scope_arg)
        zone = ctx.server._foreign_zone(scope) \
            if isinstance(scope, str) else None
        if zone is not None:
            if spec.forwardable:
                return ctx.server._forward(zone, spec.name, ctx.ticket,
                                           **ctx.kwargs)
            raise UnsupportedOperation(
                f"{spec.name} in foreign zone {zone!r} requires connecting "
                "to a server of that zone (cross-zone forwarding is "
                "read-only)")
    return nxt(ctx)


def _stage_hop(ctx: OpContext, nxt: Callable) -> Any:
    if ctx.spec.mcat_hop:
        scope = ctx.kwargs.get(ctx.spec.scope_arg) \
            if ctx.spec.scope_arg else None
        ctx.server._mcat_hop(scope if isinstance(scope, str) else None)
    else:
        ctx.server.ops_served += 1
    return nxt(ctx)


def _stage_audit(ctx: OpContext, nxt: Callable) -> Any:
    spec = ctx.spec
    try:
        result = nxt(ctx)
    except (AccessDenied, AuthError):
        # a denied mutation is itself an auditable event
        if spec.audit is not None and spec.audits_denied \
                and ctx.principal is not None:
            ctx.server._audit(ctx.principal, ctx._audit_action,
                              ctx._audit_target or "-", ok=False)
        raise
    if ctx._audit_action is not None and not ctx._audit_suppressed:
        ctx.server._audit(
            ctx.principal if ctx.principal is not None else PUBLIC,
            ctx._audit_action, ctx._audit_target or "-",
            detail=ctx._audit_detail)
    return result


STAGES: Tuple[Callable, ...] = (_stage_error, _stage_span, _stage_auth,
                                _stage_zone, _stage_hop, _stage_audit)


def _compose(stages: Tuple[Callable, ...],
             terminal: Callable) -> Callable:
    chain = terminal
    for stage in reversed(stages):
        def wrapped(ctx, _stage=stage, _nxt=chain):
            return _stage(ctx, _nxt)
        chain = wrapped
    return chain


@dataclass
class RegisteredOp:
    """One op as the dispatcher runs it: spec + service + built pipeline."""

    spec: OpSpec
    service: Any
    impl: Callable
    chain: Callable = field(repr=False, default=None)


class Dispatcher:
    """The server's op registry: collects ``@rpc_op`` declarations from
    plane services and runs every call through the middleware pipeline."""

    def __init__(self, server: Any):
        self.server = server
        self._ops: Dict[str, RegisteredOp] = {}

    # -- registration -------------------------------------------------------

    def register_service(self, service: Any) -> None:
        """Collect every ``@rpc_op``-declared method of ``service``."""
        plane = service.plane
        for attr in sorted(dir(type(service))):
            fn = getattr(type(service), attr, None)
            decl = getattr(fn, "__rpc_op__", None)
            if decl is None:
                continue
            spec = OpSpec(plane=plane, attr=attr, **decl)
            if spec.name in self._ops:
                other = self._ops[spec.name].spec
                raise SrbError(
                    f"duplicate rpc op {spec.name!r}: declared by both "
                    f"{other.plane}.{other.attr} and {plane}.{attr}")

            def invoke(ctx, _service=service, _fn=fn):
                return _fn(_service, ctx, **ctx.kwargs)
            self._ops[spec.name] = RegisteredOp(
                spec=spec, service=service, impl=fn,
                chain=_compose(STAGES, invoke))

    # -- dispatch -----------------------------------------------------------

    def call(self, name: str, ticket: Optional[Ticket],
             kwargs: Dict[str, Any]) -> Any:
        reg = self._ops[name]
        return reg.chain(OpContext(self.server, reg.spec, ticket, kwargs))

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
            lines.append(f"{spec.plane:<10} {spec.name:<22} "
                         f"{' '.join(flags)}".rstrip())
        return "\n".join(lines)
