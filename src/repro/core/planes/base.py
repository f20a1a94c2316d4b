"""Shared base for the SRB server's plane services.

A plane service owns one functional slice of the server (namespace,
data, replica, metadata, auth); the :class:`~repro.core.dispatch.Dispatcher`
routes every RPC into exactly one of them after the middleware pipeline
has handled auth / spans / zone forwarding / audit.  The base class
provides the accessors into federation-shared state and the storage
plumbing several planes need (resource sessions, data pulls/pushes,
shadow-directory and catalog-target resolution).

Handlers on a plane never open sessions to *policy* plumbing — no
``_auth``/``_audit``/``_mcat_hop``/``_forward`` calls appear in plane
code (``tools/lint_dispatch.py`` enforces it); those are pipeline
stages.  What lives here is *data-path* plumbing only.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Tuple

from repro.auth.tickets import TicketAuthority
from repro.auth.users import UserRegistry
from repro.core.access import AccessController
from repro.core.containers import ContainerManager
from repro.core.locking import LockManager
from repro.errors import HostUnreachable, NoSuchObject
from repro.mcat.catalog import Mcat
from repro.storage.resource import PhysicalResource, ResourceRegistry
from repro.util import paths


def content_checksum(data: bytes) -> str:
    """Checksum recorded in MCAT at ingest and verified on demand."""
    return hashlib.sha256(data).hexdigest()


_CONTROL_MSG = 256      # bytes of a control message between servers
_OPEN_MSG = 64          # tiny "open" probe sent to a resource host
_AUTH_MSG = 200         # challenge/response message size
# what opening a session puts on the wire, in order, server first
_SESSION_MSGS = (_OPEN_MSG,)
_NO_SSO_SESSION_MSGS = (_AUTH_MSG,) * 4 + _SESSION_MSGS


class PlaneService:
    """One functional plane of an SRB server."""

    plane = "?"

    def __init__(self, server: Any):
        self.server = server

    # ------------------------------------------------------------------
    # shorthand accessors (same shared state the server façade exposes)
    # ------------------------------------------------------------------

    @property
    def federation(self):
        return self.server.federation

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def mcat(self) -> Mcat:
        return self.federation.mcat

    @property
    def users(self) -> UserRegistry:
        return self.federation.users

    @property
    def authority(self) -> TicketAuthority:
        return self.federation.authority

    @property
    def resources(self) -> ResourceRegistry:
        return self.federation.resources

    @property
    def access(self) -> AccessController:
        return self.federation.access

    @property
    def locks(self) -> LockManager:
        return self.federation.locks

    @property
    def containers(self) -> ContainerManager:
        return self.federation.containers

    @property
    def network(self):
        return self.federation.network

    @property
    def obs(self):
        return self.federation.obs

    @property
    def clock(self):
        return self.federation.clock

    @property
    def now(self) -> float:
        return self.clock.now

    # ------------------------------------------------------------------
    # storage data-path plumbing
    # ------------------------------------------------------------------

    def _session_owed(self, res: PhysicalResource) -> Tuple[int, ...]:
        """Sizes of the messages this server still owes to touch ``res``.

        Empty while the server holds a session opened under the current
        topology epoch.  Otherwise: with SSO the server presents (and
        the resource locally validates) the zone ticket — just the tiny
        open probe; without SSO it first runs a full challenge–response
        against the resource's own security domain, two extra round
        trips (experiment E7).  This is the one definition of what
        touching a resource costs: :meth:`_resource_session` sends these
        messages, and the placement engine prices them when it picks a
        stripe count.
        """
        fed = self.federation
        if self.server._session_cache.get(res.name) \
                == fed.network.topology_epoch:
            return ()
        return _SESSION_MSGS if fed.sso_enabled else _NO_SSO_SESSION_MSGS

    def _resource_session(self, res: PhysicalResource) -> None:
        """Open (or reuse) a session to a storage resource's host.

        The server keeps its sessions alive across operations: a repeat
        touch of the same resource pays *nothing* on the wire (metric
        ``srb.session_cache{result=hit}``).  Sessions are keyed on the
        network's topology epoch, so any ``set_down``/``set_up``/
        ``partition``/``heal`` invalidates every one of them — E2's
        failover still pays its charged timeout.  A session that errors
        (:class:`HostUnreachable`/:class:`ResourceUnavailable` on the
        data path) is dropped via :meth:`_invalidate_session`;
        ``reset_sessions`` is the explicit flush, and how a test or
        benchmark measures a cold touch.
        """
        owed = self._session_owed(res)
        obs = self.obs
        if not owed:
            obs.metrics.inc("srb.session_cache", result="hit",
                            server=self.server.name, resource=res.name)
            obs.tracer.add("session_cache_hits", 1)
            return
        obs.metrics.inc("srb.session_cache", result="miss",
                        server=self.server.name, resource=res.name)
        src, dst = self.host, res.host
        try:
            # server and resource take turns, the server first and last
            for nbytes in owed:
                self.network.transfer(src, dst, nbytes)
                src, dst = dst, src
        except HostUnreachable:
            self._invalidate_session(res)
            raise
        self.server._session_cache[res.name] = self.network.topology_epoch

    def _invalidate_session(self, res: PhysicalResource) -> None:
        """Drop this server's session to ``res`` (if any)."""
        self.server._session_cache.pop(res.name, None)

    def _pull_from_resource(self, res: PhysicalResource, nbytes: int) -> None:
        if res.host != self.host:
            self.network.transfer(res.host, self.host, nbytes,
                                  streams=self.federation.data_streams)

    def _push_to_resource(self, res: PhysicalResource, nbytes: int) -> None:
        if res.host != self.host:
            self.network.transfer(self.host, res.host, nbytes,
                                  streams=self.federation.data_streams)

    # ------------------------------------------------------------------
    # direct data channels (Federation(direct_io=True))
    # ------------------------------------------------------------------
    #
    # These helpers are the ONLY sanctioned byte movers in plane code
    # (tools/lint_dispatch.py rule 6): each one either routes through
    # the federation's ChannelBroker — charging the bytes once, on the
    # actual source→sink path — or falls back to the exact historical
    # pass-through transfer, byte-identical with direct_io off.

    def _redirect_sink(self, ctx) -> Optional[str]:
        """The caller host a read op should redirect bytes to, if any.

        ``None`` means pass-through: direct I/O is off, the op was
        invoked in-process (no RPC caller), or the caller is colocated
        with this server so there is no second crossing to save.
        """
        if not self.federation.direct_io:
            return None
        sink = ctx.caller_host
        if sink is None or sink == self.host:
            return None
        return sink

    def _payload_source(self, ctx) -> Optional[str]:
        """The host a write op's payload bytes still live on, if any.

        Non-``None`` only when the client deferred the payload
        (direct_io): the bytes then move ``payload_src → resource``
        instead of riding the request and being pushed server→resource.
        """
        return ctx.payload_src

    def _channel_push(self, ctx, res: PhysicalResource, nbytes: int,
                      path_key: str = "", label: str = "ingest") -> None:
        """Move a write payload onto ``res`` (channel or pass-through)."""
        src = self._payload_source(ctx)
        if src is None:
            self._push_to_resource(res, nbytes)
        elif src != res.host:
            self.federation.channels.run(
                src, res.host, nbytes, path_key,
                streams=self.federation.data_streams, label=label)

    def _channel_copy(self, src_host: str, res: PhysicalResource,
                      nbytes: int, path_key: str = "",
                      label: str = "copy") -> None:
        """Move bytes ``src_host → res`` (resource→resource legs)."""
        if src_host == res.host:
            return
        if self.federation.direct_io:
            self.federation.channels.run(
                src_host, res.host, nbytes, path_key,
                streams=self.federation.data_streams, label=label)
        else:
            self.network.transfer(src_host, res.host, nbytes,
                                  streams=self.federation.data_streams)

    def _redirect_reply(self, payload, parts, sink: str,
                        label: str = "get", retry: bool = False,
                        parallel: bool = False):
        """Build a :class:`~repro.net.wire.Redirect` reply.

        ``parts`` is a list of ``(src_host, nbytes, path_key)`` legs the
        caller's RPC layer will execute as channels toward ``sink``.
        """
        from repro.net.wire import Redirect
        streams = self.federation.data_streams
        channels = [
            self.federation.channels.open(src, sink, nbytes, path_key,
                                          streams=streams, label=label)
            for src, nbytes, path_key in parts]
        return Redirect(payload, channels, parallel=parallel, retry=retry,
                        label=label)

    # ------------------------------------------------------------------
    # catalog resolution shared across planes
    # ------------------------------------------------------------------

    def _resolve_link(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        if obj["kind"] != "link":
            return obj
        target = self.mcat.find_object(str(obj["target"]))
        if target is None:
            raise NoSuchObject(
                f"link {obj['path']!r} target {obj['target']!r} is gone")
        return target

    def _target_for_metadata(self, path: str) -> Tuple[str, int,
                                                       Dict[str, Any]]:
        path = paths.normalize(path)
        obj = self.mcat.find_object(path)
        if obj is not None:
            return "object", int(obj["oid"]), obj
        if self.mcat.collection_exists(path):
            coll = self.mcat.get_collection(path)
            return "collection", int(coll["cid"]), coll
        raise NoSuchObject(f"no object or collection {path!r}")

    # ------------------------------------------------------------------
    # shadow directories (namespace lists them, data serves their files)
    # ------------------------------------------------------------------

    def _find_shadow(self, path: str) -> Optional[Dict[str, Any]]:
        """Nearest ancestor object of kind shadow-dir covering ``path``."""
        for ancestor in reversed(paths.ancestors(path)):
            if ancestor == "/":
                break
            obj = self.mcat.find_object(ancestor)
            if obj is not None:
                return obj if obj["kind"] == "shadow-dir" else None
        return None

    def _shadow_physical(self, shadow: Dict[str, Any], path: str) -> str:
        rel = paths.relocate(path, str(shadow["path"]), "/")
        root = str(shadow["target"]).rstrip("/")
        return root + rel
