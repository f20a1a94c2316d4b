"""Shared base for the SRB server's plane services.

A plane service owns one functional slice of the server (namespace,
data, replica, metadata, auth); the :class:`~repro.core.dispatch.Dispatcher`
routes every RPC into exactly one of them after the middleware pipeline
has handled auth / spans / zone forwarding / audit.  The base class
provides the accessors into federation-shared state and the storage
plumbing several planes need (resource sessions, the write loop and the
read delivery over the federation's leg runner, shadow-directory and
catalog-target resolution).

Handlers on a plane never open sessions to *policy* plumbing — no
``_auth``/``_audit``/``_mcat_hop``/``_forward`` calls appear in plane
code (``tools/lint_dispatch.py`` enforces it); those are pipeline
stages.  What lives here is *data-path* plumbing only.
"""

from __future__ import annotations

import hashlib
from operator import methodcaller
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, \
    Tuple

from repro.auth.tickets import TicketAuthority
from repro.auth.users import Principal, UserRegistry
from repro.core.access import AccessController
from repro.core.containers import ContainerManager
from repro.core.locking import LockManager
from repro.core.replication import synchronize
from repro.errors import NoSuchObject, ReplicaUnavailable, \
    ResourceUnavailable, SrbError
from repro.mcat.catalog import Mcat
from repro.net.simnet import Network, TransferOutcome, raise_failed, \
    repull_failed
from repro.net.wire import Redirect
from repro.obs import Observability
from repro.storage.resource import PhysicalResource, ResourceRegistry
from repro.util import paths
from repro.util.clock import SimClock


def content_checksum(data: bytes) -> str:
    """Checksum recorded in MCAT at ingest and verified on demand."""
    return hashlib.sha256(data).hexdigest()


def content_checksums(datas: Sequence[bytes]) -> List[str]:
    """:func:`content_checksum` of each of ``datas``, in one call."""
    return list(map(methodcaller("hexdigest"), map(hashlib.sha256, datas)))


_CONTROL_MSG = 256      # bytes of a control message between servers
RELAY_BLOCK = 64 * 1024  # bytes a relaying server holds before sending on
_OPEN_MSG = 64          # tiny "open" probe sent to a resource host
_AUTH_MSG = 200         # challenge/response message size
# what opening a session puts on the wire, in order, server first
_SESSION_MSGS = (_OPEN_MSG,)
_NO_SSO_SESSION_MSGS = (_AUTH_MSG,) * 4 + _SESSION_MSGS


def link_view(own: Sequence[Dict[str, Any]],
              target: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """What a metadata read of a link shows, one op at a time or in a
    batch: the link's own rows, then its target's marked ``via_link``."""
    return [*own, *({**row, "via_link": True} for row in target)]


def relay_hidden(nbytes: int, inbound_s: float, outbound_s: float) -> float:
    """The cut-through law: seconds of a relayed payload's onward hop
    that hide behind the hop that brought it to the server.

    A server standing in the data path does not buffer an object whole:
    it sends each :data:`RELAY_BLOCK` on as it arrives, so the two hops
    stream at once and only the pipeline's fill — one block, which must
    have arrived before it can leave — is paid twice.  ``inbound_s`` and
    ``outbound_s`` are the hops' streaming times (``bytes /
    effective_bps``, no latency: propagation is not overlapped).  A
    payload of no more than a block is stored and forwarded."""
    if nbytes <= RELAY_BLOCK:
        return 0.0
    return (1 - RELAY_BLOCK / nbytes) * (
        inbound_s if inbound_s < outbound_s else outbound_s)


class Wired:
    """Carries its federation, and what the federation shares with each
    of its servers and their planes, as plain attributes.

    Nothing rebinds one of these after ``Federation.__init__`` (servers
    join a finished federation), so :meth:`_wire` copies the references
    once and no call pays a property hop for them.  Only ``now`` is
    computed: it is the one that moves."""

    mcat: Mcat
    users: UserRegistry
    authority: TicketAuthority
    resources: ResourceRegistry
    access: AccessController
    locks: LockManager
    containers: ContainerManager
    network: Network
    obs: Observability
    clock: SimClock

    def _wire(self, federation: Any) -> None:
        self.federation = federation
        for name in WIRING:
            setattr(self, name, getattr(federation, name))

    @property
    def now(self) -> float:
        return self.clock.now


#: the names :meth:`Wired._wire` binds: the attributes declared above
WIRING = tuple(Wired.__annotations__)


class PlaneService(Wired):
    """One functional plane of an SRB server."""

    plane = "?"

    def __init__(self, server: Any):
        self.server = server
        self.host: str = server.host
        self._wire(server.federation)

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
        server = self.server
        if not owed:
            server.session_counts["hit", res.name] += 1
            tracer = self.obs.tracer
            if tracer.stack:
                tracer.add("session_cache_hits", 1)
            return
        server.session_counts["miss", res.name] += 1
        # server and resource take turns, the server first and last; a
        # message that fails ends the exchange
        ends = (self.host, res.host)
        for k, nbytes in enumerate(owed):
            raise_failed(self._run_legs([(ends[k % 2], ends[1 - k % 2],
                                          nbytes, None)], [res], "session"))
        self.server._session_cache[res.name] = self.network.topology_epoch

    def _invalidate_session(self, res: PhysicalResource) -> None:
        """Drop this server's session to ``res`` (if any)."""
        self.server._session_cache.pop(res.name, None)

    # ------------------------------------------------------------------
    # payload movement: one leg runner, one write loop, one read delivery
    # ------------------------------------------------------------------
    #
    # Plane code says *what* must move; how it moves is decided by the
    # federation's leg runner (ChannelBroker.run_legs) alone.  No
    # handler puts a byte on the wire itself, payload or control
    # message (a leg whose path_key is None; tools/lint_dispatch.py
    # rule 6).

    def _run_legs(self, legs: Sequence[Tuple[str, str, int, Optional[str]]],
                  resources: Sequence[PhysicalResource],
                  label: str) -> List[TransferOutcome]:
        """Run ``legs`` (one per entry of ``resources``, the storage end
        of each) through the leg runner; a resource whose leg failed
        loses its session.  Returns the outcomes, judged by the caller."""
        outcomes = self.federation.channels.run_legs(legs, label)
        for res, outcome in zip(resources, outcomes):
            if outcome.error is not None:
                self._invalidate_session(res)
        return outcomes

    def _require_up(self, res_list: Sequence[PhysicalResource]) -> None:
        """Refuse a write onto ``res_list`` while a member's host is down:
        the check an aborting act makes before it sends a leg, and an
        ingest before it writes a catalog row."""
        for res in res_list:
            if not self.network.host(res.host).up:
                raise ResourceUnavailable(
                    f"resource {res.name!r} is down")

    def _reach(self, targets: Sequence[Tuple[PhysicalResource, Any]],
               label: str, on_failure: str = "abort",
               src_host: Optional[str] = None, nbytes: int = 0
               ) -> List[bool]:
        """Carry an act on each ``(resource, path_key)`` of ``targets`` to
        the resource's host, in this call, before its driver is touched:
        the one rule by which a server acts on storage.  Returns, aligned
        with ``targets``, whether the act reached each.

        A write (``src_host`` given) opens a session to each member and
        moves ``nbytes`` from ``src_host`` to it: a payload leg that
        crosses the wire carries the act to its member (one whose ends
        share a host moves nothing, and is not sent).  Every other
        member on another host than this server's is sent one control
        message first — a delete, a pin, a copy within one remote host.
        Under ``on_failure="abort"`` a member whose host is down refuses
        the act before any leg (:class:`ResourceUnavailable`) and a
        failed session or leg raises; under ``"skip"`` it drops its
        member only (a refresh, a rollback).  Whether payload legs relay
        bytes that arrived on the request being served is the op plan's
        to say, not the caller's (``ChannelBroker.inbound``).
        """
        if on_failure == "abort":
            for res, _key in targets:
                if not self.network.host(res.host).up:
                    self._require_up([res])
        ok = [True] * len(targets)
        if src_host is not None:
            for k, (res, _key) in enumerate(targets):
                try:
                    self._resource_session(res)
                except SrbError:
                    if on_failure == "abort":
                        raise
                    ok[k] = False
        control: List[Tuple[int, Tuple[str, str, int, Any]]] = []
        payload: List[Tuple[int, Tuple[str, str, int, Any]]] = []
        for k, (res, key) in enumerate(targets):
            if not ok[k]:
                continue
            if src_host is not None and res.host != src_host:
                payload.append((k, (src_host, res.host, nbytes, key)))
            elif res.host != self.host:
                control.append((k, (self.host, res.host, _CONTROL_MSG, None)))
        for sends in (control, payload):        # control messages first
            if not sends:
                continue
            outcomes = self._run_legs([leg for _k, leg in sends],
                                      [targets[k][0] for k, _leg in sends],
                                      label)
            if on_failure == "abort":
                raise_failed(outcomes)
            for (k, _leg), outcome in zip(sends, outcomes):
                ok[k] = outcome.error is None
        return ok

    def _land(self, res_list: Sequence[PhysicalResource],
              files: Sequence[Tuple[str, bytes]],
              on_refused: Callable[[int, SrbError], None]) -> Set[int]:
        """Create every ``(physical path, data)`` of ``files`` on every
        resource of ``res_list``, once :meth:`_reach` has pushed them
        there: an ingest's landing.  A file a storage system refuses is
        removed from the members already written and handed to
        ``on_refused(index, error)`` while the other files proceed;
        returns the indices refused."""
        refused: Set[int] = set()
        for k, res in enumerate(res_list):
            for i, (phys, data) in enumerate(files):
                if i in refused:
                    continue
                try:
                    res.driver.create(phys, data)
                except SrbError as exc:
                    self._remove([(done, phys) for done in res_list[:k]],
                                 "rollback", "skip")
                    refused.add(i)
                    on_refused(i, exc)
        return refused

    def _store(self, src_host: Optional[str],
               targets: Sequence[Tuple[PhysicalResource, str]],
               data: bytes, label: str, write: str = "create",
               on_failure: str = "abort") -> List[Optional[int]]:
        """The write loop: ``data`` from ``src_host`` onto every
        ``(resource, physical path)`` of ``targets``, once :meth:`_reach`
        has carried it to each (``src_host`` None: nothing moves, as for
        an empty file, and a control message carries the act).
        ``write`` names the driver call that lands it: ``"create"``,
        ``"replace"`` (a refused overwrite keeps the old bytes:
        ``StorageDriver.replace``) or ``"append"``.  A file a storage
        system refuses raises, and a create is first removed from the
        members already written.  Returns, aligned with ``targets``, the
        offset at which ``data`` starts in each file written (its old
        size for an append, else 0), or None for a member skipped.  The
        rows are the caller's, written once this returns."""
        at: List[Optional[int]] = []
        for (res, phys), ok in zip(targets, self._reach(
                targets, label, on_failure, src_host=src_host,
                nbytes=len(data))):
            if not ok:
                at.append(None)
                continue
            offset = res.driver.size(phys) if write == "append" else 0
            try:
                getattr(res.driver, write)(phys, data)
            except SrbError:
                if write == "create":
                    self._remove([target for target, done
                                  in zip(targets, at) if done is not None],
                                 "rollback", "skip")
                raise
            at.append(offset)
        return at

    def _store_replicas(self, src_host: str,
                        res_list: Sequence[PhysicalResource], oid: int,
                        phys: str, data: bytes, label: str) -> int:
        """:meth:`_store` one file as *new* replicas of ``oid``: one row
        per resource, added only when the file is on every one of them.
        Returns the last replica number."""
        self._store(src_host, [(res, phys) for res in res_list], data,
                    label)
        num = -1
        for res in res_list:
            num = self.mcat.add_replica(oid, res.name, phys, len(data),
                                        now=self.now)
        return num

    def _remove(self, files: Sequence[Tuple[PhysicalResource, str]],
                label: str, on_failure: str = "abort") -> None:
        """Delete each ``(resource, physical path)`` of ``files`` that
        exists, once :meth:`_reach` has carried the act to its host:
        all or none, or (``"skip"``: a rollback after a failed write)
        each whose host answers — an unreachable member keeps its
        orphaned bytes, the failed attempt charged like any timed-out
        message."""
        for (res, phys), ok in zip(files,
                                   self._reach(files, label, on_failure)):
            if ok and res.driver.exists(phys):
                res.driver.delete(phys)

    def _pin(self, res: PhysicalResource, phys_paths: Sequence[str],
             pinned: bool = True) -> None:
        """Pin (or unpin) ``phys_paths`` in archive ``res``'s cache, once
        :meth:`_reach` has carried the act to its host."""
        self._reach([(res, None)], "pin" if pinned else "unpin")
        for phys in phys_paths:
            (res.driver.pin if pinned else res.driver.unpin)(phys)

    def _refresh(self, oid: int, label: str, on_failure: str) -> int:
        """Rewrite every dirty replica of ``oid`` (an object's, a
        container's) from a clean one through :meth:`_store`; returns
        the number refreshed.  ``"skip"`` leaves a member that cannot be
        reached dirty (``synchronize``); ``"abort"`` refreshes all or
        none (a container's sync).

        The placement engine ranks the clean replicas for the dirty
        hosts that are up (:meth:`~repro.policy.PlacementEngine.
        sync_source_order`); the first on a host that is up is read."""
        clean, dirty = synchronize(self.mcat, oid)
        if not dirty:
            return 0
        physical, up = self.resources.physical, self.resources.available
        clean = self.federation.placement.sync_source_order(
            clean, sorted({physical(r["resource"]).host for r in dirty
                           if up(r["resource"])}))
        source = next((r for r in clean if up(r["resource"])), None)
        if source is None:
            raise ReplicaUnavailable(f"no clean replica of {oid} reachable")
        src_res = physical(source["resource"])
        data = src_res.driver.read_all(source["physical_path"])
        written = self._store(
            src_res.host, [(physical(r["resource"]), r["physical_path"])
                           for r in dirty], data, label, "replace",
            on_failure)
        for rep, at in zip(dirty, written):
            if at is not None:
                self.mcat.update_replica(oid, rep["replica_num"],
                                         is_dirty=False, size=len(data))
        return sum(at is not None for at in written)

    def _redirect_sink(self) -> str:
        """The host a read op's bytes are bound for.

        The caller's host, when direct I/O is on and the caller is
        remote: the op redirects its bytes there.  Otherwise this
        server's: direct I/O is off, the op was invoked in-process (no
        RPC caller), or the caller is colocated with this server so
        there is no second crossing to save.
        """
        if not self.federation.direct_io:
            return self.host
        return self.federation.rpc.caller_host or self.host

    def _redirect_reply(self, payload, owed, sink: str, label: str,
                        retry: bool) -> Redirect:
        """A :class:`~repro.net.wire.Redirect` whose channels, one per
        ``(resource, nbytes, path_key)`` of ``owed``, the caller's RPC
        layer runs resource→``sink``."""
        channels = self.federation.channels
        return Redirect(payload,
                        [channels.open(res.host, sink, nbytes, path_key,
                                       label)
                         for res, nbytes, path_key in owed],
                        retry=retry, label=label)

    def _deliver(self, payload: Any,
                 owed: Sequence[Tuple[PhysicalResource, int, str]],
                 sink: str, label: str, retry: bool = False,
                 on_failed: Optional[
                     Callable[[int, TransferOutcome], None]] = None) -> Any:
        """The read delivery: get the parts of ``payload`` still owed on
        the wire to whoever reads them, and return the reply.

        ``owed`` lists them as ``(resource, nbytes, path_key)``.  When
        the ``sink`` (:meth:`_redirect_sink`) is another host nothing
        moves here: the reply is a redirect and the caller's RPC layer
        pulls the parts resource→sink, applying ``retry`` there.
        Otherwise they are pulled to this server through the leg
        runner, and a part that does not arrive is re-pulled from a
        source that answered (``retry``: striped reads), handed to
        ``on_failed(index, outcome)`` (batches), or raised.

        What arrived is the inbound hop of a relay when ``payload`` goes
        on to a remote caller as the reply: :meth:`_relay_reply` tells
        the RPC layer how much of the reply leg hid behind the pull.
        """
        if not owed:
            return payload
        if sink != self.host:
            return self._redirect_reply(payload, owed, sink, label, retry)
        outcomes = self._run_legs(
            [(res.host, self.host, nbytes, path_key)
             for res, nbytes, path_key in owed],
            [res for res, _nbytes, _path_key in owed], label)
        if on_failed is not None:
            for k, outcome in enumerate(outcomes):
                if outcome.error is not None:
                    on_failed(k, outcome)
        elif retry:
            repull_failed(self.network, outcomes)
        else:
            raise_failed(outcomes)
        caller = self.federation.rpc.caller_host
        if caller is not None and caller != self.host:
            self._relay_reply(payload, outcomes, caller, label)
        return payload

    def _relay_reply(self, payload: Any,
                     outcomes: Sequence[TransferOutcome], caller: str,
                     label: str) -> None:
        """Price the reply that carries ``payload`` on to ``caller`` as
        the outbound hop of a relay whose inbound hop ``outcomes`` are.

        The parts that arrived streamed in for the set's makespan less
        its largest member latency (a lone leg: its cost less the link
        latency); a part that failed, or was pulled again, adds nothing.
        The exchange hides :func:`relay_hidden` of the reply leg, if
        this payload is what it replies with and the reply arrives
        (:meth:`~repro.net.rpc.ServiceRegistry._exchange`).
        """
        arrived = [o for o in outcomes
                   if o.error is None and o.src != o.dst]
        nbytes = sum(o.nbytes for o in arrived)
        if nbytes > RELAY_BLOCK:
            link = self.network.link
            inbound_s = max(o.done for o in arrived) \
                - min(o.start for o in arrived) \
                - max(link(o.src, o.dst).latency_s for o in arrived)
            self.federation.rpc.relayed = (payload, relay_hidden(
                nbytes, inbound_s,
                nbytes / link(self.host, caller).effective_bps()), label)

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

    def _target_for_metadata(self, path: str) -> Tuple[
            str, int, Dict[str, Any]]:
        """``(kind, id, row)`` of the object or collection at ``path``:
        one :meth:`~repro.mcat.catalog.Mcat.lookup`."""
        path = paths.normalize(path)
        row = self.mcat.lookup(path)
        if row is None:
            raise NoSuchObject(f"no object or collection {path!r}")
        if "oid" in row:
            return "object", int(row["oid"]), row
        return "collection", int(row["cid"]), row

    # ------------------------------------------------------------------
    # shadow directories (namespace lists them, data serves their files)
    # ------------------------------------------------------------------

    def _find_shadow(self, path: str) -> Optional[Dict[str, Any]]:
        """Nearest ancestor object of kind shadow-dir covering ``path``:
        the first ancestor with a row decides (a collection has no kind,
        and no registered directory sits above one; ``/`` always has a
        row)."""
        for ancestor in reversed(paths.ancestors(path)):
            row = self.mcat.lookup(ancestor)
            if row is not None:
                return row if row.get("kind") == "shadow-dir" else None
        return None

    def _shadow_open(self, principal: Principal, shadow: Dict[str, Any],
                     path: str) -> Tuple[PhysicalResource, str]:
        """The resource under ``shadow``, with a session open to it, once
        ``principal`` may read the shadow directory, and the physical
        path ``path`` names there."""
        self.access.require_object(principal, shadow, "read")
        res = self.resources.physical(str(shadow["resource_hint"]))
        self._resource_session(res)
        return res, str(shadow["target"]).rstrip("/") + paths.relocate(
            path, str(shadow["path"]), "/")
