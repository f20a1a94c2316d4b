"""Simulated wide-area network.

The paper's SRB deployments span hosts at SDSC, CalTech and elsewhere;
its latency-sensitive claims (containers amortize per-file WAN round
trips, federation redirects cost one extra server hop) are about message
counts and bytes moved over links with given latency and bandwidth.  This
module provides exactly that: named :class:`Host` objects joined by
:class:`LinkSpec` parameters, with every transfer charged to a shared
:class:`~repro.util.clock.SimClock`.

Failures are first-class: hosts can be taken down (``network.set_down``)
and pairs partitioned, which is how the replica-failover experiments (E2)
kill a storage system.

Two transfer modes exist:

``transfer``
    Blocking: advances the global clock by ``latency + bytes/bandwidth``.
    Used on every ordinary RPC and data movement.

``schedule_transfer``
    Queueing: computes a completion timestamp using per-host
    ``busy_until`` bookkeeping *without* advancing the global clock, so a
    benchmark can issue many logically-concurrent reads and measure
    aggregate throughput (load-balancing experiment E3).

A third mode sits between them: :class:`TransferGroup` schedules a *set*
of member transfers concurrently and charges their **makespan** (the
completion time of the slowest member), not the sum, to the global
clock.  It is the primitive behind the overlapped data plane (experiment
E14): logical-resource ingest fan-out, parallel replica refresh and
striped multi-replica reads all ride on it.

A fourth is a blocking transfer sent *pipelined* (``transfer(...,
pipelined=True)``): the message travels behind an earlier one on an open
connection, so its propagation overlaps that one's and the caller waits
only for its bytes.  Pushed stream chunks ride on it.

All four place the same wire leg (``Network._leg``): the one definition
of what a message costs and of how it is counted, metered and traced.
The modes differ only in *when* the leg happens and who moves the clock.

A leg may also have been *partly waited out already* (``hidden``): a
server relaying a payload sends its first blocks on while the rest is
still arriving, so part of the onward hop overlaps the hop that brought
the bytes.  How much is the sender's to say (the relay law lives with
the servers, :func:`repro.core.planes.base.relay_hidden`); here it is
seconds the caller does not wait again, exactly as a pipelined message
does not wait the link latency again.  What the leg *cost* — every
counter, metric, observer record — is untouched by either.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, \
    Tuple

from repro.errors import HostUnreachable, NetworkError, ServerBusy, \
    SrbError
from repro.obs import Observability
from repro.util.clock import SimClock


@dataclass(frozen=True)
class LinkSpec:
    """Latency/bandwidth parameters for a (directed) host pair.

    latency_s:        one-way propagation + per-message overhead, seconds.
    bandwidth_bps:    sustained bytes/second the *path* can carry.
    per_stream_bps:   what one TCP stream achieves on this path (window
                      limited on high bandwidth-delay-product links).
                      ``None`` means a single stream saturates the path.

    The per-stream cap is why the SRB grew parallel transfers: on an
    early-2000s transcontinental path one stream ran far below the
    path's capacity, and k parallel streams recovered ``min(capacity,
    k x per-stream)``.  A payload leg opens :meth:`payload_streams` of
    them, enough to reach capacity; a message opens one.
    """

    latency_s: float = 0.010
    bandwidth_bps: float = 10e6
    per_stream_bps: Optional[float] = None

    def payload_streams(self) -> int:
        """Parallel streams a payload leg opens on this path: the fewest
        that reach its capacity, or one when a single stream does."""
        if self.per_stream_bps is None:
            return 1
        k = math.ceil(self.bandwidth_bps / self.per_stream_bps)
        # the rounded quotient may leave k streams a bit short of capacity
        return k + (k * self.per_stream_bps < self.bandwidth_bps)

    def effective_bps(self, streams: int = 1) -> float:
        """Achievable throughput with ``streams`` parallel connections."""
        if streams < 1:
            raise NetworkError(f"need at least one stream, got {streams}")
        if self.per_stream_bps is None:
            return self.bandwidth_bps
        return min(self.bandwidth_bps, streams * self.per_stream_bps)

    def cost(self, nbytes: int, streams: int = 1) -> float:
        """Virtual seconds to move ``nbytes`` over this link (one message)."""
        if nbytes < 0:
            raise NetworkError(f"negative transfer size {nbytes}")
        if not nbytes:
            return self.latency_s
        return self.latency_s + nbytes / self.effective_bps(streams)


# Named profiles roughly matching the paper's deployment tiers.
LAN = LinkSpec(latency_s=0.0005, bandwidth_bps=100e6)
CAMPUS = LinkSpec(latency_s=0.002, bandwidth_bps=50e6)
WAN = LinkSpec(latency_s=0.040, bandwidth_bps=5e6)
TRANSCON = LinkSpec(latency_s=0.080, bandwidth_bps=2e6)
LOOPBACK = LinkSpec(latency_s=0.00005, bandwidth_bps=1e9)


@dataclass
class Admission:
    """One admitted request's place in a :class:`ServiceStation`.

    ``start`` is when a worker picks the request up, ``wait`` the queue
    delay (``start - arrival``) and ``depth`` the queue length the
    request saw on arrival.  ``held`` records whether a worker slot was
    actually checked out (a re-entrant admission while every slot is in
    flight is modelled contention-free and holds nothing).
    """

    start: float
    wait: float
    depth: int
    held: bool = True


class ServiceStation:
    """A host's server process as a queueing station on the virtual clock.

    The paper's "seamless access for many users at once" is a statement
    about *contended* servers, but ``Host.busy_until`` only models wire
    occupancy.  A station models the server process itself: ``workers``
    concurrent request slots and a FIFO request queue, all bookkept in
    virtual timestamps so logically-concurrent clients contend without
    any real threads.

    ``admit(arrival)`` assigns the request the earliest-free worker:
    it starts at ``max(arrival, worker_free)`` and the difference is its
    queue wait.  ``complete(admission, done)`` returns the worker at its
    service-completion timestamp.  With ``queue_depth`` set, an arrival
    that finds that many requests already waiting is shed with
    :class:`~repro.errors.ServerBusy` carrying a retry-after hint —
    bounded queues are what keep latency finite past the knee (E15).

    Arrivals are expected to be non-decreasing (the virtual clock and
    the open-loop generator both are); the queue-length bookkeeping
    prunes lazily against the newest arrival.
    """

    def __init__(self, host: str, workers: int = 1,
                 queue_depth: Optional[int] = None):
        if workers < 1:
            raise NetworkError(f"station needs at least 1 worker, "
                               f"got {workers}")
        if queue_depth is not None and queue_depth < 0:
            raise NetworkError(f"negative queue depth {queue_depth}")
        self.host = host
        self.workers = int(workers)
        self.queue_depth = queue_depth
        # min-heap of worker free timestamps; length == free slots
        self._free: List[float] = [0.0] * self.workers
        # start timestamps of admitted-but-not-yet-started requests
        self._waiting: List[float] = []
        self.admitted = 0
        self.shed = 0

    def queue_length(self, at: float) -> int:
        """Requests admitted but still waiting for a worker at ``at``."""
        self._waiting = [s for s in self._waiting if s > at]
        return len(self._waiting)

    def admit(self, arrival: float) -> Admission:
        """Admit (or shed) a request arriving at virtual ``arrival``."""
        depth = self.queue_length(arrival)
        if not self._free:
            # re-entrant request while every slot is checked out (a
            # handler calling back into its own host): no contention info
            return Admission(start=arrival, wait=0.0, depth=depth,
                             held=False)
        # a request sheds only if it would have to *wait* behind a full
        # queue; queue_depth=0 is a pure loss system (admit iff a worker
        # is free at arrival), not "shed everything"
        if self.queue_depth is not None and min(self._free) > arrival \
                and depth >= self.queue_depth:
            self.shed += 1
            retry_after = min(self._free) - arrival
            raise ServerBusy(self.host, retry_after)
        start = max(arrival, heapq.heappop(self._free))
        wait = start - arrival
        if wait > 0:
            self._waiting.append(start)
        self.admitted += 1
        return Admission(start=start, wait=wait, depth=depth)

    def complete(self, admission: Admission, done: float) -> None:
        """Return the admitted request's worker, busy until ``done``."""
        if admission.held:
            heapq.heappush(self._free, done)

    def reset(self) -> None:
        """Forget all queue/worker bookkeeping (host restart, or a
        benchmark trial boundary)."""
        self._free = [0.0] * self.workers
        self._waiting.clear()


@dataclass
class Host:
    """A machine in the grid: runs SRB servers and/or storage systems."""

    name: str
    site: str = "sdsc"
    up: bool = True
    # Completion timestamp of the last queued transfer touching this host;
    # used only by schedule_transfer for concurrency modelling.
    busy_until: float = 0.0
    # Worker-pool/queue model for the server process on this host; None
    # means requests are served with unbounded concurrency (no
    # contention), which is the historical default.
    station: Optional[ServiceStation] = None


class Network:
    """Registry of hosts + links + the shared virtual clock."""

    def __init__(self, clock: Optional[SimClock] = None,
                 default_link: LinkSpec = WAN,
                 obs: Optional[Observability] = None):
        self.clock = clock if clock is not None else SimClock()
        self.default_link = default_link
        # the network is the one component every layer shares, so the
        # observability pipeline (tracer + metrics) lives with it
        self.obs = obs if obs is not None else Observability(self.clock)
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._partitions: Set[frozenset] = set()
        self.messages_sent = 0
        self.bytes_sent = 0
        self.failed_attempts = 0
        # Bumped on every topology mutation (set_down/set_up/partition/
        # heal).  Anything caching reachability-derived state — the SRB
        # servers' resource-session cache — keys its entries on this and
        # treats a stale epoch as "the session may have died".
        self.topology_epoch = 0
        # Passive transfer observers (the placement engine's PathStats).
        # Notified from the shared accounting funnels below; observers
        # MUST be cost-free — no clock advance, no messages, no metric
        # emission — so that watching the wire never changes what the
        # simulation charges.
        self._transfer_observers: List["TransferObserver"] = []
        # Bound instruments (repro.obs.metrics): the series each label
        # combination counts into are resolved on its first message and
        # held, so a per-message site pays one call per increment.
        metrics = self.obs.metrics
        self._link_meters = metrics.bind_family(
            ("src", "dst"),
            ("counter", "net.messages"), ("counter", "net.bytes"),
            ("histogram", "net.transfer_s"),
            ("counter", "net.failed_attempts"))
        self._station_meters = metrics.bind_family(
            ("host", "service", "method"),
            ("counter", "srb.admission.shed"),
            ("histogram", "srb.admission.retry_after_s", ("host",)),
            ("counter", "srb.admission.admitted"),
            ("histogram", "srb.queue.wait_s", ("host", "service")),
            ("histogram", "srb.queue.depth", ("host",)))
        #: ``net.parallel.*`` by group label: groups, members, failures,
        #: makespan_s, saved_s
        self.group_meters = metrics.bind_family(
            ("label",),
            ("counter", "net.parallel.groups"),
            ("counter", "net.parallel.members"),
            ("counter", "net.parallel.failures"),
            ("histogram", "net.parallel.makespan_s"),
            ("histogram", "net.parallel.saved_s"))
        #: ``net.relay.hidden_s`` by the label of whoever moved the
        #: payload: seconds a relayed leg did not wait again
        self.relay_meters = metrics.bind_family(
            ("label",), ("histogram", "net.relay.hidden_s"))
        #: ``net.direct.*`` by channel label: channels, bytes, transfer_s
        self.channel_meters = metrics.bind_family(
            ("label",),
            ("counter", "net.direct.channels"),
            ("counter", "net.direct.bytes"),
            ("histogram", "net.direct.transfer_s"))

    # -- topology ----------------------------------------------------------

    def add_host(self, name: str, site: str = "sdsc") -> Host:
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(name=name, site=site)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise HostUnreachable(f"unknown host {name!r}") from None

    def hosts(self):
        return list(self._hosts.values())

    def set_link(self, a: str, b: str, spec: LinkSpec,
                 symmetric: bool = True) -> None:
        """Set link parameters between hosts ``a`` and ``b``."""
        self.host(a), self.host(b)  # validate
        self._links[(a, b)] = spec
        if symmetric:
            self._links[(b, a)] = spec

    def link(self, src: str, dst: str) -> LinkSpec:
        if src == dst:
            return LOOPBACK
        return self._links.get((src, dst), self.default_link)

    # -- service stations ----------------------------------------------------

    def install_station(self, name: str, workers: int,
                        queue_depth: Optional[int] = None) -> ServiceStation:
        """Give ``name``'s server process a worker pool and request queue.

        Replaces any existing station (fresh bookkeeping).  Hosts without
        a station keep the historical contention-free behaviour.
        """
        host = self.host(name)
        host.station = ServiceStation(name, workers=workers,
                                      queue_depth=queue_depth)
        return host.station

    def station(self, name: str) -> Optional[ServiceStation]:
        return self.host(name).station

    def admit_request(self, host: str, service: str, method: str,
                      arrival: float, advance_clock: bool = True
                      ) -> Tuple[Optional[ServiceStation],
                                 Optional[Admission]]:
        """Contend for ``host``'s worker pool (no-op without a station).

        The one place a request — an RPC message pair or a data
        channel's transfer — enters a :class:`ServiceStation`.  Returns
        ``(station, admission)``; raises :class:`~repro.errors.
        ServerBusy` (after counting the shed in ``srb.admission.*``)
        when the bounded queue is full.  An admitted request records its
        queue wait and depth in ``srb.queue.*`` and, when it actually
        waited, emits a queue-wait span — under a closed loop the caller
        genuinely waits, so the clock advances (``advance_clock``).
        """
        station = self.host(host).station
        if station is None:
            return None, None
        shed, retry_after_s, admitted, wait_s, depth = \
            self._station_meters[host, service, method]
        try:
            admission = station.admit(arrival)
        except ServerBusy as exc:
            shed.inc()
            retry_after_s.observe(exc.retry_after)
            raise
        admitted.inc()
        wait_s.observe(admission.wait)
        depth.observe(admission.depth)
        if admission.wait > 0:
            with self.obs.tracer.span("srb.queue.wait", host=host,
                                      service=service, method=method,
                                      wait_s=admission.wait,
                                      depth=admission.depth):
                if advance_clock:
                    self.clock.advance(admission.wait)
        return station, admission

    # -- failure injection ---------------------------------------------------

    def set_down(self, name: str) -> None:
        host = self.host(name)
        host.up = False
        # A crashed host forgets its queues: transfers it had pending can
        # no longer complete, so leaving busy_until (or station
        # bookkeeping) standing would charge a restarted host phantom
        # queueing delay from work that never happened.
        host.busy_until = 0.0
        if host.station is not None:
            host.station.reset()
        self.topology_epoch += 1

    def set_up(self, name: str) -> None:
        self.host(name).up = True
        self.topology_epoch += 1

    def partition(self, a: str, b: str) -> None:
        """Make ``a`` and ``b`` mutually unreachable (symmetric)."""
        self.host(a), self.host(b)
        self._partitions.add(frozenset((a, b)))
        self.topology_epoch += 1

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))
        self.topology_epoch += 1

    def reachable(self, src: str, dst: str) -> bool:
        if not self.host(src).up or not self.host(dst).up:
            return False
        return frozenset((src, dst)) not in self._partitions

    # -- transfer ------------------------------------------------------------

    def check_reachable(self, src: str, dst: str) -> None:
        hosts = self._hosts     # twice per message: no call per lookup
        try:
            if not hosts[dst].up:
                raise HostUnreachable(f"host {dst!r} is down")
            if not hosts[src].up:
                raise HostUnreachable(f"host {src!r} is down")
        except KeyError as exc:
            raise HostUnreachable(f"unknown host {exc.args[0]!r}") from None
        if frozenset((src, dst)) in self._partitions:
            raise HostUnreachable(f"hosts {src!r} and {dst!r} are partitioned")

    # Shared accounting: every transfer mode (blocking, queued, grouped)
    # counts messages/bytes/failures identically, so the federation-wide
    # stats explain latencies the same way regardless of scheduling.

    def add_transfer_observer(self, observer: "TransferObserver") -> None:
        """Register a passive observer of every transfer outcome.

        ``observer.observe_transfer(src, dst, nbytes, cost, now)`` fires
        per delivered message and ``observer.observe_failure(src, dst,
        now)`` per timed-out attempt.  Observers see the whole shared
        network — in a cross-zone federation each zone's engine watches
        all traffic, exactly as its servers experience the paths.
        """
        self._transfer_observers.append(observer)

    def remove_transfer_observer(self, observer: "TransferObserver") -> None:
        self._transfer_observers.remove(observer)

    def _count_failure(self, src: str, dst: str) -> None:
        """Counter/metric bookkeeping for one timed-out attempt."""
        self.messages_sent += 1
        self.failed_attempts += 1
        tracer = self.obs.tracer
        if tracer.stack:
            tracer.add("messages", 1)
            tracer.add("failed_attempts", 1)
        messages, _bytes, _seconds, failed = self._link_meters[src, dst]
        messages.inc()
        failed.inc()
        for observer in self._transfer_observers:
            observer.observe_failure(src, dst, self.clock.now)

    def _count_success(self, src: str, dst: str, nbytes: int,
                       cost: float) -> None:
        """Counter/metric bookkeeping for one delivered message."""
        self.messages_sent += 1
        self.bytes_sent += nbytes
        tracer = self.obs.tracer
        if tracer.stack:
            tracer.add("messages", 1)
            tracer.add("bytes", nbytes)
        messages, sent, seconds, _failed = self._link_meters[src, dst]
        messages.inc()
        sent.inc(nbytes)
        seconds.observe(cost)
        for observer in self._transfer_observers:
            observer.observe_transfer(src, dst, nbytes, cost,
                                      self.clock.now)

    def _leg(self, src: str, dst: str, nbytes: int,
             streams: Optional[int] = 1, start: Optional[float] = None,
             mode: Optional[str] = None, hidden: float = 0.0,
             label: str = ""
             ) -> Tuple[float, float, Optional[HostUnreachable]]:
        """One message on the wire: what it costs and how it is recorded.

        The single definition under every transfer mode.  A delivered
        message costs :meth:`LinkSpec.cost` over ``streams`` parallel
        streams; ``None`` is a payload leg, which opens as many as its
        path needs (:meth:`LinkSpec.payload_streams`, recorded on the
        span).  An unreachable pair costs a
        timeout of one RTT and still counts as a message the caller put
        on the wire, so E2's failover overhead is visible in the stats
        that are supposed to explain it.  Either way the leg emits one
        ``net.transfer`` span and passes through ``_count_success`` or
        ``_count_failure`` — nothing else in ``repro.net`` does either.

        Some seconds of a delivered leg may be *already waited out*, and
        the caller waits only the rest while every record of the message
        stays the full cost's: under ``mode="pipelined"`` (the span's
        flag) the message follows an earlier one on an open connection,
        so its propagation — the link latency — overlapped that one's;
        ``hidden`` seconds of a relayed payload streamed out while the
        hop that brought the bytes was still streaming in (span attrs
        ``relayed`` and ``hidden_s``, histogram ``net.relay.hidden_s``
        under the mover's ``label``).  A dead pair hides nothing: it is
        found out by waiting.

        With ``start=None`` the leg is *blocking*: the caller waits, so
        the clock advances.  With a ``start`` the leg is bookkeeping at
        that virtual time under ``mode`` ``"queued"`` or ``"grouped"``:
        the caller owns the clock and the ``busy_until`` floors.
        Returns ``(cost, waited, error)`` — the message's cost, the
        seconds of it still to wait, and the error, handed back, not
        raised, so a group can marshal it per member.
        """
        spec = self.link(src, dst)
        if streams is None:
            # a payload leg: its path says how many (one, and no call to
            # say so, where nothing caps a stream)
            streams = spec.payload_streams() if spec.per_stream_bps else 1
        try:
            self.check_reachable(src, dst)
        except HostUnreachable as exc:
            # a dead pair is found out by waiting, whatever the mode
            error, cost = exc, 2 * spec.latency_s
            waited, hidden = cost, 0.0
            if mode == "queued":
                # nothing queues behind a dead pair: the caller waits
                # out the timeout now, exactly like a blocking transfer
                start = mode = None
        else:
            error, cost = None, spec.cost(nbytes, streams=streams)
            waited = cost - hidden
            if mode == "pipelined":
                waited -= spec.latency_s
        tracer = self.obs.tracer
        if tracer.stack:
            attrs = {"src": src, "dst": dst, "bytes": nbytes}
            if error is None:
                attrs["streams"] = streams
            if mode is not None:
                attrs[mode] = True
                if error is None and start is not None:
                    attrs["start"] = start
                    attrs["done"] = start + waited
            if hidden:
                attrs["relayed"] = True
                attrs["hidden_s"] = hidden
            with tracer.span("net.transfer", **attrs) as sp:
                if error is not None:
                    sp.error = str(error)
                if start is None:
                    self.clock.advance(waited)
        elif start is None:
            self.clock.advance(waited)
        if error is None:
            self._count_success(src, dst, nbytes, cost)
            if hidden:
                self.relay_meters[label][0].observe(hidden)
        else:
            self._count_failure(src, dst)
        return cost, waited, error

    def transfer(self, src: str, dst: str, nbytes: int = 0,
                 streams: Optional[int] = 1, pipelined: bool = False,
                 hidden: float = 0.0, label: str = "") -> float:
        """Move one message of ``nbytes`` from ``src`` to ``dst``.

        Advances the clock by the link cost and returns the elapsed virtual
        seconds.  ``streams`` > 1 models the SRB's parallel data transfer:
        on window-limited links (``per_stream_bps`` set) k streams reach
        ``min(capacity, k x per-stream)``; ``None``, a payload leg, opens
        as many as reach capacity.  ``pipelined`` sends the
        message behind an earlier one on an open connection: the caller
        waits for its bytes, not for the link latency again.  ``hidden``
        seconds of a relayed payload's leg (metered under ``label``)
        are likewise not waited again (:meth:`_leg`).  Raises
        :class:`HostUnreachable` on failure — after charging one RTT
        for the timeout, which is what makes replica failover measurably
        non-free in experiment E2.
        """
        _cost, waited, error = self._leg(
            src, dst, nbytes, streams, None,
            "pipelined" if pipelined else None, hidden, label)
        if error is not None:
            raise error
        return waited

    def schedule_transfer(self, src: str, dst: str, nbytes: int,
                          not_before: Optional[float] = None,
                          streams: Optional[int] = 1) -> float:
        """Queue a transfer and return its completion timestamp.

        Models per-host serialization: the transfer cannot start before
        either endpoint finishes its previous queued transfer.  Does not
        advance the global clock; callers (the load-balance benchmark)
        take ``max`` over completions to compute makespan.  ``streams``
        models parallel connections exactly as in :meth:`transfer`.

        An unreachable destination is not queued: it charges one timeout
        RTT on the global clock (the caller *did* wait to find out),
        counts as a failed message and raises, as in :meth:`transfer`.
        A delivered one emits the same ``net.transfer`` span (with
        ``queued=True``) and ``net.transfer_s`` observation a blocking
        transfer does, so queued traffic is visible to tracing.
        """
        s, d = self.host(src), self.host(dst)
        start = max(self.clock.now, s.busy_until, d.busy_until,
                    not_before if not_before is not None else 0.0)
        cost, _waited, error = self._leg(src, dst, nbytes, streams, start,
                                         "queued")
        if error is not None:
            raise error
        s.busy_until = d.busy_until = start + cost
        return start + cost

    def reset_queues(self) -> None:
        """Clear ``busy_until`` and station bookkeeping between trials."""
        for h in self._hosts.values():
            h.busy_until = 0.0
            if h.station is not None:
                h.station.reset()


@dataclass
class TransferOutcome:
    """Result of one member of a :class:`TransferGroup`.

    ``error`` carries the member's failure (:class:`HostUnreachable`,
    or what kept a channel from opening) instead of raising it — a
    downed member must not poison its siblings, so failures are
    marshalled per member and the caller decides.  ``start``/``done``
    are virtual timestamps; for a failed member ``done - start`` is the
    charged timeout.  ``cost`` is what the message cost, which for a
    relayed member is more than ``done - start``, what was waited (a
    lone blocking move, :func:`blocking_outcome`, knows only the wait).
    """

    src: str
    dst: str
    nbytes: int
    start: float
    done: float
    cost: float
    key: Any = None
    error: Optional[SrbError] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class _Member:
    src: str
    dst: str
    nbytes: int
    streams: Optional[int] = None
    key: Any = None
    hidden: float = 0.0


class TransferGroup:
    """A set of member transfers scheduled concurrently.

    The group charges the **makespan** — the completion timestamp of the
    slowest member — to the global clock, instead of the serial sum.
    Scheduling uses the same bookkeeping as :meth:`Network.
    schedule_transfer`: members start no earlier than their endpoints'
    ``busy_until`` floors, and completed members push those floors
    forward.  *Within* the group, members sharing one ``(src, dst)``
    path serialize on it (one path cannot carry two payloads at once —
    that is what the per-stream/capacity model already prices), while
    members on distinct paths overlap freely: a server opening k streams
    to k different storage hosts is exactly SRB parallel I/O.

    Failure marshalling is per member: an unreachable endpoint charges
    its timeout RTT (overlapped with its siblings, like a real select
    loop waiting out the slowest socket) and surfaces as
    ``TransferOutcome.error`` without aborting the rest.

    Observability: the whole run is wrapped in a ``net.parallel.group``
    span whose duration is the makespan, each member emits its usual
    ``net.transfer`` child span, and ``net.parallel.*`` metrics record
    group/member/failure counts, the makespan and the virtual seconds
    saved versus serial execution.
    """

    def __init__(self, network: Network, label: str = "parallel"):
        self.network = network
        self.label = label
        self._members: List[_Member] = []
        self._ran = False

    def add(self, src: str, dst: str, nbytes: int = 0,
            streams: Optional[int] = None, key: Any = None,
            hidden: float = 0.0) -> None:
        """Add one member transfer (validates size, not reachability):
        a payload, which opens as many streams as its path needs unless
        ``streams`` says how many.  ``hidden`` seconds of it are already
        waited out (a relayed payload, :meth:`Network._leg`): the member
        is done that much sooner, its recorded cost is the same."""
        if nbytes < 0:
            raise NetworkError(f"negative transfer size {nbytes}")
        self._members.append(_Member(src, dst, nbytes, streams, key, hidden))

    def __len__(self) -> int:
        return len(self._members)

    def run(self) -> List[TransferOutcome]:
        """Schedule every member, advance the clock by the makespan.

        Returns outcomes in ``add()`` order.  A group may run once.
        """
        if self._ran:
            raise NetworkError("TransferGroup already ran")
        self._ran = True
        net = self.network
        if not self._members:
            return []
        t0 = net.clock.now
        outcomes: List[TransferOutcome] = []
        path_busy: Dict[Tuple[str, str], float] = {}
        host_done: Dict[str, float] = {}
        with net.obs.tracer.span("net.parallel.group", label=self.label,
                                 members=len(self._members)) as gsp:
            for m in self._members:
                path = (m.src, m.dst)
                start = max(t0,
                            net.host(m.src).busy_until,
                            net.host(m.dst).busy_until,
                            path_busy.get(path, 0.0))
                cost, waited, error = net._leg(
                    m.src, m.dst, m.nbytes, m.streams, start, "grouped",
                    m.hidden, self.label)
                # a failed member's timeout overlaps its siblings' work
                # (it extends the makespan, it does not precede them),
                # but a real select loop holds the socket until it
                # expires: delivered or not, the member occupies its
                # path and endpoints until ``done``
                done = start + waited
                path_busy[path] = done
                for endpoint in path:
                    host_done[endpoint] = max(host_done.get(endpoint, 0.0),
                                              done)
                outcomes.append(TransferOutcome(
                    m.src, m.dst, m.nbytes, start, done, cost, m.key,
                    error))
            makespan_end = max(o.done for o in outcomes)
            makespan = makespan_end - t0
            if makespan > 0:
                net.clock.advance(makespan)
            for name, done in host_done.items():
                host = net.host(name)
                host.busy_until = max(host.busy_until, done)
            if gsp is not None:
                gsp.incr("members", len(outcomes))
                gsp.incr("failures",
                         sum(1 for o in outcomes if not o.ok))
        serial_s = sum(o.cost for o in outcomes)
        groups, members, failures, makespan_s, saved_s = \
            net.group_meters[self.label]
        groups.inc()
        members.inc(len(outcomes))
        failed = sum(1 for o in outcomes if not o.ok)
        if failed:
            failures.inc(failed)
        makespan_s.observe(makespan)
        saved_s.observe(max(0.0, serial_s - makespan))
        return outcomes


class DataChannel:
    """A brokered source→sink data leg — the direct-I/O second leg.

    Pass-through routing moves payload bytes ``resource → server →
    client`` (two charged crossings); a channel moves them once on the
    path that actually carries them.  The server stays the *broker* of
    storage access, exactly the role the paper assigns it: it issues a
    signed one-shot descriptor (``ticket``) and the endpoints move the
    bytes themselves.

    Lifecycle::

        ch.open()       # redeem descriptor, handshake, admission
        ch.transfer()   # blocking move (or ch.add_to(group) + ch.finish)

    ``open()`` redeems the descriptor through the injected ``redeem``
    callable (the federation's :class:`ChannelBroker`; simnet itself
    stays auth-free), charges one control handshake on the channel's own
    path (the sink presenting the descriptor to the source endpoint),
    and — when the source host runs a :class:`ServiceStation` — admits
    the transfer there, so redirected traffic still respects worker
    pools and bounded queues (:class:`~repro.errors.ServerBusy`
    propagates).  Channels compose with :class:`TransferGroup` via
    :meth:`add_to`/:meth:`finish` so striped and fan-out redirects
    charge a makespan, not a serial sum.
    """

    #: control handshake opening the channel: descriptor + ack framing
    HANDSHAKE_BYTES = 96

    def __init__(self, network: Network, src: str, dst: str, nbytes: int,
                 label: str = "direct", ticket: Any = None, redeem=None):
        if nbytes < 0:
            raise NetworkError(f"negative channel size {nbytes}")
        self.network = network
        self.src = src
        self.dst = dst
        self.nbytes = int(nbytes)
        self.label = label
        self.ticket = ticket
        self._redeem = redeem
        self._opened = False
        self._admission: Optional[Admission] = None

    def open(self) -> None:
        """Redeem the descriptor and set the channel up (exactly once)."""
        if self._opened:
            raise NetworkError("DataChannel already opened")
        self._opened = True
        if self._redeem is not None:
            self._redeem(self.ticket)     # InvalidTicket propagates
        net = self.network
        net.channel_meters[self.label][0].inc()
        if self.src != self.dst:
            # the sink presents the descriptor to the source endpoint:
            # one control message on the channel's own path
            net.transfer(self.dst, self.src, self.HANDSHAKE_BYTES)
        # the source endpoint's worker pool; ServerBusy propagates
        _station, self._admission = net.admit_request(
            self.src, "channel", self.label, net.clock.now)

    def settle(self, done: Optional[float] = None) -> None:
        """Return the source endpoint's worker slot (if one was held)."""
        if self._admission is not None:
            station = self.network.host(self.src).station
            if station is not None:
                station.complete(
                    self._admission,
                    done if done is not None else self.network.clock.now)
            self._admission = None

    def transfer(self) -> float:
        """Move the bytes now (blocking); returns elapsed virtual seconds."""
        if not self._opened:
            raise NetworkError("DataChannel.transfer before open()")
        try:
            cost = self.network.transfer(self.src, self.dst, self.nbytes,
                                         streams=None)
        finally:
            self.settle()
        self._delivered(cost)
        return cost

    def _delivered(self, cost: float) -> None:
        """``net.direct.*`` accounting for the payload having arrived."""
        _channels, moved, seconds = self.network.channel_meters[self.label]
        moved.inc(self.nbytes)
        seconds.observe(cost)

    def add_to(self, group: TransferGroup) -> None:
        """Enlist the (already opened) channel as a group member."""
        if not self._opened:
            raise NetworkError("DataChannel.add_to before open()")
        group.add(self.src, self.dst, self.nbytes, key=self)

    def finish(self, outcome: TransferOutcome) -> None:
        """Account a grouped member's outcome (settle + direct metrics)."""
        self.settle(outcome.done)
        if outcome.ok:
            self._delivered(outcome.cost)


def blocking_outcome(network: Network, src: str, dst: str, nbytes: int,
                     send: Callable[[], Any]) -> TransferOutcome:
    """Run one blocking move and hand its fate back as an outcome.

    ``send`` is the blocking call (``Network.transfer``, or a channel's
    ``open`` / ``transfer``); what it raises becomes the outcome's
    ``error`` and the virtual time it took the ``cost``, so a lone leg
    is marshalled exactly like a :class:`TransferGroup` member."""
    start, error = network.clock.now, None
    try:
        send()
    except SrbError as exc:
        error = exc
    done = network.clock.now
    return TransferOutcome(src, dst, nbytes, start, done, done - start,
                           None, error)


def run_channel_group(network: Network, channels: Sequence[DataChannel],
                      label: str) -> List[TransferOutcome]:
    """Open, run and settle ``channels`` as one overlapped set.

    Returns one outcome per channel, in order, under the two rules
    every mover of payload bytes is held to (stated in full on
    :meth:`repro.core.federation.ChannelBroker.run_legs`): a channel
    that cannot be opened — descriptor refused, handshake undeliverable,
    source's queue full — is a *failed member* whose siblings still run
    and settle, and a lone channel transfers blocking, since a parallel
    group of one overlaps nothing.  What a failed member means stays the
    caller's policy.
    """
    if len(channels) == 1:
        (ch,) = channels

        def send() -> None:
            ch.open()
            ch.transfer()
        return [blocking_outcome(network, ch.src, ch.dst, ch.nbytes, send)]
    # an opened channel's outcome is replaced by its transfer's below
    outcomes = [blocking_outcome(network, ch.src, ch.dst, ch.nbytes, ch.open)
                for ch in channels]
    opened = [(i, ch) for i, ch in enumerate(channels) if outcomes[i].ok]
    group = TransferGroup(network, label=label)
    for _i, ch in opened:
        ch.add_to(group)
    for (i, ch), outcome in zip(opened, group.run()):
        ch.finish(outcome)
        outcomes[i] = outcome
    return outcomes


def raise_failed(outcomes: Sequence[TransferOutcome]) -> None:
    """The abort policy: raise the first failed member's error."""
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error


def repull_failed(network: Network,
                  outcomes: Sequence[TransferOutcome]) -> int:
    """The healthy-source repair, for members whose every source holds
    the same bytes (striped reads): each failed member's bytes are
    pulled again, blocking, from the source of the first member that
    answered.  Returns the number of members re-pulled; when none
    answered there is nothing to repair from and the first failure is
    raised.
    """
    failed = [o for o in outcomes if o.error is not None]
    if failed:
        healthy = next((o for o in outcomes if o.error is None), None)
        if healthy is None:
            raise failed[0].error
        for o in failed:
            network.transfer(healthy.src, o.dst, o.nbytes, streams=None)
    return len(failed)
