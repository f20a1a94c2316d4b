"""Federation wiring: one zone of SRB servers over the simulated grid.

A :class:`Federation` owns every shared component — network, clock, MCAT,
user registry, ticket authority, resource registry, placement engine,
container and lock managers, the external web space and the extraction
registry — and the set of :class:`SrbServer` instances.  It is the
"deployment descriptor" a test or benchmark builds its grid from::

    fed = Federation(zone="demozone")
    fed.add_host("sdsc", site="sdsc")
    fed.add_host("caltech", site="caltech")
    fed.add_server("srb1", "sdsc", mcat=True)
    fed.add_server("srb2", "caltech")
    fed.add_fs_resource("unix-sdsc", "sdsc")
    fed.add_archive_resource("hpss-caltech", "caltech")
    fed.add_logical_resource("logrsrc1", ["unix-sdsc", "hpss-caltech"])

matching the paper's running example.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.auth.tickets import ChannelTicket, Ticket, TicketAuthority
from repro.auth.users import Principal, UserRegistry
from repro.core.access import AccessController
from repro.core.containers import ContainerManager
from repro.core.locking import LockManager
from repro.core.planes.base import RELAY_BLOCK, relay_hidden
from repro.core.server import SrbServer
from repro.errors import InvalidTicket, NoSuchServer, SrbError
from repro.mcat.shard import ShardedMcat
from repro.mcat.extraction import ExtractionRegistry
from repro.net import wire
from repro.net.rpc import ServiceRegistry
from repro.net.simnet import (
    DataChannel, LinkSpec, Network, TransferGroup, TransferOutcome, WAN,
    blocking_outcome, run_channel_group)
from repro.policy import PlacementEngine
from repro.storage.archive import ArchiveDriver, TapeCost
from repro.storage.base import DeviceCost, DISK_COST
from repro.storage.database import DatabaseResourceDriver
from repro.storage.memfs import MemFsDriver
from repro.storage.resource import PhysicalResource, ResourceRegistry
from repro.storage.web import WebSpace
from repro.util.clock import SimClock
from repro.util import paths
from repro.util.ids import IdFactory


class ChannelBroker:
    """Moves payload bytes for one federation zone, and brokers the
    direct data channels some of them ride.

    Every payload byte a server moves goes through :meth:`run_legs`;
    whether a leg is a raw transfer or a ticketed
    :class:`~repro.net.simnet.DataChannel` is decided here and nowhere
    else.  Under ``Federation(direct_io=True)`` a byte-bearing op gets
    its channels from :meth:`open`, each carrying a signed one-shot
    :class:`~repro.auth.tickets.ChannelTicket` (the paper's ticket
    third-leg applied to data movement).  Redemption enforces one-shot
    use, virtual-clock expiry and the topology epoch; every rejection is
    counted under ``srb.redirect.denied`` labelled with its reason.
    """

    #: the host whose request, on the exchange being served, brought the
    #: payload the legs move: set by the op plan (``dispatch._compile``)
    #: for the op it runs, None while no op's payload rode a remote
    #: caller's request
    inbound: Optional[str] = None

    def __init__(self, authority: Optional[TicketAuthority],
                 network: Network, enabled: bool = False):
        self.authority = authority
        self.network = network
        self.enabled = bool(enabled)
        self.denied = 0

    def open(self, src: str, dst: str, nbytes: int, path_key: str = "",
             label: str = "direct") -> DataChannel:
        """Build an (unopened) channel with a freshly signed descriptor."""
        ticket = self.authority.issue_channel(
            src, dst, nbytes, path_key,
            epoch=self.network.topology_epoch)
        return DataChannel(self.network, src, dst, nbytes, label=label,
                           ticket=ticket, redeem=self.redeem)

    def redeem(self, ticket: ChannelTicket) -> None:
        """Validate + consume a descriptor; counts denials by reason."""
        try:
            self.authority.redeem_channel(ticket,
                                          self.network.topology_epoch)
        except InvalidTicket as exc:
            self.denied += 1
            self.network.obs.metrics.inc(
                "srb.redirect.denied",
                reason=getattr(exc, "reason", "invalid"))
            raise

    def run_legs(self, legs: Sequence[Tuple[str, str, int, str]],
                 label: str) -> List[TransferOutcome]:
        """Move payload bytes: the one leg runner.

        ``legs`` says what must move, each ``(src_host, dst_host,
        nbytes, path_key)``; the route is this method's business.  A
        leg whose ends share a host moves nothing and is charged
        nothing.  The rest run as one overlapped set — raw transfers,
        or, with direct I/O on, ticketed channels (``path_key`` is
        bound into the ticket) — and the result is one
        :class:`~repro.net.simnet.TransferOutcome` per leg, in order.
        Each leg opens as many parallel streams as its own path needs
        to reach capacity (:meth:`~repro.net.simnet.LinkSpec.
        payload_streams`: one where nothing caps a stream), so no
        caller and no knob says how many.
        Nothing is raised for a leg that fails: abort, skip and stay
        dirty, fail one item, re-pull from a healthy source — what a
        failed member means is the caller's policy
        (:func:`~repro.net.simnet.raise_failed` is the plainest one).

        While :attr:`inbound` names a host, the op being served brought
        the legs' bytes to their source on that host's request: the
        server is *relaying* them, and each raw leg hides behind that
        inbound hop what :func:`~repro.core.planes.base.relay_hidden`
        allows — waited less, recorded in full.  Bytes that were at
        rest (``None``: a replica being copied, or no op at all) hide
        nothing, and neither does a ticketed channel, a connection of
        its own.  No caller passes it: the op plan says it once.

        Two rules hold for every caller:

        (a) *A one-leg plan is a blocking transfer.*  A parallel group
            of one overlaps nothing, so a lone leg is
            :meth:`Network.transfer` (or a channel's ``open`` +
            ``transfer``): the same virtual seconds, bytes and
            ``net.transfer`` span, and no ``net.parallel.*`` record.
            Two or more legs share one
            :class:`~repro.net.simnet.TransferGroup` and are charged
            its makespan.
        (b) *A channel that cannot be opened is a failed member*, not
            an exception: its outcome carries the error, and its
            siblings still run and settle.
        """
        net = self.network
        wire = [leg for leg in legs if leg[0] != leg[1]]
        if not wire:
            ran = []
        elif self.enabled:
            with net.obs.tracer.span(
                    "srb.redirect", legs=len(wire), label=label,
                    bytes=sum(nbytes for _s, _d, nbytes, _k in wire)):
                ran = run_channel_group(
                    net, [self.open(*leg, label=label) for leg in wire],
                    label)
        else:
            hidden = [0.0] * len(wire)
            if self.inbound is not None:
                # relayed legs leave the one host the request reached (on
                # its request's one stream), at their own path's capacity
                bps_in = net.link(self.inbound, wire[0][0]).effective_bps()
                hidden = [relay_hidden(
                    nbytes, nbytes / bps_in,
                    nbytes / net.link(src, dst).bandwidth_bps)
                    if nbytes > RELAY_BLOCK else 0.0
                    for src, dst, nbytes, _key in wire]
            if len(wire) > 1:
                group = TransferGroup(net, label=label)
                for (src, dst, nbytes, _key), hide in zip(wire, hidden):
                    group.add(src, dst, nbytes, hidden=hide)
                ran = group.run()
            else:
                ((src, dst, nbytes, _key),) = wire
                ran = [blocking_outcome(
                    net, src, dst, nbytes,
                    lambda: net.transfer(src, dst, nbytes, streams=None,
                                         hidden=hidden[0], label=label))]
        if len(ran) == len(legs):
            return ran
        moved, now = iter(ran), net.clock.now
        return [next(moved) if src != dst
                else TransferOutcome(src, dst, nbytes, now, now, 0.0)
                for src, dst, nbytes, _key in legs]


class Federation:
    """One SRB zone: shared state + servers."""

    def __init__(self, zone: str = "demozone",
                 default_link: LinkSpec = WAN,
                 placement: str = "primary",
                 sso_enabled: bool = True,
                 network: Optional[Network] = None,
                 workers: Optional[int] = None,
                 queue_depth: Optional[int] = None,
                 mcat_shards: int = 1,
                 mcat_replicas: int = 0,
                 direct_io: bool = False):
        self.zone = zone
        # The path and wire-size memos are process-wide.  A grid starts
        # with them empty, so that what it costs to run (gridbench's
        # py_calls_per_op) does not depend on what the process ran before.
        paths.clear_memos()
        wire.clear_size_memo()
        # zones being federated cross-zone share one network (and so one
        # clock); standalone zones build their own
        if network is not None:
            self.network = network
            self.clock = network.clock
        else:
            self.clock = SimClock()
            self.network = Network(clock=self.clock,
                                   default_link=default_link)
        # the shared observability pipeline (tracer + metrics) lives on
        # the network, so federated zones report into one place
        self.obs = self.network.obs
        self.ids = IdFactory()
        self.rpc = ServiceRegistry(self.network)
        self.peers: Dict[str, "Federation"] = {}
        # the catalog (E16): one class, whatever its shape.
        #   mcat_shards: K Mcat partitions, split by collection subtree
        #   (one partition and no replica is the paper's single MCAT,
        #   at the cost of a bare Mcat);
        #   mcat_replicas: R read replicas per shard, converged by an
        #   async write log (+ anti-entropy repair after faults); a
        #   replica catches up before it serves (read-your-writes).
        self.mcat_shards = mcat_shards
        self.mcat_replicas = mcat_replicas
        self.mcat = ShardedMcat(zone=zone, clock=self.clock, ids=self.ids,
                                obs=self.obs, shards=mcat_shards,
                                replicas=mcat_replicas)
        self.users = UserRegistry()
        self.authority = TicketAuthority(zone, zone_key=f"zone-key-{zone}",
                                         clock=self.clock)
        self.resources = ResourceRegistry(self.network)
        self.access = AccessController(self.mcat, self.users)
        self.locks = LockManager(self.mcat, self.clock)
        # the placement engine (repro.policy): one pluggable seam for
        # every replica/resource choice.  ``placement`` accepts the four
        # static policies plus "observed" (rank by measured path history
        # — E18).  The engine's PathStats observer watches the wire from
        # day one, cost-free, whatever the policy.
        self.placement = PlacementEngine(self.resources, self.network,
                                         policy=placement)
        # direct data channels (E19).  Default off: every payload byte
        # keeps the historical pass-through route (resource → server →
        # client), byte-identical with the parity recordings.  With
        # direct_io=True a byte-bearing op replies with a signed one-shot
        # channel descriptor and the bytes are charged once, on the
        # actual source→sink path.
        self.direct_io = bool(direct_io)
        self.channels = ChannelBroker(self.authority, self.network,
                                      enabled=direct_io)
        self.containers = ContainerManager(self.mcat, self.resources,
                                           self.placement, self.channels)
        self.web = WebSpace(self.network)
        self.extractors = ExtractionRegistry()
        self.servers: Dict[str, SrbServer] = {}
        self.sso_enabled = sso_enabled
        self.default_resource: Optional[str] = None
        # open-loop load plane (E15).  workers=None (default) keeps the
        # historical contention-free server: requests never queue and
        # are never shed, so every serial-mode recording is untouched.
        #   workers: each server host gets a ServiceStation with this
        #   many concurrent request slots — RPCs arriving while all are
        #   busy pay queue wait on the virtual clock;
        #   queue_depth: bound on that queue — an arrival finding it
        #   full is shed fast with ServerBusy + a retry-after hint
        #   (None = unbounded queue, nothing is ever shed).
        self.workers = workers if workers is None else max(1, int(workers))
        self.queue_depth = queue_depth if queue_depth is None \
            else max(0, int(queue_depth))
        # admin-installed proxy executables, per server "bin directory"
        self.proxy_bin: Dict[str, Dict[str, Callable[[str], bytes]]] = {}
        # compiled-in proxy functions (server, args) -> bytes
        self.proxy_functions: Dict[str, Callable[[SrbServer, str], bytes]] = {}
        self._install_builtin_proxies()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def add_host(self, name: str, site: str = "sdsc"):
        return self.network.add_host(name, site=site)

    def add_server(self, name: str, host: str,
                   mcat: bool = False) -> SrbServer:
        if name in self.servers:
            raise SrbError(f"server {name!r} already exists")
        if mcat and "mcat_server" in vars(self):
            raise SrbError("federation already has an MCAT-enabled server")
        server = SrbServer(name=name, host=host, federation=self,
                           is_mcat_server=mcat)
        self.servers[name] = server
        if mcat:
            #: the zone's MCAT-enabled server: a plain attribute, read
            #: on every other server's catalog hop
            self.mcat_server = server
        self.proxy_bin.setdefault(name, {})
        self.rpc.register(host, f"srb:{name}", server)
        # servers on one host share its worker pool (one machine, one
        # server process model); installed lazily so only server hosts
        # get stations
        if self.workers is not None \
                and self.network.station(host) is None:
            self.network.install_station(host, self.workers,
                                         self.queue_depth)
        return server

    def server(self, name: str) -> SrbServer:
        try:
            return self.servers[name]
        except KeyError:
            raise NoSuchServer(f"no SRB server {name!r}") from None

    def __getattr__(self, name: str):
        # reached only for an attribute that was never set
        if name == "mcat_server":
            raise NoSuchServer("federation has no MCAT-enabled server")
        raise AttributeError(name)

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------

    def add_fs_resource(self, name: str, host: str,
                        cost: DeviceCost = DISK_COST,
                        capacity_bytes: Optional[int] = None,
                        is_cache: bool = False) -> PhysicalResource:
        driver = MemFsDriver(clock=self.clock, cost=cost,
                             capacity_bytes=capacity_bytes)
        driver.attach_obs(self.obs, name)
        return self.resources.add_physical(PhysicalResource(
            name=name, host=host, driver=driver, rtype="unixfs",
            zone=self.zone, is_cache=is_cache))

    def add_archive_resource(self, name: str, host: str,
                             tape: TapeCost = TapeCost(),
                             cache_capacity_bytes: Optional[int] = None
                             ) -> PhysicalResource:
        driver = ArchiveDriver(clock=self.clock, tape=tape,
                               cache_capacity_bytes=cache_capacity_bytes)
        driver.attach_obs(self.obs, name)
        return self.resources.add_physical(PhysicalResource(
            name=name, host=host, driver=driver, rtype="archive",
            zone=self.zone))

    def add_database_resource(self, name: str, host: str) -> PhysicalResource:
        driver = DatabaseResourceDriver(clock=self.clock, name=name)
        driver.attach_obs(self.obs, name)
        return self.resources.add_physical(PhysicalResource(
            name=name, host=host, driver=driver, rtype="database",
            zone=self.zone))

    def add_logical_resource(self, name: str,
                             members: Sequence[str]):
        return self.resources.add_logical(name, members)

    # ------------------------------------------------------------------
    # users / administration
    # ------------------------------------------------------------------

    def add_user(self, username: str, password: str,
                 role: str = "reader") -> Principal:
        return self.users.add_user(username, password, role=role)

    def install_proxy_command(self, server_name: str, command: str,
                              fn: Callable[[str], bytes]) -> None:
        """SRB administrator places an executable in a server's bin
        directory, making it registrable as a method object."""
        self.server(server_name)   # must exist
        self.proxy_bin[server_name][command] = fn

    def _install_builtin_proxies(self) -> None:
        def srbps(server: SrbServer, args: str) -> bytes:
            """The paper's example: 'srbps' shows process status on the
            remote server, like Unix ps."""
            lines = ["  PID SERVER       STAT  OPS"]
            for i, s in enumerate(sorted(self.servers), start=1):
                srv = self.servers[s]
                lines.append(f"{1000 + i:5d} {s:<12} run   "
                             f"{srv.ops_served}")
            return ("\n".join(lines) + "\n").encode()

        self.proxy_functions["srbps"] = srbps

        def extract(server: SrbServer, args: str) -> bytes:
            """Proxy-function flavour of metadata extraction: args are
            '<data_type>|<method>' and it lists the method's rules."""
            try:
                data_type, method = args.split("|", 1)
            except ValueError:
                return b"usage: <data_type>|<method>\n"
            m = self.extractors.get(data_type.strip(), method.strip())
            return (f"extraction method {m.name!r} for {m.data_type!r}: "
                    f"{len(m.program.rules)} rules\n").encode()

        self.proxy_functions["extract-info"] = extract

    # ------------------------------------------------------------------
    # convenience used throughout tests/benchmarks
    # ------------------------------------------------------------------

    def bootstrap_admin(self, username: str = "srbadmin@sdsc",
                        password: str = "hunter2") -> Ticket:
        """Create a sysadmin and return a ticket for them (no RPC charge —
        this is out-of-band setup, like editing MCAT directly)."""
        if not self.users.exists(username):
            self.users.add_user(username, password, role="sysadmin")
        return self.authority.issue(Principal.parse(username))

    # ------------------------------------------------------------------
    # cross-zone federation
    # ------------------------------------------------------------------

    def federate_with(self, other: "Federation") -> None:
        """Peer two zones (SRB-3.x-style zone federation).

        Requires the zones to share one simulated network (and clock).
        Establishes mutual ticket trust — a user signed on at home is
        *authenticated* in the peer zone under the same name@domain —
        and registers each side for read forwarding: a server receiving
        a request for a path in the peer's zone forwards it to a server
        there.  Authorization stays local: the peer's ACLs decide what
        the foreign principal may do.
        """
        if other is self:
            raise SrbError("a zone cannot federate with itself")
        if other.network is not self.network:
            raise SrbError(
                "zones must share a network to federate (pass network= "
                "when constructing the second Federation)")
        if other.zone == self.zone:
            raise SrbError(f"both zones are named {self.zone!r}")
        self.peers[other.zone] = other
        other.peers[self.zone] = self
        self.authority.trust_zone(other.zone, other.authority.zone_key)
        other.authority.trust_zone(self.zone, self.authority.zone_key)

    def peer_zone(self, zone: str) -> "Federation":
        try:
            return self.peers[zone]
        except KeyError:
            raise NoSuchServer(
                f"zone {self.zone!r} is not federated with zone "
                f"{zone!r}") from None

    def cache_sweep(self) -> Dict[str, int]:
        """SRB cache management: flush unpinned cache entries on every
        archive resource ("pinning a file in a cache resource from being
        purged by SRB when performing cache management" is exactly what
        survives this).  Returns entries purged per archive resource."""
        from repro.storage.archive import ArchiveDriver
        purged: Dict[str, int] = {}
        for name in self.resources.physical_names():
            res = self.resources.physical(name)
            if isinstance(res.driver, ArchiveDriver):
                purged[name] = res.driver.purge_cache()
        return purged

    def reset_sessions(self) -> int:
        """Flush every server's kept-alive resource sessions, so the next
        touch of each resource is cold again; returns how many were
        dropped."""
        return sum(s.reset_sessions() for s in self.servers.values())

    def stats(self) -> Dict[str, object]:
        """Federation-wide counters benchmarks print alongside latencies."""
        metrics = self.obs.metrics
        return {
            "virtual_time_s": self.clock.now,
            "messages": self.network.messages_sent,
            "bytes_on_wire": self.network.bytes_sent,
            "failed_attempts": self.network.failed_attempts,
            "rpc_calls": self.rpc.stats.calls,
            "rpc_failures": self.rpc.stats.failures,
            "catalog_objects": self.mcat.total_objects(),
            "catalog_replicas": self.mcat.total_replicas(),
            "acl_checks": self.access.checks,
            "acl_denials": self.access.denials,
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "requests_admitted": int(metrics.total("srb.admission.admitted")),
            "requests_shed": int(metrics.total("srb.admission.shed")),
            "parallel_groups": int(metrics.total("net.parallel.groups")),
            "session_cache_hits": int(sum(
                v for k, v in metrics.series("srb.session_cache").items()
                if "result=hit" in k)),
            "mcat_shards": self.mcat_shards,
            "mcat_replicas": self.mcat_replicas,
            "mcat_replica_reads": int(
                metrics.total("mcat.shard.replica_reads")),
            "mcat_replication_pending": self.mcat.replication_lag(),
            "direct_io": self.direct_io,
            "direct_channels": int(metrics.total("net.direct.channels")),
            "direct_bytes": int(metrics.total("net.direct.bytes")),
            "redirects_denied": int(metrics.total("srb.redirect.denied")),
            "relay_hidden_s": sum(
                h.sum for h in
                metrics.histogram_series("net.relay.hidden_s").values()),
            **self.placement.summary(),
        }
