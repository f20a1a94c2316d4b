"""The placement engine: every placement decision behind one seam.

A :class:`PlacementEngine` lives on the federation
(``Federation(placement=...)``) and answers every replica/resource
choice — read ordering, the failover chain, write destinations, the
synchronize source, a container's append target and the stripe count
of ``get(stripes="auto")`` — consulting one pluggable
:class:`~repro.policy.policies.PlacementPolicy` plus the
federation-wide :class:`~repro.policy.stats.PathStats` history.

Where a reader's bytes come from: ``source_chain(replicas, sink)`` is
the failover chain in the policy's order, stable-partitioned into three
tiers — online copies on the host the bytes must end up on, other
online copies, tape-resident copies (``StorageDriver.is_online``; an
archive copy is online while in its disk cache).  The split is
policy-independent: no measured bandwidth makes a wire pull beat bytes
already on the sink, or a tape stage beat a disk read.  It never lifts
a copy whose path to the sink is quarantined over one the policy ranked
first (else each read would probe a dead host the policy had ranked
after a tape copy), and never demotes one either (the walk's charged
failover, E2/A1b, stays the policy's).  ``get``/``bulk_get``/striped
reads — container members and a container prefetch included — use the
sink they deliver to, ``replicate`` the destination's host (the bytes
move source→destination, never through the server).  Write targets keep the
policy's order — ``put``'s replica and ``checkin``'s snapshot pick which
copy becomes the fresh one, and ``physical_move``'s source is the copy
relocated and deleted, not only where bytes are read from — and so does
``synchronize``'s source, which pushes to every dirty host at once
(``sync_source_order``): there is no one sink.

The engine registers its ``PathStats`` as a transfer observer on the
network regardless of policy, so even a federation running a static
policy accumulates the history an operator can inspect (``Sstat``,
MySRB ``/status``) before switching to ``placement="observed"``.

Auto-tuned striping: ``choose_stripes`` picks the stripe count for a
``get(stripes="auto")`` read by minimizing the predicted cost model

    est(k) = sum(owed_i, i<k)  +  max_i<k( predict(path_i, ceil(size/k)) )

— the session-open messages the first k candidates still owe, paid
serially, then the striped :class:`~repro.net.simnet.TransferGroup`
charging its slowest member (makespan).  More stripes shrink the chunk
each path carries but may add a probe and recruit ever-slower paths;
the argmin is the measured knee E14 found by hand sweep.  What a
session costs, and whether a candidate still owes one, is the data
plane's knowledge (``PlaneService._session_owed``): the caller passes
it in, the engine only prices it.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReplicaUnavailable
from repro.net.simnet import Network
from repro.policy.policies import PlacementContext, make_policy
from repro.policy.stats import QUARANTINE_SCORE, PathStats
from repro.storage.resource import PhysicalResource, ResourceRegistry

_BY_NUMBER = itemgetter("replica_num")     # a C key: no call per row


class PlacementEngine:
    """One federation's placement brain."""

    def __init__(self, resources: ResourceRegistry, network: Network,
                 policy: str = "primary",
                 stats: Optional[PathStats] = None):
        self.policy = make_policy(policy)    # raises on an unknown name
        self.resources = resources
        self.network = network
        self.obs = network.obs
        self.clock = network.clock
        self.stats = stats if stats is not None else PathStats()
        network.add_transfer_observer(self.stats)
        #: decisions made, by (policy name, kind): ``policy.decisions``
        self.decisions: Counter = Counter()
        self.obs.metrics.add_collector(self._samples)

    @property
    def policy_name(self) -> str:
        return self.policy.name

    def _ctx(self, from_host: Optional[str],
             size_hint: Optional[int] = None) -> PlacementContext:
        return PlacementContext(resources=self.resources,
                                network=self.network, stats=self.stats,
                                from_host=from_host, size_hint=size_hint,
                                now=self.clock.now)

    def _samples(self):
        for (policy, kind), n in self.decisions.items():
            yield "policy.decisions", {"policy": policy, "kind": kind}, n

    # -- read path ------------------------------------------------------

    def order_replicas(self, replicas: List[Dict[str, Any]],
                       from_host: Optional[str] = None,
                       size_hint: Optional[int] = None
                       ) -> List[Dict[str, Any]]:
        """Replicas in preferred access order (drops none: the tail is
        the failover chain)."""
        reps = sorted(replicas, key=_BY_NUMBER)
        if not reps:
            return []
        self.decisions[self.policy.name, "read-order"] += 1
        return self.policy.order(reps, self._ctx(from_host, size_hint))

    def failover_chain(self, replicas: List[Dict[str, Any]],
                       from_host: Optional[str] = None,
                       allow_dirty: bool = False,
                       size_hint: Optional[int] = None
                       ) -> List[Dict[str, Any]]:
        """Ordered replicas that are clean and whose resource is
        reachable right now.  Raises if the chain is empty."""
        available = self.resources.available
        chain = [rep for rep in self.order_replicas(replicas, from_host,
                                                    size_hint)
                 if (allow_dirty or not rep["is_dirty"])
                 and available(rep["resource"])]
        if not chain:
            raise ReplicaUnavailable(
                "no clean replica on an available resource "
                f"(of {len(replicas)} replicas)")
        return chain

    def source_chain(self, replicas: List[Dict[str, Any]], sink: str,
                     probe_down: bool = False) -> List[Dict[str, Any]]:
        """The clean copies a reader of bytes tries, in order, for bytes
        that must end up on host ``sink``.

        The policy's order, stable-partitioned into three tiers: online
        copies on ``sink``'s host, other online copies, offline
        (tape-resident) copies.  A copy whose path to ``sink`` is
        quarantined (:data:`QUARANTINE_SCORE`; the failure scores of
        both directions add up, as a failed probe counts sink→copy and a
        failed pull copy→sink) is never lifted over a copy the policy
        ranked before it: it takes the worst tier of those and its own,
        and keeps its place among copies of that tier.  Nothing
        is dropped, so the tail is still the failover chain.  As
        :meth:`failover_chain`, copies on a down host are left out and
        an empty chain raises — unless ``probe_down``: then they stay
        for the reader to discover by its charged probe (E2), and the
        chain may be empty.
        """
        if probe_down:
            chain = [rep for rep in self.order_replicas(replicas, sink)
                     if not rep["is_dirty"]]
        else:
            chain = self.failover_chain(replicas, from_host=sink)
        if not chain[1:]:       # one candidate: nothing to rank, no call
            return chain
        score, now = self.stats.failure_score, self.clock.now
        ranked, floor = [], 0
        for i, rep in enumerate(chain):
            res = self.resources.physical(rep["resource"])
            h = res.host
            tier = 2 if not res.driver.is_online(rep["physical_path"]) \
                else 0 if h == sink else 1
            if score(h, sink, now) + score(sink, h, now) >= QUARANTINE_SCORE:
                tier = max(tier, floor)
            floor = max(floor, tier)
            ranked.append((tier, i))        # i: the policy's order
        return [chain[i] for _tier, i in sorted(ranked)]

    def order_container_replicas(self, replicas: List[Dict[str, Any]]
                                 ) -> List[Dict[str, Any]]:
        """Container replicas, the append target first: non-archive
        copies before archive ones, each by replica number.

        Appends, compaction and the garbage count work on that first
        copy; a reader of container bytes walks :meth:`source_chain`
        like any other reader."""
        return sorted(replicas, key=lambda r: (
            self.resources.physical(r["resource"]).rtype == "archive",
            r["replica_num"]))

    # -- write path -----------------------------------------------------

    def order_resources(self, res_list: Sequence[PhysicalResource],
                        from_host: Optional[str] = None,
                        size_hint: Optional[int] = None
                        ) -> List[PhysicalResource]:
        """Destination order for ingest/replicate fan-out; the first
        destination becomes the primary (lowest-numbered) replica."""
        if len(res_list) > 1:
            self.decisions[self.policy.name, "write-order"] += 1
        return self.policy.order_resources(
            res_list, self._ctx(from_host, size_hint))

    def sync_source_order(self, clean: List[Dict[str, Any]],
                          dirty_hosts: Sequence[str],
                          size_hint: Optional[int] = None
                          ) -> List[Dict[str, Any]]:
        """Preference order for the clean replica ``synchronize``
        refreshes every dirty copy from."""
        return self.policy.source_order(
            list(clean), list(dirty_hosts), self._ctx(None, size_hint))

    # -- striping -------------------------------------------------------

    def choose_stripes(self, candidates: Sequence[PhysicalResource],
                       size: int, owed: Sequence[Sequence[int]],
                       from_host: Optional[str] = None) -> int:
        """Stripe count for a ``get(stripes="auto")`` read.

        ``candidates`` are the usable striped sources — clean replicas
        on distinct remote hosts, in policy-preferred order; ``owed[i]``
        holds the sizes of the session-open messages candidate i still
        owes (empty while the server holds a live session to it).
        Minimizes the probes + makespan model (module docstring) over k;
        ties go to fewer stripes.
        """
        if size <= 0 or len(candidates) < 2:
            return 1
        ctx = self._ctx(from_host)
        probes = [sum(ctx.predict_s(from_host, res.host, nbytes)
                      for nbytes in msgs)
                  for res, msgs in zip(candidates, owed)]
        pulls = [lambda nbytes, res=res: (
                     ctx.predict_s(res.host, from_host, nbytes)
                     * (1.0 + ctx.failure_score(res.host, from_host)))
                 for res in candidates]
        best_k, best_est = 1, None
        for k in range(1, len(candidates) + 1):
            chunk = -(-size // k)        # ceil division
            est = sum(probes[:k]) + max(p(chunk) for p in pulls[:k])
            if best_est is None or est < best_est - 1e-12:
                best_k, best_est = k, est
        self.decisions[self.policy.name, "auto-stripe"] += 1
        self.obs.metrics.inc("policy.auto_stripes", k=str(best_k))
        return best_k

    # -- introspection --------------------------------------------------

    def path_report(self) -> List[Dict[str, Any]]:
        return self.stats.report()

    def summary(self) -> Dict[str, Any]:
        """Keys merged into ``Federation.stats()``."""
        metrics = self.obs.metrics
        return {
            "placement": self.policy_name,
            "placement_paths": self.stats.path_count(),
            "placement_decisions": int(metrics.total("policy.decisions")),
            "placement_auto_stripe_picks": int(
                metrics.total("policy.auto_stripes")),
        }
