"""Placement policies: pluggable replica/resource choice strategies.

One :class:`PlacementPolicy` instance lives inside a federation's
:class:`~repro.policy.engine.PlacementEngine` and makes every placement
decision — read-replica ordering, ingest/replicate destination
ordering, synchronize source preference — through a uniform interface.
The four static policies keep their pre-engine orderings bit-for-bit
(the refactor-parity recordings pin this); ``observed`` ranks by
:class:`~repro.policy.stats.PathStats` predictions.

The paper: "the user can ask for a particular copy or let SRB choose
its own access" — this module is the "SRB chooses" half, grown from a
static default into the measured-history approach of "Replica Selection
in the Globus Data Grid" (PAPERS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReplicationError
from repro.net.simnet import Network
from repro.policy.stats import QUARANTINE_SCORE, PathStats
from repro.storage.resource import PhysicalResource, ResourceRegistry

#: Every policy the engine accepts (``Federation(placement=...)``).
PLACEMENT_POLICIES = ("primary", "round-robin", "random", "nearest",
                      "observed")


@dataclass
class PlacementContext:
    """Everything a policy may consult for one decision.

    ``from_host`` is the host doing the transfer (the SRB server
    handling the op); ``size_hint`` the bytes about to move (policies
    fall back to each replica row's recorded size when absent);
    ``stats`` the federation's :class:`PathStats`; ``now`` the virtual
    time, for failure-score decay.
    """

    resources: ResourceRegistry
    network: Network
    stats: PathStats
    from_host: Optional[str] = None
    size_hint: Optional[int] = None
    now: float = 0.0

    def host_of(self, resource_name: str) -> str:
        return self.resources.physical(resource_name).host

    def predict_s(self, src: str, dst: str, nbytes: int) -> float:
        """Predicted transfer seconds, from measured history.

        Same-host moves never touch the wire and predict 0.  Unmeasured
        components assume the grid's *default* link — the predictor's
        prior is "an ordinary path", never the true per-path spec, so
        ``observed`` has to genuinely learn a path before treating it as
        fast or slow.
        """
        if src == dst:
            return 0.0
        return self.stats.predict_s(src, dst, nbytes,
                                    fallback=self.network.default_link)

    def failure_score(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        return self.stats.failure_score(src, dst, self.now)


class PlacementPolicy:
    """Base policy: primary-copy order everywhere.

    Subclasses override :meth:`order` (read-replica preference) and,
    for measurement-driven policies, :meth:`order_resources` (write
    destination preference) and :meth:`source_order` (synchronize
    source preference).  The base implementations are deliberately
    identity transforms so static policies keep the exact historical
    behavior at every non-read decision point.
    """

    name = "primary"
    #: Whether container replicas are re-ranked within their storage
    #: tier (cache vs archive).  Static policies never were.
    reorders_containers = False

    def order(self, replicas: List[Dict[str, Any]],
              ctx: PlacementContext) -> List[Dict[str, Any]]:
        """``replicas`` arrive sorted by replica number; return them in
        preferred access order (drop none: the tail is the failover
        chain)."""
        return replicas

    def order_resources(self, res_list: Sequence[PhysicalResource],
                        ctx: PlacementContext) -> List[PhysicalResource]:
        """Destination order for ingest/replicate fan-out.  The first
        destination becomes the lowest-numbered (primary) replica."""
        return list(res_list)

    def source_order(self, clean: List[Dict[str, Any]],
                     dirty_hosts: Sequence[str],
                     ctx: PlacementContext) -> List[Dict[str, Any]]:
        """Preference order for the clean replica ``synchronize``
        refreshes from."""
        return list(clean)


class PrimaryPolicy(PlacementPolicy):
    """Lowest replica number first — the paper's default."""

    name = "primary"


class RoundRobinPolicy(PlacementPolicy):
    """Rotate the starting replica per call, spreading load.

    The rotation counter is **per policy instance**, i.e. per
    federation: two successive reads start at different replicas (a
    per-request selector would always start at the same one — pinned by
    a regression test).
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._rr_counter = 0

    def order(self, replicas, ctx):
        k = self._rr_counter % len(replicas)
        self._rr_counter += 1
        return replicas[k:] + replicas[:k]


class RandomPolicy(PlacementPolicy):
    """Deterministic LCG-driven shuffle — spreads load without state
    shared across federations."""

    name = "random"

    def __init__(self) -> None:
        self._lcg_state = 0x9E3779B9

    def _lcg(self) -> int:
        self._lcg_state = (self._lcg_state * 6364136223846793005 +
                           1442695040888963407) % (2**64)
        return self._lcg_state

    def order(self, replicas, ctx):
        # Fisher–Yates driven by the LCG: a rotation only ever yields
        # n of the n! orderings, so replicas adjacent in number stay
        # adjacent in every chain and load never truly spreads.
        shuffled = list(replicas)
        for i in range(len(shuffled) - 1, 0, -1):
            # draw from the high bits: with a 2^64 modulus the low
            # bit of the LCG strictly alternates, so ``state % 2``
            # would undo the shuffle for the last swap
            j = (self._lcg() >> 32) % (i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        return shuffled


class NearestPolicy(PlacementPolicy):
    """Ascending link latency from the reading host.

    Tie-breaking is fully deterministic: replicas are ordered by
    ``(link latency, replica_num)``, so two replicas tying on latency
    from different hosts always come back lowest-replica-number first —
    regardless of input order or host names.  Without a reading host
    the replica-number order stands.
    """

    name = "nearest"

    def order(self, replicas, ctx):
        if ctx.from_host is None:
            return replicas

        def latency(row: Dict[str, Any]) -> float:
            host = ctx.host_of(row["resource"])
            return ctx.network.link(ctx.from_host, host).latency_s

        return sorted(replicas, key=lambda r: (latency(r), r["replica_num"]))


class ObservedPolicy(PlacementPolicy):
    """Rank by predicted transfer time from measured path history.

    Each candidate replica is scored with the predicted seconds to move
    its bytes from its resource's host to the reading host
    (:meth:`PlacementContext.predict_s`), inflated by the path's
    decayed failure score; candidates whose score crossed
    :data:`QUARANTINE_SCORE` sort after everything healthy.  Ties —
    including the cold-start case where no path has history and every
    prediction is the default-link prior — fall back to
    ``(predicted, replica_num)``, keeping the cold policy deterministic
    and primary-like.
    """

    name = "observed"
    reorders_containers = True

    def _read_key(self, row: Dict[str, Any], ctx: PlacementContext):
        src = ctx.host_of(row["resource"])
        dst = ctx.from_host
        nbytes = ctx.size_hint
        if nbytes is None:
            nbytes = int(row.get("size") or 0)
        fail = ctx.failure_score(src, dst)
        predicted = ctx.predict_s(src, dst, nbytes) * (1.0 + fail)
        return (1 if fail >= QUARANTINE_SCORE else 0,
                predicted, row["replica_num"])

    def order(self, replicas, ctx):
        if ctx.from_host is None:
            return replicas
        return sorted(replicas, key=lambda r: self._read_key(r, ctx))

    def order_resources(self, res_list, ctx):
        if ctx.from_host is None:
            return list(res_list)
        nbytes = ctx.size_hint or 0

        def key(res: PhysicalResource):
            fail = ctx.failure_score(ctx.from_host, res.host)
            pred = ctx.predict_s(ctx.from_host, res.host,
                                 nbytes) * (1.0 + fail)
            return (1 if fail >= QUARANTINE_SCORE else 0, pred, res.name)

        return sorted(res_list, key=key)

    def source_order(self, clean, dirty_hosts, ctx):
        if not dirty_hosts:
            return list(clean)
        nbytes = ctx.size_hint

        def key(row: Dict[str, Any]):
            src = ctx.host_of(row["resource"])
            size = nbytes if nbytes is not None else int(row.get("size") or 0)
            # the source pushes to every dirty host: prefer the replica
            # whose total predicted push time is smallest
            pred = sum(ctx.predict_s(src, h, size) *
                       (1.0 + ctx.failure_score(src, h))
                       for h in dirty_hosts)
            return (pred, row["replica_num"])

        return sorted(clean, key=key)


_POLICY_CLASSES = {
    "primary": PrimaryPolicy,
    "round-robin": RoundRobinPolicy,
    "random": RandomPolicy,
    "nearest": NearestPolicy,
    "observed": ObservedPolicy,
}


def make_policy(name: str) -> PlacementPolicy:
    """A fresh (stateful) policy instance for ``name``."""
    try:
        cls = _POLICY_CLASSES[name]
    except KeyError:
        raise ReplicationError(
            f"unknown placement policy {name!r}; "
            f"choose from {PLACEMENT_POLICIES}") from None
    return cls()
