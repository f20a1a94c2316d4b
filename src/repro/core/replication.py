"""Replica management: synchronization.

The paper's replication claim this module carries: "the consistency of
the replicas should be maintained with very little effort on the part
of the users" (write-one/mark-dirty plus :func:`synchronize`, the
replica-refresh algorithm).  Which replica to read, fail over to or
refresh from is decided in :mod:`repro.policy` — one pluggable
:class:`~repro.policy.engine.PlacementEngine` per federation carries the
load-balancing (E3) and fault-tolerance (E2) claims; see DESIGN.md,
"Placement policy engine".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ReplicaUnavailable, ReplicationError
from repro.mcat.catalog import Mcat
from repro.policy import PlacementEngine
from repro.storage.resource import ResourceRegistry

def pick_clean_available(placement: PlacementEngine,
                         replicas: List[Dict[str, Any]],
                         **kwargs: Any) -> List[Dict[str, Any]]:
    """:meth:`PlacementEngine.failover_chain`, under the name
    ``gridbench/tracing.LAYER_ENTRYPOINTS`` wraps and refuses to run
    without.  Nothing in this package calls it; delete it when
    ``gridbench/`` can next be edited."""
    return placement.failover_chain(replicas, **kwargs)


def synchronize(mcat: Mcat, resources: ResourceRegistry, channels: Any,
                oid: int, placement: Optional[PlacementEngine] = None) -> int:
    """Refresh every dirty replica of ``oid`` from a clean one.

    Bytes move clean-resource-host -> dirty-resource-host through
    ``channels`` (the federation's
    :class:`~repro.core.federation.ChannelBroker`, whose leg runner
    overlaps the pushes and decides whether they are raw transfers or
    ticketed channels); returns the number of replicas refreshed.  A
    member that cannot be reached — one dirty copy or one of many — is
    skipped: it stays dirty and does not poison its siblings' refresh.

    ``placement`` (the federation's engine) chooses which clean replica
    sources the refresh: under a static policy the preference is the
    historical catalog order, under ``observed`` it is the replica with
    the smallest predicted total push time to the dirty hosts.
    """
    replicas = mcat.replicas(oid)
    clean = [r for r in replicas if not r["is_dirty"]
             and r["container_oid"] is None]
    dirty = [r for r in replicas if r["is_dirty"]
             and r["container_oid"] is None]
    if not dirty:
        return 0
    if not clean:
        raise ReplicationError(f"object {oid} has no clean replica to sync from")
    if placement is not None:
        dirty_hosts = sorted({resources.physical(r["resource"]).host
                              for r in dirty
                              if resources.available(r["resource"])})
        clean = placement.sync_source_order(clean, dirty_hosts)
    source = None
    for rep in clean:
        if resources.available(rep["resource"]):
            source = rep
            break
    if source is None:
        raise ReplicaUnavailable(f"no clean replica of {oid} reachable")
    src_res = resources.physical(source["resource"])
    data = src_res.driver.read_all(source["physical_path"])

    targets = [(rep, resources.physical(rep["resource"])) for rep in dirty
               if resources.available(rep["resource"])]
    outcomes = channels.run_legs(
        [(src_res.host, dst_res.host, len(data), rep["physical_path"])
         for rep, dst_res in targets], "synchronize")
    refreshed = 0
    for (rep, dst_res), outcome in zip(targets, outcomes):
        if not outcome.ok:
            continue
        dst_res.driver.replace(rep["physical_path"], data)
        mcat.update_replica(oid, rep["replica_num"],
                            is_dirty=False, size=len(data))
        refreshed += 1
    return refreshed
