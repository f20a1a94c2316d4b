"""Replica management: synchronization.

The paper's replication claim this module carries: "the consistency of
the replicas should be maintained with very little effort on the part
of the users" (write-one/mark-dirty plus :func:`synchronize`, the
catalog half of the replica refresh; a server moves the bytes).  Which
replica to read, fail over to or refresh from is decided in
:mod:`repro.policy` — one pluggable
:class:`~repro.policy.engine.PlacementEngine` per federation carries the
load-balancing (E3) and fault-tolerance (E2) claims; see DESIGN.md,
"Placement policy engine".
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import ReplicationError
from repro.mcat.catalog import Mcat
from repro.policy import PlacementEngine


def pick_clean_available(placement: PlacementEngine,
                         replicas: List[Dict[str, Any]],
                         **kwargs: Any) -> List[Dict[str, Any]]:
    """:meth:`PlacementEngine.failover_chain`, under the name
    ``gridbench/tracing.LAYER_ENTRYPOINTS`` wraps and refuses to run
    without.  Nothing in this package calls it; delete it when
    ``gridbench/`` can next be edited."""
    return placement.failover_chain(replicas, **kwargs)


def synchronize(mcat: Mcat, oid: int) -> Tuple[List[Dict[str, Any]],
                                               List[Dict[str, Any]]]:
    """The catalog half of refreshing ``oid``'s dirty replicas: its
    clean and its dirty copies outside containers, in catalog order.
    Raises :class:`ReplicationError` when a dirty copy has no clean one
    to come from.

    The bytes are the server's to move: a plane's
    :meth:`~repro.core.planes.base.PlaneService._refresh` picks the
    source (through the placement engine), reads it and rewrites every
    dirty copy through its write loop, then marks each rewritten copy
    clean."""
    replicas = mcat.replicas(oid)
    clean = [r for r in replicas if not r["is_dirty"]
             and r["container_oid"] is None]
    dirty = [r for r in replicas if r["is_dirty"]
             and r["container_oid"] is None]
    if dirty and not clean:
        raise ReplicationError(f"object {oid} has no clean replica to sync from")
    return clean, dirty
