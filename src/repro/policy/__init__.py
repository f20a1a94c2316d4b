"""``repro.policy`` — placement decisions behind one pluggable seam.

* :mod:`repro.policy.stats` — :class:`PathStats`, the cost-free
  observer of per-(src, dst) transfer history (EWMA throughput/latency,
  decayed failure score);
* :mod:`repro.policy.policies` — the :class:`PlacementPolicy` interface
  and the five policies (``primary``, ``round-robin``, ``random``,
  ``nearest``, ``observed``);
* :mod:`repro.policy.engine` — :class:`PlacementEngine`, the
  federation-level facade every chooser in the data/replica planes,
  container manager and synchronize path consults.
"""

from repro.policy.engine import PlacementEngine
from repro.policy.policies import (
    PLACEMENT_POLICIES,
    NearestPolicy,
    ObservedPolicy,
    PlacementContext,
    PlacementPolicy,
    PrimaryPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.policy.stats import QUARANTINE_SCORE, RATE_SAMPLE_MIN_BYTES, Ewma, \
    PathRecord, PathStats

__all__ = [
    "PlacementEngine",
    "PLACEMENT_POLICIES",
    "QUARANTINE_SCORE",
    "NearestPolicy",
    "ObservedPolicy",
    "PlacementContext",
    "PlacementPolicy",
    "PrimaryPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "make_policy",
    "RATE_SAMPLE_MIN_BYTES",
    "Ewma",
    "PathRecord",
    "PathStats",
]
