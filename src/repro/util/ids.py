"""Deterministic identifier generation.

The SRB assigns several families of identifiers: object ids in MCAT,
replica numbers, session keys, ticket ids, audit record ids.  We generate
them from per-family counters owned by an :class:`IdFactory` so that test
runs and benchmarks are fully reproducible (no wall-clock or PRNG input).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict


class IdFactory:
    """Per-prefix monotonically increasing id generator.

    ``factory.next_int("oid")`` yields ``1``, ``2``, ...  Each prefix
    has an independent counter.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)

    def next_int(self, prefix: str) -> int:
        """Bare integer counter for families that are numeric in the paper
        (e.g. replica numbers, version numbers)."""
        self._counters[prefix] += 1
        return self._counters[prefix]

    def next_ints(self, prefix: str, n: int) -> range:
        """The next ``n`` of :meth:`next_int`'s integers, minted at once."""
        last = self._counters[prefix] = self._counters[prefix] + n
        return range(last - n + 1, last + 1)

    def peek(self, prefix: str) -> int:
        """Current counter value without incrementing (mainly for tests)."""
        return self._counters[prefix]


def session_key(factory: IdFactory, username: str) -> str:
    """Produce a MySRB session key.

    The paper stores a unique session key as an in-memory browser cookie;
    we derive a deterministic token that still looks opaque enough to
    exercise the validation paths.
    """
    serial = factory.next_int("session")
    # A stable hash of (serial, username); NOT cryptographic, by design.
    basis = f"{serial}:{username}"
    digest = 0
    for ch in basis:
        digest = (digest * 131 + ord(ch)) % (2**64)
    return f"sk-{serial:06d}-{digest:016x}"
