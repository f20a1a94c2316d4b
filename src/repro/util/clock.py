"""Deterministic virtual clock.

Every latency-bearing component of the stack (network links, tape mounts,
database scans) charges time to a :class:`SimClock` instead of sleeping.
Benchmarks then report *virtual seconds*: deterministic, platform
independent, and directly comparable across parameter sweeps, which is what
the paper's qualitative claims (containers amortize WAN round trips, tape
mounts dominate small-file archive access, ...) are about.

The clock also dates the system's own artifacts: MySRB session keys
(60-minute limit), lock and pin expiry dates, and audit timestamps.  All
of them compare a stored ``expires_at`` with :attr:`SimClock.now` when
next looked at; the clock itself only moves forward and calls nothing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimClock:
    """A monotonically advancing virtual clock measured in seconds.

    Parameters
    ----------
    start:
        Initial timestamp.  Using 0.0 keeps traces easy to read; tests that
        care about absolute dates can seed an epoch.
    """

    start: float = 0.0

    def __post_init__(self) -> None:
        #: current virtual time in seconds — a plain attribute, read on
        #: every hot path; only :meth:`advance` sets it
        self.now = float(self.start)

    # -- advancing --------------------------------------------------------

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative).

        Returns the new time.  The clock never moves backwards.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative {seconds!r}")
        self.now += seconds
        return self.now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to an absolute ``timestamp`` (>= now)."""
        if timestamp < self.now:
            raise ValueError(
                f"cannot move clock backwards: now={self.now} target={timestamp}"
            )
        return self.advance(timestamp - self.now)
