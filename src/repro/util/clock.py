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
next looked at; none registers a timer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Callable, List, Tuple


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
        #: every hot path; only :meth:`advance` (and a firing timer) sets it
        self.now = float(self.start)
        # (deadline, insertion number, callback): the number keeps equal
        # deadlines first-in first-out and callbacks out of comparisons
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = count()

    # -- advancing --------------------------------------------------------

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative).

        Returns the new time.  Any timers whose deadline is crossed fire in
        deadline order before the method returns.  The clock never moves
        backwards: if a callback advanced it past this call's target, it
        stays where the callback left it.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative {seconds!r}")
        target = self.now + seconds
        if self._timers:
            self._run_timers(target)
            if self.now > target:
                return self.now
        self.now = target
        return target

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to an absolute ``timestamp`` (>= now)."""
        if timestamp < self.now:
            raise ValueError(
                f"cannot move clock backwards: now={self.now} target={timestamp}"
            )
        return self.advance(timestamp - self.now)

    # -- timers ------------------------------------------------------------

    def call_at(self, deadline: float, callback: Callable[[], None]) -> None:
        """Register ``callback`` to run when the clock crosses ``deadline``.

        Nothing in the grid itself uses timers (expiry dates are compared
        lazily); they are for tests and tools that script an event at a
        virtual time.  Callbacks registered for a deadline already in the
        past run on the next ``advance``; equal deadlines fire in
        registration order.
        """
        heapq.heappush(self._timers,
                       (deadline, next(self._timer_seq), callback))

    def _run_timers(self, upto: float) -> None:
        timers = self._timers
        while timers and timers[0][0] <= upto:
            deadline, _seq, callback = heapq.heappop(timers)
            if deadline > self.now:
                self.now = deadline
            callback()


class Stopwatch:
    """Measure elapsed virtual time across a block of operations.

    Usage::

        sw = Stopwatch(clock)
        with sw:
            client.get("/zone/home/big.dat")
        print(sw.elapsed)
    """

    def __init__(self, clock: SimClock):
        self.clock = clock
        self.elapsed = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = self.clock.now
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = self.clock.now - self._t0

    def split(self) -> float:
        """Elapsed virtual time since entry, without closing the watch."""
        return self.clock.now - self._t0
