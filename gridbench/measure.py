"""Client-side measurement: one :class:`Meter` times every client call on
both clocks and counts items, user bytes and failures.

The load is a closed loop with one client: the next call is issued when
the previous one returns.  Time is taken around each call alone, so the
benchmark's own input generation and output checking stay outside every
rate.  Two real-time clocks are read: the thread's CPU time, which the
metrics use — the program is single-threaded and never waits, so on an
idle machine it equals elapsed time, and on a shared one it leaves out
the stretches the process was descheduled — and elapsed time, kept for
the traced run's consistency sum and for reference.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, List, Optional, Sequence

FAILED = object()     # what Meter.call returns when the call raised


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the spread the bounds are judged against."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def absorb(digest: Any, value: Any) -> None:
    """Fold a call's arguments into an input fingerprint."""
    if isinstance(value, (bytes, bytearray)):
        digest.update(value)
    elif isinstance(value, dict):
        absorb(digest, sorted(value.items()))
    elif isinstance(value, (list, tuple)):
        for item in value:
            absorb(digest, item)
    else:
        digest.update(repr(value).encode())


class Meter:
    """Times calls — CPU, elapsed and virtual time — and keeps count of
    what they delivered and of what failed."""

    def __init__(self, recorder: Optional[Any] = None):
        self.recorder = recorder      # tracing.Recorder on traced rounds
        self.kinds: List[str] = []
        self.wall: List[float] = []    # elapsed seconds of each call
        self.cpu: List[float] = []     # CPU seconds of each call
        self.virt: List[float] = []    # virtual seconds of each call
        self.items = 0
        self.user_bytes = 0
        self.checks = 0               # untimed verification calls
        self.failed = 0
        self.errors: List[str] = []
        self.digest = None            # hashlib object: fingerprint inputs
        self.profiler = None          # cProfile.Profile: count the calls
        self._clock = None
        self._last_failed = False

    def attach(self, fed: Any) -> None:
        """Read virtual time from this federation from now on."""
        self._clock = fed.clock

    # -- timed calls --------------------------------------------------------

    def call(self, kind: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Issue one client call; returns its result or :data:`FAILED`."""
        clock = self._clock
        self._last_failed = False
        recorder = self.recorder
        if self.digest is not None:
            absorb(self.digest, (kind, args, kwargs))
        if self.profiler is not None:
            self.profiler.enable()
        v0 = clock.now
        c0 = thread_time()
        t0 = perf_counter()
        try:
            if recorder is None:
                result = fn(*args, **kwargs)
            else:
                result = recorder.request(kind, len(self.kinds), fn, args,
                                          kwargs)
            t1 = perf_counter()
            c1 = thread_time()
        except Exception as exc:   # a failed op is a result, not a crash
            t1 = perf_counter()
            c1 = thread_time()
            result = FAILED
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
        if self.profiler is not None:
            self.profiler.disable()
        self.kinds.append(kind)
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self.virt.append(clock.now - v0)
        return result

    def done(self, items: int = 1, nbytes: int = 0) -> None:
        """Credit the work the last call delivered."""
        self.items += items
        self.user_bytes += nbytes

    def expect(self, ok: bool, message: str) -> bool:
        """Correctness gate on the last call's output."""
        if not ok and not self._last_failed:
            self._fail(message)
        return ok

    def verify(self, ok: bool, message: str) -> None:
        """An untimed verification (end-of-round ``client.verify`` etc.)."""
        self.checks += 1
        self._last_failed = False
        if not ok:
            self._fail(message)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self._last_failed = True
        if len(self.errors) < 5:
            self.errors.append(message)

    # -- read-out -----------------------------------------------------------

    @property
    def calls(self) -> int:
        return len(self.kinds)

    def mark(self) -> Dict[str, int]:
        return {"calls": self.calls, "items": self.items,
                "user_bytes": self.user_bytes}

    def since(self, mark: Dict[str, int]) -> "Stats":
        lo = mark["calls"]
        return Stats(calls=self.calls - lo,
                          wall_s=math.fsum(self.wall[lo:]),
                          cpu_s=math.fsum(self.cpu[lo:]),
                          items=self.items - mark["items"],
                          user_bytes=self.user_bytes - mark["user_bytes"],
                          first=lo)


class Stats:
    """Totals over a run of consecutive calls (a round)."""

    __slots__ = ("calls", "wall_s", "cpu_s", "items", "user_bytes", "first")

    def __init__(self, calls: int, wall_s: float, cpu_s: float, items: int,
                 user_bytes: int, first: int):
        self.calls = calls
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.items = items
        self.user_bytes = user_bytes
        self.first = first            # index of the round's first call

