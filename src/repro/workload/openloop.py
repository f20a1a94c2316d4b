"""Open-loop load generation against the simulated grid.

A *closed-loop* driver (every test and benchmark before E15) issues the
next request when the previous one completes, so offered load can never
exceed service capacity and a saturated server is unrepresentable.  An
**open-loop** driver issues requests at scheduled arrival times drawn
from a Poisson process at a target offered rate, *independent of
completions* — exactly how the AMGA paper evaluates its catalog and the
regime where "heavy traffic from millions of users" lives.

The pieces:

``poisson_arrivals``
    Deterministic (seeded) Poisson arrival timestamps at a target rate.

``run_open_loop``
    Replays arrivals against a :class:`~repro.net.rpc.ServiceRegistry`:
    each request is issued inside ``registry.open_loop(arrival)`` so its
    queue wait at the server's worker pool is accounted in station
    bookkeeping (overlapping with other requests) rather than
    serializing on the global clock, and its client-perceived latency is
    read back from ``registry.last_timing``.  Requests shed by admission
    control (:class:`~repro.errors.ServerBusy`) are recorded, not
    retried — an open loop does not slow down when the server pushes
    back, which is what makes the knee visible.

``LoadReport``
    Percentile latencies (p50/p95/p99), goodput and shed counts over
    the run — the columns of a saturation curve (experiment E15).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.errors import ServerBusy, SrbError


def poisson_arrivals(rate_hz: float, n: int, seed: int = 0,
                     start: float = 0.0) -> List[float]:
    """``n`` Poisson arrival timestamps at ``rate_hz`` requests/second.

    Inter-arrival gaps are exponentially distributed with mean
    ``1/rate_hz``, generated deterministically from ``seed`` so every
    sweep point of a benchmark replays the identical arrival pattern.
    """
    if rate_hz <= 0:
        raise ValueError(f"offered rate must be positive, got {rate_hz}")
    if n < 0:
        raise ValueError(f"negative request count {n}")
    rng = random.Random(seed)
    t = float(start)
    out: List[float] = []
    for _ in range(n):
        t += rng.expovariate(rate_hz)
        out.append(t)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class RequestOutcome:
    """One open-loop request as the report sees it."""

    index: int
    arrival: float
    wait: float = 0.0                    #: queue wait at the server
    latency: Optional[float] = None      #: arrival -> response at client
    shed: bool = False                   #: refused by admission control
    retry_after: Optional[float] = None  #: ServerBusy's backoff hint
    error: Optional[str] = None          #: non-busy failure type name

    @property
    def ok(self) -> bool:
        return not self.shed and self.error is None

    @property
    def done(self) -> Optional[float]:
        if self.latency is None:
            return None
        return self.arrival + self.latency


@dataclass
class LoadReport:
    """Aggregate view of one open-loop run (one sweep point of E15)."""

    offered_rate_hz: float
    outcomes: List[RequestOutcome] = field(default_factory=list)

    @property
    def issued(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> List[RequestOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def shed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.shed)

    @property
    def error_count(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None
                   and not o.shed)

    @property
    def shed_fraction(self) -> float:
        return self.shed_count / self.issued if self.issued else 0.0

    def latencies(self) -> List[float]:
        """Latencies of *completed* requests (shed fast-fails excluded:
        a 40 ms busy reply must not masquerade as a fast success)."""
        return [o.latency for o in self.completed if o.latency is not None]

    def p(self, q: float) -> float:
        return percentile(self.latencies(), q)

    @property
    def p50(self) -> float:
        return self.p(50)

    @property
    def p99(self) -> float:
        return self.p(99)

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion, virtual seconds."""
        if not self.outcomes:
            return 0.0
        dones = [o.done for o in self.outcomes if o.done is not None]
        end = max(dones) if dones else self.outcomes[-1].arrival
        return max(0.0, end - self.outcomes[0].arrival)

    @property
    def goodput_hz(self) -> float:
        """Completed requests per virtual second over the makespan."""
        span = self.makespan_s
        return len(self.completed) / span if span > 0 else 0.0

    @property
    def mean_wait_s(self) -> float:
        waits = [o.wait for o in self.outcomes if o.ok]
        return sum(waits) / len(waits) if waits else 0.0

    def summary(self) -> dict:
        """Headline dict a benchmark can print or persist."""
        lat = self.latencies()
        return {
            "offered_rate_hz": round(self.offered_rate_hz, 4),
            "issued": self.issued,
            "completed": len(self.completed),
            "shed": self.shed_count,
            "errors": self.error_count,
            "goodput_hz": round(self.goodput_hz, 4),
            "p50_s": round(percentile(lat, 50), 6) if lat else None,
            "p95_s": round(percentile(lat, 95), 6) if lat else None,
            "p99_s": round(percentile(lat, 99), 6) if lat else None,
            "mean_wait_s": round(self.mean_wait_s, 6),
        }


def run_open_loop(registry, arrivals: Sequence[float],
                  issue: Callable[[int], object],
                  offered_rate_hz: float = 0.0) -> LoadReport:
    """Issue one request per arrival timestamp; collect a LoadReport.

    ``issue(i)`` performs request ``i``'s client operation (one RPC
    through ``registry``, e.g. ``lambda i: client.get(path)``).  The
    global clock is advanced *to* each arrival when it lags (a quiet
    server sees requests at their scheduled times) but never waits for
    completions — past saturation the arrival timeline runs ahead of
    the service timeline, which is the whole point of an open loop.

    :class:`~repro.errors.ServerBusy` marks the request shed; any other
    :class:`~repro.errors.SrbError` marks it failed; both are recorded
    and the run continues.
    """
    prev = -float("inf")
    for a in arrivals:
        if a < prev:
            raise ValueError("arrivals must be non-decreasing")
        prev = a
    clock = registry.network.clock
    report = LoadReport(offered_rate_hz=offered_rate_hz)
    for i, arrival in enumerate(arrivals):
        if arrival > clock.now:
            clock.advance_to(arrival)
        shed = False
        error: Optional[str] = None
        try:
            with registry.open_loop(arrival):
                issue(i)
        except ServerBusy:
            shed = True
        except SrbError as exc:
            error = type(exc).__name__
        t = registry.last_timing
        if t is not None:
            report.outcomes.append(RequestOutcome(
                index=i, arrival=t.arrival, wait=t.wait,
                latency=t.latency, shed=t.shed or shed,
                retry_after=t.retry_after,
                error=t.error if t.error is not None else error))
        else:
            # the issue callable never reached the RPC layer
            report.outcomes.append(RequestOutcome(
                index=i, arrival=arrival, shed=shed, error=error))
    return report
