"""Observed transfer statistics: the placement engine's predictor.

"Replica Selection in the Globus Data Grid" (Vazhkudai et al.,
PAPERS.md) drives replica choice from transfer *history* — predicted
transfer times regressed from what the network actually delivered —
instead of static policy.  :class:`PathStats` is that history for the
simulated grid: per directed ``(src, dst)`` host pair it keeps

* an EWMA of achieved throughput (bytes/s), sampled from transfers
  large enough that latency does not dominate;
* an EWMA of per-message latency, sampled from small control messages;
* a failure score with exponential time decay on the *virtual* clock —
  each timed-out attempt adds 1, and the score halves every
  ``failure_half_life_s`` of simulated time, so old incidents stop
  steering traffic away from a healed path.

It is fed by the network's shared accounting funnels (every transfer
mode — blocking, queued, grouped — reports through
``Network._count_success`` / ``_count_failure``), via
``Network.add_transfer_observer``.  Observation and read-back are
**charged-cost-free**: no clock advance, no messages, no metric
counters — the predictor watches the wire, it never touches it.  That
is what lets the default placement stay byte-identical to the
pre-engine code while the statistics accumulate.

Under ``Federation(direct_io=True)`` the observed paths change shape:
data legs arrive as client↔resource and resource↔resource transfers
(the :class:`~repro.net.simnet.DataChannel` legs) instead of everything
funnelling through the server host.  No code here changes — channels
move bytes with ordinary ``network.transfer`` calls, so the funnels see
them automatically — but predictions learned in one mode describe that
mode's paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.net.simnet import LinkSpec

#: Transfers at least this large contribute throughput samples; smaller
#: messages (RPC envelopes, session probes) are latency samples — at
#: grid bandwidths their cost is dominated by per-message overhead.
RATE_SAMPLE_MIN_BYTES = 4096

#: A path whose decayed failure score reaches this is quarantined until
#: the score decays back under it: ``observed`` ranks it after every
#: non-quarantined candidate, and ``PlacementEngine.source_chain``
#: never lifts it over an earlier pick.  It stays in the chain —
#: failover still reaches it when everything healthier is gone.
QUARANTINE_SCORE = 0.5


@dataclass
class Ewma:
    """Exponentially weighted moving average with sample bounds.

    ``value`` is initialized to the first sample and thereafter moves by
    ``alpha * sample + (1 - alpha) * value`` — a convex combination, so
    it provably stays within ``[min, max]`` of the samples seen (pinned
    by a hypothesis property test).
    """

    alpha: float = 0.3
    value: Optional[float] = None
    count: int = 0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def update(self, sample: float) -> float:
        self.count += 1
        self.min = min(self.min, sample)
        self.max = max(self.max, sample)
        if self.value is None:
            self.value = sample
        else:
            self.value = self.alpha * sample + (1 - self.alpha) * self.value
        return self.value


@dataclass
class PathRecord:
    """Everything observed about one directed host pair."""

    rate: Ewma
    latency: Ewma
    transfers: int = 0
    bytes: int = 0
    failures: int = 0           # lifetime count, for reporting
    fail_score: float = 0.0     # decayed score, for steering
    fail_at: float = 0.0        # virtual time the score was last set


class PathStats:
    """Per-(src, dst) transfer history with cost-free read-back."""

    def __init__(self, alpha: float = 0.3,
                 failure_half_life_s: float = 600.0):
        self.alpha = alpha
        self.failure_half_life_s = failure_half_life_s
        self._paths: Dict[Tuple[str, str], PathRecord] = {}

    def _record(self, src: str, dst: str) -> PathRecord:
        key = (src, dst)
        rec = self._paths.get(key)
        if rec is None:
            rec = self._paths[key] = PathRecord(
                rate=Ewma(self.alpha), latency=Ewma(self.alpha))
        return rec

    # -- network observer interface ------------------------------------
    # Called from the Network's accounting funnels.  MUST stay free of
    # clock advances and metric emission (parity: observing a federation
    # must not change what it charges).

    def observe_transfer(self, src: str, dst: str, nbytes: int,
                        cost: float, now: float) -> None:
        """One delivered message: ``nbytes`` over ``cost`` seconds."""
        rec = self._record(src, dst)
        rec.transfers += 1
        rec.bytes += int(nbytes)
        if cost <= 0:
            return
        if nbytes >= RATE_SAMPLE_MIN_BYTES:
            # discount the latency component we believe this path has,
            # so the rate sample regresses toward wire bandwidth
            lat = rec.latency.value if rec.latency.value is not None else 0.0
            rec.rate.update(nbytes / max(cost - lat, 1e-9))
        else:
            rec.latency.update(cost)

    def observe_failure(self, src: str, dst: str, now: float) -> None:
        """One timed-out attempt on the path, at virtual time ``now``."""
        rec = self._record(src, dst)
        rec.failures += 1
        rec.fail_score = self.failure_score(src, dst, now) + 1.0
        rec.fail_at = now

    # -- read-back (cost-free) -----------------------------------------

    def path_count(self) -> int:
        return len(self._paths)

    def failure_score(self, src: str, dst: str, now: float) -> float:
        """The decayed failure score at virtual time ``now``.

        Monotone non-increasing in ``now`` between failures: the score
        halves every ``failure_half_life_s`` of simulated time (pinned
        by a hypothesis property test).
        """
        rec = self._paths.get((src, dst))
        if rec is None or rec.fail_score <= 0.0:
            return 0.0
        age = max(0.0, now - rec.fail_at)
        return rec.fail_score * 0.5 ** (age / self.failure_half_life_s)

    def predict_s(self, src: str, dst: str, nbytes: int,
                  fallback: LinkSpec) -> float:
        """Predicted seconds to move ``nbytes`` from ``src`` to ``dst``.

        Measured EWMA latency + ``nbytes`` / measured EWMA throughput;
        components never observed fall back to ``fallback`` (the
        caller's *prior* — the engine passes the grid's default link, so
        an unmeasured path is assumed ordinary, not omnisciently known).
        """
        rec = self._paths.get((src, dst))
        lat = fallback.latency_s
        rate = fallback.effective_bps(1)
        if rec is not None:
            if rec.latency.value is not None:
                lat = rec.latency.value
            if rec.rate.value is not None:
                rate = rec.rate.value
        return lat + (nbytes / rate if nbytes > 0 else 0.0)

    def report(self) -> List[Dict[str, Any]]:
        """Per-path predictor state for ``Sstat`` / MySRB ``/status``."""
        out = []
        for (src, dst), rec in sorted(self._paths.items()):
            out.append({
                "src": src, "dst": dst,
                "transfers": rec.transfers,
                "bytes": rec.bytes,
                "rate_bps": rec.rate.value,
                "latency_s": rec.latency.value,
                "failures": rec.failures,
                "fail_score": rec.fail_score,
            })
        return out
