"""Message-passing RPC over the simulated network.

SRB servers and clients communicate with request/response messages.  This
layer gives each host a set of named *services* (an SRB server registers
itself as service ``"srb"``); a caller invokes ``rpc.call(src, dst,
service, method, **kwargs)`` which charges the request bytes, runs the
handler, charges the response bytes, and either returns the handler's
result or re-raises its exception on the caller side — the same model as
mpi4py's pickle-based send/recv, specialized to request/response.

Exceptions deriving from :class:`~repro.errors.SrbError` cross the wire
transparently (the remote failure surfaces at the caller, as a real RPC
stack would marshal them); anything else is wrapped in ``RpcError`` since
a production system would not leak arbitrary remote tracebacks.

**Load plane.**  When the destination host carries a
:class:`~repro.net.simnet.ServiceStation` (``Federation.add_host(name,
workers=...)``), every call and batch contends for that host's worker
pool: a request arriving while all workers are busy queues (the wait is
charged to the caller and recorded as ``srb.queue.*`` metrics plus a
queue-wait span), and with a bounded queue a request arriving at a full
queue is shed fast with :class:`~repro.errors.ServerBusy` carrying a
retry-after hint (``srb.admission.*`` metrics).  The
:meth:`ServiceRegistry.open_loop` context manager lets a workload
generator stamp a call with a logical *arrival* time independent of the
global clock — requests then overlap in station bookkeeping instead of
serializing on the clock, which is what makes open-loop (arrivals
independent of completions) saturation curves representable
(experiment E15).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, \
    Sequence, Tuple

from repro.errors import DependencyFailed, HostUnreachable, RpcError, \
    ServerBusy, SrbError
from repro.net.simnet import Network, raise_failed, repull_failed, \
    run_channel_group
from repro.net.wire import Redirect, message_size
from repro.obs.metrics import Tally


@dataclass
class RpcStats:
    """A registry's totals, which a benchmark reads to explain a result
    (:attr:`ServiceRegistry.stats`)."""

    calls: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    failures: int = 0


@dataclass
class RequestTiming:
    """Per-request timing of the most recent call through the registry.

    The open-loop workload generator reads this after each issued
    request: with a virtual clock that only moves forward, a request's
    *latency under contention* cannot be read off the clock delta alone
    — the queue wait of overlapping requests is station bookkeeping,
    not clock time.  ``latency`` is the client-perceived seconds from
    ``arrival`` (request issued) to the response (or error/busy reply)
    arriving back; for a shed request it is the fast-fail round trip.
    """

    arrival: float                       #: virtual time the client issued
    wait: float                          #: queue wait at the server
    latency: float                       #: arrival -> response at client
    shed: bool = False                   #: admission control refused it
    retry_after: Optional[float] = None  #: hint carried by ServerBusy
    error: Optional[str] = None          #: error type name, if it failed
    response_bytes: int = 0              #: reply bytes that reached the client


@dataclass
class BatchItemResult:
    """Outcome of one item of a :meth:`ServiceRegistry.call_batch`.

    Either ``ok`` with a ``value``, or failed with the marshalled
    ``error`` (an :class:`SrbError` subclass, or :class:`RpcError` for
    wrapped remote bugs).  A failed item never poisons its batch, only
    the items that name it as one they need — callers inspect results
    item by item, or :meth:`unwrap` to re-raise.
    """

    ok: bool
    value: Any = None
    error: Optional[Exception] = None

    def unwrap(self) -> Any:
        if not self.ok:
            raise self.error
        return self.value


def _resolve_method(handler: Any, service: str, method: str) -> Callable:
    """Resolve ``method`` on a handler object.

    A handler may narrow its RPC surface by exposing ``__rpc_lookup__``
    (the SRB server does: its surface is exactly the registered dispatch
    ops).  Otherwise any public attribute is callable, as before.
    """
    lookup = getattr(handler, "__rpc_lookup__", None)
    if lookup is not None:
        fn = lookup(method)
    else:
        fn = getattr(handler, method, None)
        if method.startswith("_"):
            fn = None
    if fn is None:
        raise RpcError(f"service {service!r} has no method {method!r}")
    return fn


class ServiceRegistry:
    """Per-network registry mapping (host, service) -> handler object.

    A handler object exposes methods; ``call`` dispatches by method name.
    Handlers run "on" the destination host: any storage/db time they charge
    is added to the same global clock after the request transfer.
    """

    def __init__(self, network: Network):
        self.network = network
        self._services: Dict[tuple, Any] = {}
        # open-loop arrival stamp for the *next* top-level call (consumed
        # by it; nested calls it makes run closed-loop as usual)
        self._open_arrival: Optional[float] = None
        #: timing of the most recent completed/shed call (RequestTiming)
        self.last_timing: Optional[RequestTiming] = None
        #: source host of the request currently being served, if any;
        #: the op plan and the read delivery read it to know where a
        #: payload came from and where its reply goes.  Saved/restored around
        #: each invocation so nested server→server RPCs see their own src.
        self.caller_host: Optional[str] = None
        #: what the handler being served relayed to this host for its
        #: caller, if anything: ``(payload, hidden seconds, label)``, left
        #: by the server's read delivery.  A reply that *is* that payload
        #: is the relay's outbound hop and hides those seconds
        #: (``Network._leg``); saved/restored like ``caller_host``.
        self.relayed: Optional[Tuple[Any, float, str]] = None
        # what the calls count, kept here and read by the metrics
        # registry when asked (repro.obs.metrics)
        metrics = network.obs.metrics
        #: per (service, method): [calls, request bytes, reply bytes of
        #: the calls that succeeded, ``rpc.call_s``]
        self._methods = Tally(lambda key: [0, 0, 0, metrics.histogram(
            "rpc.call_s", service=key[0], method=key[1])])
        #: per (service, method, error): failures, and the bytes of the
        #: error replies that reached the caller
        self._failures, self._failed_replies = Counter(), Counter()
        #: per ("batch_calls" or "batch_items", service)
        self._batches: Counter = Counter()
        metrics.add_collector(self._samples)

    @property
    def stats(self) -> RpcStats:
        """Every call's totals, summed from the per-method counts."""
        calls, sent, replied = [sum(m[k] for m in self._methods.values())
                                for k in range(3)]
        return RpcStats(calls, sent, replied + self._failed_replies.total(),
                        self._failures.total())

    def _samples(self):
        """The counters this registry keeps, as the metrics read them."""
        for (service, method), (calls, sent, replied, _s) \
                in self._methods.items():
            labels = {"service": service, "method": method}
            yield "rpc.calls", labels, calls
            yield "rpc.request_bytes", labels, sent
            if replied:
                yield "rpc.response_bytes", labels, replied
        for name, counts in (("rpc.failures", self._failures),
                             ("rpc.response_bytes", self._failed_replies)):
            for (service, method, error), n in counts.items():
                yield name, {"service": service, "method": method,
                             "error": error}, n
        for (name, service), n in self._batches.items():
            yield "rpc." + name, {"service": service}, n

    # -- open-loop load ------------------------------------------------------

    @contextmanager
    def open_loop(self, arrival: float) -> Iterator[None]:
        """Stamp the next call in this block with a logical arrival time.

        An open-loop workload generator issues requests at *scheduled*
        times, independent of when earlier requests complete.  Inside
        this context the next top-level :meth:`call`/:meth:`call_batch`
        treats ``arrival`` (plus its request-leg cost) as the moment the
        request reaches the server's queue, and its queue wait is
        accounted in station bookkeeping instead of advancing the global
        clock — overlapping requests contend, they do not serialize.
        Read :attr:`last_timing` afterwards for the request's latency.
        """
        prev = self._open_arrival
        self._open_arrival = float(arrival)
        try:
            yield
        finally:
            self._open_arrival = prev

    # -- registration --------------------------------------------------------

    def register(self, host: str, service: str, handler: Any) -> None:
        self.network.host(host)  # validate host exists
        key = (host, service)
        if key in self._services:
            raise RpcError(f"service {service!r} already registered on {host!r}")
        self._services[key] = handler

    def lookup(self, host: str, service: str) -> Any:
        try:
            return self._services[(host, service)]
        except KeyError:
            raise RpcError(f"no service {service!r} on host {host!r}") from None

    # -- invocation ------------------------------------------------------------

    def _fail(self, service: str, method: str, error: str, issued: float,
              wait: float, latency: float,
              retry_after: Optional[float] = None,
              reply_bytes: Optional[int] = None) -> None:
        """Count one whole-call failure — the only place that does.

        Failed calls must not be invisible in the latency histograms:
        the call's latency lands on the same ``rpc.call_s`` metric as a
        success, with an ``error=`` label, and in :attr:`last_timing`.
        A ``retry_after`` hint marks the call as shed by admission;
        ``reply_bytes`` is the error reply that did reach the caller.
        Failures are the cold path: their ``error=``-labelled histogram
        is resolved per call.
        """
        self._failures[service, method, error] += 1
        if reply_bytes is not None:
            self._failed_replies[service, method, error] += reply_bytes
        self.network.obs.metrics.observe("rpc.call_s", latency,
                                         service=service, method=method,
                                         error=error)
        self.last_timing = RequestTiming(
            arrival=issued, wait=wait, latency=latency,
            shed=retry_after is not None, retry_after=retry_after,
            error=error)

    def _exchange(self, src: str, dst: str, service: str, method: str,
                  span_name: str, span_attrs: Dict[str, Any],
                  request: Any, serve: Callable, kwargs: Dict[str, Any],
                  settle: Callable[[str, Any], Any],
                  marshal: Optional[Callable[[Any], Any]] = None) -> Any:
        """One request/reply message pair — the envelope of every call mode.

        The single place an RPC is charged and recorded: size the
        ``request`` and send it, contend for ``dst``'s worker pool, run
        ``serve(**kwargs)`` there, send the reply (the result as
        ``marshal`` puts it on the wire, or a small error marker), then
        ``settle(src, result)`` at the caller (redirect second legs).

        ``request=None`` is a *pushed* exchange (the later chunks of
        :meth:`call_stream`): the server starts it on a request it
        already holds, so nothing is sent — only a connection that has
        died is found out as a request would find it, by a leg that
        times out — and the reply is pipelined behind the previous one.
        Admission, the handler, the reply and every record are a unary
        call's.

        A handler that pulled the payload it replies with to this host
        (``relayed``) was relaying it: the reply leg streams out while
        the pull streams in, and waits that much less.  Nothing else
        about the exchange changes, and nothing hides behind a reply
        that carries an error.

        A reply that carries an error — a busy reply from admission
        control, or the marshalled exception of the handler — is a reply
        like any other: its bytes and the call's latency are accounted,
        labelled ``error=``, and the exception surfaces at the caller.
        A reply that never arrives (partition opened mid-call) makes the
        call ``unreachable`` whatever it carried.
        """
        network = self.network
        tracer = network.obs.tracer
        clock = network.clock
        counts = self._methods[service, method]
        pushed = request is None
        req_bytes = 0 if pushed else message_size(request)
        open_arrival = self._open_arrival
        self._open_arrival = None       # nested calls run closed-loop
        sp = tracer.open(span_name, {"src": src, "dst": dst,
                                     "service": service, **span_attrs}) \
            if tracer.stack else None
        try:
            t0 = clock.now
            issued = open_arrival if open_arrival is not None else t0
            # the attempt counts even if the request never arrives: an
            # unreachable-host RPC must be visible in the stats
            counts[0] += 1
            counts[1] += req_bytes
            if sp is not None:
                sp.incr("request_bytes", req_bytes)
            wait = extra = hidden = 0.0
            label = ""
            error = error_name = retry_after = None
            try:
                # a pushed exchange sends nothing, but a connection
                # that died times out exactly as a request would
                if not pushed or not network.reachable(src, dst):
                    network.transfer(src, dst, req_bytes)
                # worker-pool admission on the destination host; one
                # message pair occupies one worker, however many items
                arrival = issued + (clock.now - t0)
                station, admission = network.admit_request(
                    dst, service, method, arrival,
                    advance_clock=open_arrival is None)
            except HostUnreachable:
                self._fail(service, method, "unreachable", issued, 0.0,
                           clock.now - t0)
                raise
            except ServerBusy as exc:
                # fast-fail: the server answers with a tiny busy reply
                # carrying the retry-after hint instead of queueing
                error, error_name = exc, "ServerBusy"
                retry_after = exc.retry_after
                reply = {"error": True, "retry_after": retry_after}
                if sp is not None:
                    sp.error = str(exc)
            else:
                if admission is not None:
                    wait = admission.wait
                    # under an open loop the wait overlapped other
                    # requests' work: it is part of this request's
                    # latency, not clock time
                    if open_arrival is not None:
                        extra = wait
                t_svc = clock.now
                caller_prev, relayed_prev = self.caller_host, self.relayed
                self.caller_host, self.relayed = src, None
                try:
                    result = serve(**kwargs)
                except SrbError as exc:
                    # error response: small fixed-size message
                    error, error_name = exc, type(exc).__name__
                    reply = {"error": True}
                except Exception as exc:  # non-SRB bug: wrap, don't leak
                    error = RpcError(
                        f"remote {service}.{method} failed: {exc!r}")
                    error.__cause__ = exc
                    error_name = type(exc).__name__
                    reply = {"error": True}
                else:
                    reply = result if marshal is None else marshal(result)
                    relayed = self.relayed
                    if relayed is not None and relayed[0] is result:
                        _payload, hidden, label = relayed
                finally:
                    self.caller_host, self.relayed = caller_prev, relayed_prev
                    # the worker was occupied for the service time
                    # whether the handler succeeded or raised
                    if admission is not None:
                        station.complete(
                            admission, admission.start + (clock.now - t_svc))

            resp_bytes = message_size(reply)
            try:
                network.transfer(dst, src, resp_bytes, pipelined=pushed,
                                 hidden=hidden, label=label)
            except HostUnreachable:
                # the server answered but its reply never made it back
                # (partition opened mid-call): that is a failed call and
                # must be counted, not escape silently
                self._fail(service, method, "unreachable", issued, wait,
                           clock.now - t0 + extra)
                raise
            if error is not None:
                self._fail(service, method, error_name, issued, wait,
                           clock.now - t0 + extra, retry_after, resp_bytes)
                raise error
            counts[2] += resp_bytes
            try:
                # a reply may carry signed descriptors, not the bytes:
                # the second leg(s) run on the real src→sink paths
                # before the payload is handed over — their cost is part
                # of this call's client-perceived latency
                result = settle(src, result)
            except SrbError as exc:
                if sp is not None:
                    sp.error = str(exc)
                self._fail(service, method, type(exc).__name__, issued,
                           wait, clock.now - t0 + extra)
                raise
            latency = clock.now - t0 + extra
            counts[3].observe(latency)
            if sp is not None:
                sp.incr("response_bytes", resp_bytes)
            self.last_timing = RequestTiming(
                arrival=issued, wait=wait, latency=latency,
                response_bytes=resp_bytes)
        except BaseException as exc:
            if sp is not None:
                tracer.close(sp, exc)
            raise
        if sp is not None:
            tracer.close(sp)
        return result

    def call(self, src: str, dst: str, service: str, method: str,
             /, **kwargs: Any) -> Any:
        """Invoke ``method`` of ``service`` on host ``dst`` from host ``src``.

        Charges request and response transfers on the shared clock.  The
        response size is measured from the actual return value, so calls
        returning file contents cost bandwidth proportional to the data.
        When the destination host has a worker-pool station the call
        additionally pays (or is shed by) that host's queue.
        """
        # cleared before resolving: a call that never reaches the wire
        # must not keep the previous call's timing
        self.last_timing = None
        fn = _resolve_method(self.lookup(dst, service), service, method)
        return self._exchange(
            src, dst, service, method, "rpc.call", {"method": method},
            {"method": method, "kwargs": kwargs}, fn, kwargs,
            self._settle)

    def _settle(self, sink: str, result: Any) -> Any:
        """Caller side of a unary reply: run a redirect's second leg(s)."""
        if isinstance(result, Redirect):
            return self._run_redirect(sink, result)
        return result

    def _run_redirect(self, sink: str, redirect: Redirect) -> Any:
        """Execute a redirect reply's second leg(s) at the caller.

        The legs run as :func:`~repro.net.simnet.run_channel_group` runs
        any channels — one blocking, several overlapped.  With ``retry``
        (striped reads) a failed leg's bytes are re-pulled from a source
        that answered; otherwise the first failure raises.  A redirect of
        ``items`` settles each item's own redirect instead
        (:meth:`_settle_items`).  Returns the payload.
        """
        if redirect.items:
            self._settle_items(sink, redirect.items)
            return redirect.payload
        channels = redirect.channels
        with self.network.obs.tracer.span(
                "srb.redirect", sink=sink, legs=len(channels),
                bytes=sum(ch.nbytes for ch in channels),
                label=redirect.label) as sp:
            outcomes = run_channel_group(self.network, channels,
                                         f"direct-{redirect.label}")
            if redirect.retry:
                retried = repull_failed(self.network, outcomes)
                if retried and sp is not None:
                    sp.incr("retried", retried)
            else:
                raise_failed(outcomes)
        return redirect.payload

    def _settle_items(self, sink: str, items: Sequence[BatchItemResult]
                      ) -> List[BatchItemResult]:
        """Run the second leg(s) of each item whose value is a redirect.
        A dead channel fails only its own item, which turns ``ok=False``
        in place; returns the items that failed so."""
        dead = []
        for r in items:
            if r.ok and isinstance(r.value, Redirect):
                try:
                    r.value = self._run_redirect(sink, r.value)
                except SrbError as exc:
                    r.ok, r.value, r.error = False, None, exc
                    dead.append(r)
        return dead

    def call_stream(self, src: str, dst: str, service: str, method: str,
                    /, page_size: int = 100, cursor: Optional[Any] = None,
                    **kwargs: Any) -> Iterator[Any]:
        """Invoke a cursor-paged ``method`` as a stream of reply chunks.

        The remote op must accept ``cursor=``/``limit=`` keywords and
        reply with a mapping (or object) carrying ``next_cursor`` — the
        contract of the paged query ops (``query_page``,
        ``list_collection_page``).  One request opens the stream and the
        server *pushes* the chunks behind it: chunk 1 is exactly the
        unary call for the first page; each later chunk is the same
        exchange without a request leg, its reply pipelined behind the
        previous one.  Draining n chunks costs

            unary first chunk + sum over k > 1 of
                (server work for page k + reply bytes k / bandwidth)

        and n + 1 messages — the link latency is paid once, not once
        per page.  Every chunk, pushed or first, is a charged exchange
        of its own: ``rpc.calls`` and ``rpc.response_bytes`` accrue as
        the stream flows, the destination's admission control applies
        per chunk (a mid-stream :class:`~repro.errors.ServerBusy`
        surfaces between chunks, leaving no station state behind), the
        handler runs its whole plan per chunk (a ticket, an ACL or a row
        that went away between chunks stops or reshapes the stream), and
        a mid-stream handler error is marshalled exactly like a failed
        call — the already-delivered chunks stand.

        Production is lazy: a page is computed when the consumer asks
        for it, which is the model's backpressure (a slow consumer is
        charged as if the server had waited for it, never less), and an
        iterator dropped mid-stream charges nothing further.

        Yields each chunk's reply value; the stream ends when a chunk
        carries ``next_cursor=None``.  Stream-level accounting:
        ``rpc.streams``, ``rpc.stream.chunks``, ``rpc.stream.chunk_bytes``
        (histogram — its max is the peak single-reply size, bounded by
        the page size) and ``rpc.stream.first_chunk_s``.
        """
        obs = self.network.obs
        clock = self.network.clock
        obs.metrics.inc("rpc.streams", service=service, method=method)
        t0 = clock.now
        first = True
        while True:
            page = {"cursor": cursor, "limit": page_size, **kwargs}
            self.last_timing = None
            fn = _resolve_method(self.lookup(dst, service), service, method)
            reply = self._exchange(
                src, dst, service, method, "rpc.call", {"method": method},
                {"method": method, "kwargs": page} if first else None,
                fn, page, self._settle)
            if first:
                obs.metrics.observe("rpc.stream.first_chunk_s",
                                    clock.now - t0,
                                    service=service, method=method)
                first = False
            obs.metrics.inc("rpc.stream.chunks", service=service,
                            method=method)
            obs.metrics.observe("rpc.stream.chunk_bytes",
                                self.last_timing.response_bytes,
                                service=service, method=method)
            if isinstance(reply, dict):
                cursor = reply.get("next_cursor")
            else:
                cursor = getattr(reply, "next_cursor", None)
            yield reply
            if cursor is None:
                return

    def call_batch(self, src: str, dst: str, service: str,
                   items: Sequence[Tuple[Any, ...]],
                   /) -> List[BatchItemResult]:
        """Invoke N methods of ``service`` as one pipelined message pair.

        ``items`` is a sequence of ``(method, kwargs)`` requests.  The
        whole batch travels as a single request message (summed payload
        bytes, one link latency) and the results come back as a single
        response message — the amortization that makes bulk operations
        O(1) in round trips instead of O(N).

        Errors are marshalled per item: an :class:`SrbError` raised by
        item k is captured in its :class:`BatchItemResult` and the other
        items still execute and return.  Only whole-message failures
        fail the whole batch: a transport failure on either leg
        (destination unreachable — after charging the usual timeout) or
        the destination's admission control shedding the batch with
        :class:`~repro.errors.ServerBusy`.

        An item ``(method, kwargs, after)`` names, by index, the earlier
        items it needs; the request says so in the item's ``after``
        list.  It runs only if each of them succeeded where the items
        run.  Otherwise its result is :class:`DependencyFailed` naming
        the first one that did not, and its method is never resolved or
        called: no plan, no check, no audit row, no span.  A skipped
        item counts in ``rpc.failures`` as a failed one does.  An item
        naming itself or a later one refuses the batch before it is
        sent.
        """
        self.last_timing = None
        handler = self.lookup(dst, service)
        request = []
        for k, (method, kwargs, *needs) in enumerate(items):
            item = {"method": method, "kwargs": kwargs}
            if needs and needs[0]:
                item["after"] = after = list(needs[0])
                if not all(0 <= i < k for i in after):
                    raise RpcError(f"batch item {k} ({method}) may only "
                                   f"need earlier items, not {after}")
            request.append(item)

        def failed(method: str, error: Exception,
                   cause: Exception) -> BatchItemResult:
            self._failures[service, method, type(cause).__name__] += 1
            return BatchItemResult(ok=False, error=error)

        def serve() -> List[BatchItemResult]:
            results: List[BatchItemResult] = []
            for k, item in enumerate(request):
                method = item["method"]
                waited = next((i for i in item.get("after", ())
                               if not results[i].ok), None)
                if waited is not None:
                    skipped = DependencyFailed(k, method, waited)
                    results.append(failed(method, skipped, skipped))
                    continue
                try:
                    fn = _resolve_method(handler, service, method)
                    results.append(
                        BatchItemResult(ok=True, value=fn(**item["kwargs"])))
                except SrbError as exc:
                    results.append(failed(method, exc, exc))
                except Exception as exc:  # non-SRB bug: wrap, don't leak
                    wrapped = RpcError(
                        f"remote {service}.{method} failed: {exc!r}")
                    wrapped.__cause__ = exc
                    results.append(failed(method, wrapped, exc))
            return results

        def marshal(results: List[BatchItemResult]) -> List[Any]:
            return [r.value if r.ok else {"error": True} for r in results]

        def settle(sink: str, results: List[BatchItemResult]
                   ) -> List[BatchItemResult]:
            # second leg per item, matching the per-item marshalling
            for r in self._settle_items(sink, results):
                failed("<batch>", r.error, r.error)
            return results

        # one pipelined request/response pair = one call in the stats
        self._batches["batch_calls", service] += 1
        self._batches["batch_items", service] += len(items)
        return self._exchange(
            src, dst, service, "<batch>",
            "rpc.call_batch", {"items": len(items)},
            {"batch": request}, serve, {}, settle, marshal)
