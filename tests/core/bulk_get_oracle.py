"""``DataService.bulk_get`` as it stood before it ran ``get``'s read of
one object per item (``DataService._read_item``) — the oracle
``tests/core/test_bulk_get_oracle.py`` compares that body with.

The handler is kept verbatim: its own resolve loop, which had no shadow
fallback and let only the ``data``, ``registered`` and ``container``
kinds through.  :func:`oracle_servers` makes the servers a federation
adds meanwhile serve it.
"""

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import server as server_module
from repro.core.dispatch import OpContext, rpc_op
from repro.core.planes.data import DataService
from repro.errors import NoSuchObject, SrbError, UnsupportedOperation
from repro.net.simnet import TransferOutcome
from repro.storage.resource import PhysicalResource
from repro.util import paths


class OracleDataService(DataService):
    """The data plane with the ``bulk_get`` loop it replaced."""

    @rpc_op("bulk_get", audit="bulk-get", span_items="targets")
    def bulk_get(self, ctx: OpContext, targets: Sequence[str],
                 via_container: Optional[str] = None
                 ) -> List[Dict[str, Any]]:
        """Retrieve a working set of N objects in one brokered operation
        — one round trip.

        Returns a list aligned with ``targets``: ``{"path", "data"}`` or
        ``{"path", "error", "error_type"}`` per item.  With
        ``via_container``, the container's bytes are prefetched once
        (one storage session + one bulk pull) and members of that
        container are served as local slices — the aggregation win the
        paper claims for WAN working sets.
        """
        principal = ctx.principal
        self.obs.metrics.inc("bulk.batches", op="get")
        self.obs.metrics.inc("bulk.items", len(targets), op="get")
        prefetched: Optional[Dict[int, bytes]] = None
        if via_container is not None:
            cont = self.containers.get_container(
                paths.normalize(via_container))
            self.access.require_object(principal, cont, "read")
            prefetched = self._prefetch_container(cont)
        results: List[Dict[str, Any]] = []
        total = 0
        # the per-item wire pulls are deferred and delivered together:
        # pulls landing on distinct storage hosts overlap, so the batch
        # charges the slowest host's share instead of the serial sum.
        # Redirected (direct_io), a pull that fails at the caller fails
        # the call rather than its item — the caller retries.
        sink = self._redirect_sink()
        owed: List[Tuple[int, PhysicalResource]] = []
        for raw in targets:
            try:
                path = paths.normalize(str(raw))
                obj = self.mcat.find_object(path)
                if obj is None:
                    raise NoSuchObject(f"no object {path!r}")
                obj = self._resolve_link(obj)
                self.access.require_object(principal, obj, "read")
                self.locks.check_read(obj, principal)
                if obj["kind"] not in ("data", "registered", "container"):
                    raise UnsupportedOperation(
                        f"bulk_get cannot retrieve kind {obj['kind']!r}")
                data = None
                if prefetched is not None:
                    data = prefetched.get(int(obj["oid"]))
                if data is None:
                    data, res = self._read_replica(obj, None, sink)
                    if res is not None:
                        owed.append((len(results), res))
                total += len(data)
                results.append({"path": path, "data": data})
            except SrbError as exc:
                results.append({"path": str(raw), "error": str(exc),
                                "error_type": type(exc).__name__})

        def failed(k: int, outcome: TransferOutcome) -> None:
            nonlocal total
            idx = owed[k][0]
            total -= len(results[idx]["data"])
            results[idx] = {
                "path": results[idx]["path"], "error": str(outcome.error),
                "error_type": type(outcome.error).__name__}

        reply = self._deliver(
            results,
            [(res, len(results[idx]["data"]), results[idx]["path"])
             for idx, res in owed],
            sink, "bulk-get", on_failed=failed)
        ctx.audit(target=f"{len(targets)} items", detail=f"{total}B")
        if ctx.span is not None:
            ctx.span.incr("payload_bytes", total)
        return reply


@contextmanager
def oracle_servers():
    """Servers added inside this block serve the oracle's handler."""
    server_module.DataService = OracleDataService
    try:
        yield
    finally:
        server_module.DataService = DataService
