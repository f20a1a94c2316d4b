"""Per-layer spans for the traced run, recorded from outside ``src/``.

:data:`LAYER_ENTRYPOINTS` declares, for each layer, the functions through
which other layers call into it.  :func:`install` wraps exactly those —
methods on their class, module functions in every loaded ``repro.*``
module that holds a reference — and :func:`uninstall` puts the originals
back.  A wrapper opens a span only while a client call is being traced
*and* the caller is in a different layer, so recursion and intra-layer
helpers record nothing.  Each span carries both clocks: wall
(``perf_counter``) and the grid's virtual clock, so one tree yields a
layer's wall self time and its virtual self time.

Self time is a span's duration minus its child spans'.  Code that no
entry point covers (``core.access``, ``core.locking``, ``html`` helpers)
is charged to the layer that called it.  A generator function is wrapped
like any other: the span covers creating the generator, and the time
spent resuming it is charged to the layer that iterates it.

Plane handlers are captured by the dispatcher when a server is built, so
:func:`install` has to run *before* the grid is built; the per-op façade
methods the server generates on itself are wrapped by
:meth:`Recorder.attach` once it exists.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("client", "rpc", "wire", "dispatch", "planes", "mcat", "db",
          "simnet", "storage", "obs", "auth", "policy", "paths", "mysrb",
          "tlang")

PUBLIC = "<public methods>"        # every method not starting with "_"
RPC_OPS = "<@rpc_op methods>"      # every method carrying __rpc_op__

_STORAGE_OPS = ("create", "read", "write", "append", "delete", "exists",
                "size", "list_dir")

#: (layer, module, class or None for module functions, names)
LAYER_ENTRYPOINTS: Tuple[Tuple[str, str, Any, Any], ...] = (
    ("client", "repro.core.client", "SrbClient", ("_call",)),
    ("rpc", "repro.net.rpc", "ServiceRegistry",
     ("call", "call_batch", "call_stream")),
    ("wire", "repro.net.wire", None, ("message_size", "sizeof")),
    ("dispatch", "repro.core.dispatch", "Dispatcher", ("call",)),
    ("planes", "repro.core.planes.auth", "AuthService", RPC_OPS),
    ("planes", "repro.core.planes.namespace", "NamespaceService", RPC_OPS),
    ("planes", "repro.core.planes.data", "DataService", RPC_OPS),
    ("planes", "repro.core.planes.replica", "ReplicaService", RPC_OPS),
    ("planes", "repro.core.planes.metadata", "MetadataService", RPC_OPS),
    ("planes", "repro.core.containers", "ContainerManager", PUBLIC),
    ("planes", "repro.core.replication", None,
     ("synchronize", "pick_clean_available")),
    ("mcat", "repro.mcat.catalog", "Mcat", PUBLIC),
    ("mcat", "repro.mcat.shard", "ShardedMcat", PUBLIC),
    ("mcat", "repro.mcat.query", None,
     ("search", "search_page", "queryable_attributes")),
    ("db", "repro.db.table", "Table",
     ("insert", "update_row", "delete_row", "lookup_eq", "lookup_range",
      "scan")),
    ("db", "repro.db.engine", "Database", ("execute", "execute_page")),
    ("simnet", "repro.net.simnet", "Network",
     ("transfer", "schedule_transfer")),
    ("simnet", "repro.net.simnet", "TransferGroup", ("run",)),
    ("simnet", "repro.net.simnet", "DataChannel", ("transfer",)),
    ("storage", "repro.storage.base", "StorageDriver",
     ("read_all", "copy_within")),
    ("storage", "repro.storage.memfs", "MemFsDriver", _STORAGE_OPS),
    ("storage", "repro.storage.archive", "ArchiveDriver",
     _STORAGE_OPS + ("pin", "unpin", "purge_cache")),
    ("storage", "repro.storage.database", "DatabaseResourceDriver",
     _STORAGE_OPS + ("execute_sql",)),
    ("obs", "repro.obs.metrics", "MetricsRegistry", ("inc", "observe")),
    ("obs", "repro.obs.trace", "Tracer", ("span", "add", "event")),
    ("auth", "repro.auth.tickets", "TicketAuthority",
     ("issue", "validate", "issue_channel", "redeem_channel", "delegate")),
    ("auth", "repro.auth.users", "UserRegistry",
     ("make_challenge", "salt_of", "verify_response", "respond",
      "role_of", "groups_of")),
    ("auth", "repro.auth.sessions", "SessionManager",
     ("open", "validate", "close")),
    ("policy", "repro.policy.engine", "PlacementEngine",
     ("order_replicas", "failover_chain", "order_container_replicas",
      "order_resources", "sync_source_order", "choose_stripes")),
    ("paths", "repro.util.paths", None,
     ("validate_component", "split", "join", "from_components",
      "normalize", "dirname", "basename", "zone_of", "ancestors",
      "is_ancestor", "depth", "relocate")),
    ("mysrb", "repro.mysrb.app", "MySrbApp", ("__call__", "handle")),
    ("tlang", "repro.tlang.template", "StyleSheet", ("__init__", "render")),
    ("tlang", "repro.tlang.template", None, ("builtin",)),
    ("tlang", "repro.tlang.extract", "ExtractionProgram",
     ("__init__", "run")),
)

#: spans kept verbatim for trace-<workload>.jsonl (totals are never capped)
MAX_KEPT_SPANS = 200_000


def resolve_entrypoints() -> List[Tuple[str, Any, str, str]]:
    """``(layer, owner, attribute, label)`` for every declared entry
    point.  A name the current ``src/`` does not define raises
    :class:`LookupError`: a renamed function must fail loudly, not drop
    out of the layer table and read as zero."""
    found = []
    for layer, module_name, class_name, names in LAYER_ENTRYPOINTS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(
            module, class_name, None)
        if owner is None:
            raise LookupError(f"{module_name} has no class {class_name!r}")
        if names == PUBLIC:
            names = [n for n, v in vars(owner).items()
                     if not n.startswith("_") and inspect.isfunction(v)]
        elif names == RPC_OPS:
            names = [n for n, v in vars(owner).items()
                     if hasattr(v, "__rpc_op__")]
        if not names:
            raise LookupError(f"{module_name}.{class_name}: no entry points")
        for name in names:
            if name not in vars(owner):
                raise LookupError(
                    f"{module_name}.{class_name or ''}.{name} is declared "
                    f"as an entry point of layer {layer!r} but is not "
                    "defined there")
            label = f"{class_name}.{name}" if class_name else \
                f"{module_name.rsplit('.', 1)[1]}.{name}"
            found.append((layer, owner, name, label))
    return found


class Recorder:
    """Collects spans while a traced client call is running."""

    def __init__(self):
        self.layer = None             # layer now executing; None = idle
        self.clock = None
        self.stack: List[list] = []   # open spans: [child wall, child virt, id]
        self.request_no = -1
        self.next_id = 0
        # layer -> [self wall s, spans, self virtual s]
        self.totals: Dict[str, list] = {l: [0.0, 0, 0.0] for l in LAYERS}
        self.keep = True
        self.spans: List[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, layer: str, label: str, fn: Callable) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            if rec.layer is None or rec.layer == layer:
                return fn(*args, **kwargs)
            return rec.span(layer, label, fn, args, kwargs)
        functools.update_wrapper(wrapper, fn)
        return wrapper

    def attach(self, fed: Any) -> None:
        """Bind to a freshly built federation: read its clock, and wrap
        the per-op methods each server generated on itself (they are the
        ``core.server`` half of the dispatch layer, where rpc lands)."""
        self.clock = fed.clock
        for server in fed.servers.values():
            for op in server.dispatch.names():
                setattr(server, op, self.wrap(
                    "dispatch", f"SrbServer.{op}", getattr(server, op)))

    # -- recording ----------------------------------------------------------

    def request(self, kind: str, number: int, fn: Callable, args: tuple,
                kwargs: dict) -> Any:
        """Run one client call as the root span of request ``number``."""
        self.request_no = number
        return self.span("client", kind, fn, args, kwargs)

    def span(self, layer: str, label: str, fn: Callable, args: tuple,
             kwargs: dict) -> Any:
        prev = self.layer
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [0.0, 0.0, self.next_id]
        self.next_id += 1
        stack.append(frame)
        self.layer = layer
        clock = self.clock
        v0 = clock.now
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            v1 = clock.now
            self.layer = prev
            stack.pop()
            wall, virt = t1 - t0, v1 - v0
            if parent is not None:
                parent[0] += wall
                parent[1] += virt
            total = self.totals[layer]
            total[0] += wall - frame[0]
            total[1] += 1
            total[2] += virt - frame[1]
            if self.keep:
                self.spans.append(
                    (frame[2], parent[2] if parent is not None else None,
                     self.request_no, layer, label, t0, t1, v0, v1))
                if len(self.spans) >= MAX_KEPT_SPANS:
                    self.keep = False

    # -- read-out -----------------------------------------------------------

    def snapshot(self) -> Dict[str, tuple]:
        return {layer: tuple(t) for layer, t in self.totals.items()}

    def write_jsonl(self, path: str) -> int:
        """One JSON object per kept span; wall times are seconds since
        the first kept span opened."""
        if not self.spans:
            return 0
        base = min(s[5] for s in self.spans)
        with open(path, "w") as out:
            for sid, parent, req, layer, label, t0, t1, v0, v1 in \
                    sorted(self.spans):
                out.write(json.dumps({
                    "id": sid, "parent": parent, "request": req,
                    "layer": layer, "name": label,
                    "wall_start": t0 - base, "wall_end": t1 - base,
                    "virt_start": v0, "virt_end": v1}) + "\n")
        return len(self.spans)


def install(recorder: Recorder) -> List[Tuple[Any, str, Any]]:
    """Wrap every entry point; returns what :func:`uninstall` needs."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for layer, owner, name, label in resolve_entrypoints():
            original = vars(owner)[name]
            if inspect.ismodule(owner):
                wrapped = recorder.wrap(layer, label, original)
                for module_name, module in list(sys.modules.items()):
                    if module is None or not (
                            module_name == "repro"
                            or module_name.startswith("repro.")):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, original))
                            setattr(module, attr, wrapped)
            else:
                if isinstance(original, (staticmethod, classmethod)):
                    wrapped = type(original)(recorder.wrap(
                        layer, label, original.__func__))
                else:
                    wrapped = recorder.wrap(layer, label, original)
                undo.append((owner, name, original))
                setattr(owner, name, wrapped)
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()
