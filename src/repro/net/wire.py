"""Wire-size accounting for RPC payloads.

The simulator charges network time per byte, so every RPC needs a
deterministic estimate of its serialized size.  We measure structured
payloads (dicts/lists/strings/bytes/numbers) with a simple recursive model
approximating a compact binary encoding; the point is not byte-exact
fidelity but that a request naming three attributes costs more than one
naming none, and that file contents dominate control traffic.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

# fixed per-value envelope overhead (type tag + length prefix)
_ENVELOPE = 4
# fixed per-message header (opcode, session, routing)
MESSAGE_HEADER = 64
# claim token a DeferredPayload ships instead of its bytes (host + nonce)
_CLAIM_TOKEN = 64
# per-leg framing a Redirect adds around each channel descriptor
_REDIRECT_LEG = 16


class DeferredPayload:
    """A payload the client *announces* instead of sending in the request.

    Under ``Federation(direct_io=True)`` the client wraps write payloads
    (ingest/put/...) in a :class:`DeferredPayload`: the request carries a
    small claim token, the server plans placement, and the bytes move
    client→resource on a direct channel.  ``data`` stays accessible so
    the simulated server (same process) can still read it; only the wire
    accounting treats it as not-yet-transferred.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def __len__(self) -> int:
        return len(self.data)


class Redirect:
    """A reply that carries channel descriptors in place of bulk bytes.

    ``payload`` is the op's real return value (bytes, or a structure
    containing bytes); ``channels`` are the :class:`~repro.net.simnet.
    DataChannel` legs whose bytes were *not* shipped in the response and
    must be pulled/pushed by the caller's RPC layer as a second leg.
    On the wire a Redirect costs the payload minus the deferred bytes
    plus one signed descriptor per leg.

    ``items``, when given, are :class:`~repro.net.rpc.BatchItemResult`
    outcomes inside ``payload`` whose values are redirects of their own
    (``channels`` is then empty): the caller settles each on its own, so
    a dead channel fails only its own outcome, as in a batch.
    """

    __slots__ = ("payload", "channels", "retry", "label", "items")

    def __init__(self, payload: Any, channels, retry: bool = False,
                 label: str = "redirect", items=()):
        self.payload = payload
        self.channels = list(channels)
        self.retry = retry
        self.label = label
        self.items = items

    def __len__(self) -> int:
        # ops audit `len(data)`; a redirect stands in for its payload
        return len(self.payload)


# The type table: the single definition of what a value costs on the
# wire.  Exact types are sized here without a call per leaf; subclasses
# and the rare payload types go through _sizeof_other.
_FIXED_SIZE = {type(None): _ENVELOPE, bool: _ENVELOPE,
               int: _ENVELOPE + 8, float: _ENVELOPE + 8}
_LEAF_TYPES = frozenset(_FIXED_SIZE) | {str, bytes}

# What repeats from message to message is remembered, process-wide,
# capped, and emptied by clear_size_memo():
_MEMO_CAP = 1024
# - the envelope plus key bytes of a dict, by its tuple of keys — the
#   request envelope, an op's kwarg names, the columns of a catalog row.
#   Only tuples whose keys are all exactly ``str`` are stored, so 1, True
#   and 1.0 (equal, hashed alike, sized differently) can never share an
#   entry; a str subclass may hit its base string's, which costs the same.
_key_shapes: Dict[Tuple[Any, ...], int] = {}
# - sizes of frozen dataclass instances whose fields are all immutable
#   leaves (a Ticket rides in every authenticated request).  Keyed by
#   identity; the entry holds the instance, so its id cannot be reused.
_frozen_sizes: Dict[int, Tuple[Any, int]] = {}


def sizeof(value: Any) -> int:
    """Approximate serialized size of ``value`` in bytes."""
    t = type(value)
    if t is dict:
        keys = tuple(value)
        try:
            total = _key_shapes[keys]
        except KeyError:
            total = _sizeof_keys(keys)
        items = value.values()
    elif t is list or t is tuple:
        total = _ENVELOPE
        items = value
    elif t is str:
        return _ENVELOPE + (len(value) if value.isascii()
                            else len(value.encode("utf-8")))
    elif t in _FIXED_SIZE:
        return _FIXED_SIZE[t]
    elif t is bytes:
        return _ENVELOPE + len(value)
    else:
        try:
            return _frozen_sizes[id(value)][1]
        except KeyError:
            return _sizeof_other(value)
    for item in items:
        t = type(item)
        if t is str:
            total += _ENVELOPE + (len(item) if item.isascii()
                                  else len(item.encode("utf-8")))
        elif t in _FIXED_SIZE:
            total += _FIXED_SIZE[t]
        elif t is bytes:
            total += _ENVELOPE + len(item)
        else:
            total += sizeof(item)
    return total


def _sizeof_keys(keys: Tuple[Any, ...]) -> int:
    """Envelope plus key bytes of a dict with these keys, remembered when
    every key is exactly a ``str``."""
    size = sizeof(keys)
    if all(type(key) is str for key in keys):
        if len(_key_shapes) >= _MEMO_CAP:
            _key_shapes.clear()
        _key_shapes[keys] = size
    return size


def _sizeof_other(value: Any) -> int:
    """Everything the exact-type table does not name."""
    if isinstance(value, DeferredPayload):
        return _ENVELOPE + _CLAIM_TOKEN
    if isinstance(value, Redirect):
        deferred = sum(ch.nbytes for ch in value.channels)
        descriptors = sum(_REDIRECT_LEG + sizeof(ch.ticket)
                          for ch in value.channels)
        return _ENVELOPE + max(0, sizeof(value.payload) - deferred) \
            + descriptors
    if isinstance(value, (int, float)):     # IntEnum and the like
        return _ENVELOPE + 8
    if isinstance(value, (bytes, bytearray, memoryview)):
        return _ENVELOPE + len(value)
    if isinstance(value, str):
        return _ENVELOPE + len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, set, frozenset)):
        return _ENVELOPE + sum(sizeof(v) for v in value)
    if isinstance(value, dict):
        return _ENVELOPE + sum(sizeof(k) + sizeof(v) for k, v in value.items())
    # dataclass-ish objects serialize their __dict__
    if hasattr(value, "__dict__"):
        fields = vars(value)
        size = _ENVELOPE + sizeof(fields)
        params = getattr(type(value), "__dataclass_params__", None)
        if params is not None and params.frozen \
                and all(type(v) in _LEAF_TYPES for v in fields.values()):
            if len(_frozen_sizes) >= _MEMO_CAP:
                _frozen_sizes.clear()
            _frozen_sizes[id(value)] = (value, size)
        return size
    # fall back to repr length for exotic types
    return _ENVELOPE + len(repr(value))


def clear_size_memo() -> None:
    """Forget every remembered size (a new federation starts from none)."""
    _key_shapes.clear()
    _frozen_sizes.clear()


def message_size(payload: Any) -> int:
    """Total on-wire size of one RPC message carrying ``payload``."""
    return MESSAGE_HEADER + sizeof(payload)
