"""Unit tests for wire-size accounting."""

import gc
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.auth.tickets import Ticket
from repro.net import wire
from repro.net.wire import (MESSAGE_HEADER, DeferredPayload, Redirect,
                            message_size, sizeof)


class TestSizeof:
    def test_scalars_have_fixed_cost(self):
        assert sizeof(None) == sizeof(True)
        assert sizeof(1) == sizeof(2**40)

    def test_bytes_scale_linearly(self):
        assert sizeof(b"x" * 100) - sizeof(b"") == 100

    def test_str_counts_utf8(self):
        assert sizeof("é") > sizeof("e") - 1   # 2 utf-8 bytes vs 1

    def test_containers_sum_members(self):
        assert sizeof([1, 2]) > sizeof([1])
        assert sizeof({"k": "v"}) > sizeof({})

    def test_dataclass_uses_dict(self):
        @dataclass
        class P:
            x: int
            label: str
        assert sizeof(P(1, "hello")) > sizeof(P(1, ""))

    def test_message_includes_header(self):
        assert message_size(None) == MESSAGE_HEADER + sizeof(None)


class TestSizeofProperties:
    @given(st.binary(max_size=2000))
    def test_payload_dominates_for_big_blobs(self, blob):
        assert sizeof(blob) >= len(blob)

    @given(st.lists(st.integers(), max_size=20))
    def test_monotone_in_list_length(self, xs):
        assert sizeof(xs + [0]) > sizeof(xs)

    @given(st.dictionaries(st.text(max_size=5), st.integers(), max_size=10))
    def test_dict_size_positive(self, d):
        assert sizeof(d) > 0


# -- equivalence with the recursive isinstance model ------------------------
# The model below is the implementation sizeof had before it became a
# type table; it stays here as the oracle every payload is checked against.

def model_sizeof(value):
    if isinstance(value, DeferredPayload):
        return 4 + 64
    if isinstance(value, Redirect):
        deferred = sum(ch.nbytes for ch in value.channels)
        descriptors = sum(16 + model_sizeof(ch.ticket)
                          for ch in value.channels)
        return 4 + max(0, model_sizeof(value.payload) - deferred) \
            + descriptors
    if value is None or isinstance(value, bool):
        return 4
    if isinstance(value, int):
        return 4 + 8
    if isinstance(value, float):
        return 4 + 8
    if isinstance(value, (bytes, bytearray, memoryview)):
        return 4 + len(value)
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, set, frozenset)):
        return 4 + sum(model_sizeof(v) for v in value)
    if isinstance(value, dict):
        return 4 + sum(model_sizeof(k) + model_sizeof(v)
                       for k, v in value.items())
    if hasattr(value, "__dict__"):
        return 4 + model_sizeof(vars(value))
    return 4 + len(repr(value))


class Colour(IntEnum):
    RED = 1
    BLUE = 2


class Name(str):
    """A str subclass: sized as a str, not through its __dict__."""


class Bag(dict):
    """A dict subclass."""


Point = namedtuple("Point", "x label")


class Opaque:
    """No __dict__: falls back to the length of its repr."""

    __slots__ = ()

    def __repr__(self):
        return "<opaque>"


@dataclass(frozen=True)
class FrozenNote:
    flag: object
    text: str


tickets = st.builds(
    Ticket, principal=st.text(max_size=12), zone=st.text(max_size=8),
    audience=st.sampled_from(["*", "unix-sdsc"]),
    issued_at=st.floats(0, 1e6), expires_at=st.floats(0, 1e6),
    signature=st.text("0123456789abcdef", min_size=64, max_size=64))

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=12),                       # includes non-ASCII
    st.binary(max_size=40),
    st.sampled_from(list(Colour)),
    st.text(max_size=8).map(Name),
    st.binary(max_size=20).map(bytearray),
    st.binary(max_size=20).map(memoryview),
    st.binary(max_size=40).map(DeferredPayload),
    st.just(Opaque()),
    tickets,
    st.builds(FrozenNote, st.sampled_from([1, True, 1.0, "1"]),
              st.text(max_size=6)),
    st.frozensets(st.integers(), max_size=4),
    st.sets(st.text(max_size=4), max_size=4),
)

# str keys take the remembered-shape path; every other kind of key (and
# any mix) must keep its own size: 1, True and 1.0 are equal and hash
# alike, and so do a Name and the str it wraps
keys = st.one_of(st.text(max_size=6),               # includes non-ASCII
                 st.sampled_from(["method", "kwargs", "path", "oid"]),
                 st.integers(0, 9), st.booleans(),
                 st.sampled_from([0.0, 1.0, 2.5]),
                 st.sampled_from(list(Colour)),
                 st.text(max_size=4).map(Name))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.dictionaries(keys, children, max_size=3).map(Bag),
        st.tuples(children, st.text(max_size=5)).map(lambda t: Point(*t)),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), children,
                        max_size=3).map(lambda d: SimpleNamespace(**d)),
    )


payloads = st.recursive(leaves, containers, max_leaves=25)


class _Leg:
    """What sizeof reads of a DataChannel: its size and its ticket."""

    def __init__(self, nbytes, ticket):
        self.nbytes = nbytes
        self.ticket = ticket


redirects = st.builds(
    Redirect, payloads,
    st.lists(st.builds(_Leg, st.integers(0, 5000), tickets), max_size=3))


class TestSizeofMatchesModel:
    @settings(max_examples=400, deadline=None)
    @given(payloads)
    def test_nested_payloads(self, payload):
        assert sizeof(payload) == model_sizeof(payload)
        # a second sizing (memo warm) agrees with the first
        assert sizeof(payload) == model_sizeof(payload)

    @settings(max_examples=100, deadline=None)
    @given(redirects)
    def test_redirect_replies(self, reply):
        assert sizeof(reply) == model_sizeof(reply)
        assert sizeof({"reply": reply}) == model_sizeof({"reply": reply})

    def test_bool_and_int_keep_their_sizes(self):
        assert sizeof(True) == sizeof(False) == sizeof(None) == 4
        assert sizeof(0) == sizeof(1) == sizeof(Colour.RED) == 12
        assert sizeof([True, 1, 1.0]) == 4 + 4 + 12 + 12
        assert sizeof({True: 1}) == 4 + 4 + 12

    def test_frozen_instances_equal_by_value_are_sized_apart(self):
        # FrozenNote(1, ..) == FrozenNote(True, ..) and they hash alike,
        # yet an int is 12 bytes and a bool 4
        as_int, as_bool = FrozenNote(1, "x"), FrozenNote(True, "x")
        assert as_int == as_bool
        for _ in range(2):
            assert sizeof(as_int) == model_sizeof(as_int)
            assert sizeof(as_bool) == model_sizeof(as_bool)
        assert sizeof(as_int) - sizeof(as_bool) == 8

    def test_frozen_instance_with_a_mutable_field_is_never_remembered(self):
        note = FrozenNote([1], "x")
        before = sizeof(note)
        note.flag.append(2)
        assert sizeof(note) == model_sizeof(note) == before + 12

    def test_equal_keys_of_different_types_never_share_a_shape(self):
        # one process, one memo: 1 == True == 1.0 and hash alike
        for _ in range(2):
            assert sizeof({1: "x"}) - sizeof({}) == 12 + 5
            assert sizeof({True: "x"}) - sizeof({}) == 4 + 5
            assert sizeof({1.0: "x"}) - sizeof({}) == 12 + 5
            assert sizeof({"a": 1, 1: 1}) == model_sizeof({"a": 1, 1: 1})
            assert sizeof({"a": 1, True: 1}) == \
                model_sizeof({"a": 1, True: 1})
        assert all(type(key) is str
                   for shape in wire._key_shapes for key in shape)

    def test_a_shape_is_remembered_and_a_str_subclass_may_share_it(self):
        wire.clear_size_memo()
        row = {"oid": 7, "päth": "/z/é", "size": None}
        assert sizeof(row) == model_sizeof(row)
        assert tuple(row) in wire._key_shapes
        same = {Name("oid"): 8, Name("päth"): "/z", "size": 1}
        assert sizeof(same) == model_sizeof(same)
        assert len(wire._key_shapes) == 1
        assert sizeof({}) == model_sizeof({}) == 4

    def test_key_shape_memo_is_capped(self):
        wire.clear_size_memo()
        for i in range(wire._MEMO_CAP + 10):
            row = {f"attr{i}": i, "value": "é" * (i % 3)}
            for _ in range(2):
                assert sizeof(row) == model_sizeof(row)
            assert len(wire._key_shapes) <= wire._MEMO_CAP

    def test_frozen_memo_is_capped(self):
        cap = wire._MEMO_CAP
        notes = [FrozenNote(i, "n") for i in range(cap + 10)]
        for note in notes:
            assert sizeof(note) == model_sizeof(note)
        assert len(wire._frozen_sizes) <= cap


# -- a run of leaves is sized in passes, not per leaf ------------------------

plain = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.binary(max_size=8),
                  st.text(max_size=8),                  # includes non-ASCII
                  st.text("abc/", max_size=8), st.text("abc/", max_size=8))
runs = st.one_of(st.lists(plain, max_size=12),
                 st.lists(plain, max_size=12).map(tuple),
                 st.dictionaries(keys, plain, max_size=8))
# a page of rows: tuples (and lists) of leaves, or rows that hide a
# non-leaf, which sends the whole page back to the loop
rows = st.one_of(st.lists(plain, max_size=4).map(tuple),
                 st.lists(plain, max_size=3),
                 st.tuples(st.text(max_size=3), st.sampled_from(
                     [Name("n"), Colour.RED, bytearray(b"b"), [1], {}])))


def profiled_calls(fn, *args):
    import cProfile
    profiler = cProfile.Profile()
    profiler.runcall(fn, *args)
    return sum(entry.callcount for entry in profiler.getstats())


class TestRuns:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(runs, st.lists(rows, max_size=8),
                     st.lists(rows, max_size=8).map(tuple),
                     st.dictionaries(keys, rows, max_size=5)))
    def test_a_run_costs_what_the_model_says(self, value):
        assert sizeof(value) == model_sizeof(value)
        assert sizeof({"rows": value}) == model_sizeof({"rows": value})

    def test_a_page_costs_the_same_calls_whatever_its_rows(self):
        def page(n):
            return [(f"/demozone/q/f{i:04d}", str(i), None, 2.5)
                    for i in range(n)]
        few, many = page(10), page(500)
        assert profiled_calls(sizeof, few) == profiled_calls(sizeof, many)
        assert sizeof(many) == model_sizeof(many)
        wide = page(50) + [("é", b"\x00", True, 1)]   # encoded, not counted
        assert sizeof(wide) == model_sizeof(wide)

    def test_a_short_run_keeps_the_loop(self):
        one_call = profiled_calls(sizeof, None)
        # two strings: a len and an isascii each beat a pass
        assert profiled_calls(sizeof, ("a", "b", None, 1)) == one_call + 4
        assert profiled_calls(sizeof, [1, 2.0, None, True]) == one_call


# -- a list of same-shaped dicts is sized a column at a time -----------------

# dicts that share one key tuple: a bulk request's items, a page of rows;
# a value may be a leaf, bytes, a payload claim or a nested same-shaped
# dict (an item's metadata), and one odd row in a list keeps the loop
SHAPES = [("path", "data", "data_type", "metadata"), ("path", "oid"),
          ("é", 1, True)]
cells = st.one_of(plain, st.binary(max_size=12).map(DeferredPayload),
                  st.fixed_dictionaries({"RA": st.text(max_size=6),
                                         "DEC": plain}))


def same_shaped(shape):
    return st.lists(st.fixed_dictionaries({key: cells for key in shape}),
                    max_size=7)


class TestColumns:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SHAPES).flatmap(same_shaped),
           st.booleans(), st.one_of(st.none(), st.just({"odd": 1})))
    def test_same_shaped_dicts_cost_what_the_model_says(self, items,
                                                        as_tuple, odd):
        value = items + [odd] if odd is not None else items
        value = tuple(value) if as_tuple else value
        assert sizeof(value) == model_sizeof(value)
        assert sizeof({"items": value}) == model_sizeof({"items": value})

    def test_a_bulk_request_costs_the_same_calls_whatever_its_items(self):
        def request(n):
            return {"items": [{"path": f"/demozone/c/f{i:04d}.fits",
                               "data": bytes(64), "data_type": "fits",
                               "metadata": {"RA": f"{i}.5", "DEC": "-1"}}
                              for i in range(n)]}
        few, many = request(10), request(500)
        wire.clear_size_memo()
        for value in (few, many):       # the key shapes remembered
            assert sizeof(value) == model_sizeof(value)
        gc.disable()        # a collection's callbacks are calls too
        try:
            assert profiled_calls(sizeof, few) == \
                profiled_calls(sizeof, many)
        finally:
            gc.enable()
