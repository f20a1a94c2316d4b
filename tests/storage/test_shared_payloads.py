"""A stored file is the payload's own bytes until something writes to it.

``MemFsDriver`` and ``ArchiveDriver`` keep the ``bytes`` object a
``create`` was given as the file (an archive's cache copy and tape copy
of it are then one object), copy a ``bytearray`` or ``memoryview`` once
at ``create``, and take a private ``bytearray`` before the first
in-place ``write`` or ``append`` to a file.  Reads return the stored
``bytes`` itself when they cover the whole file.

The oracle is the copying semantics the drivers had before, kept below
as two subclasses: a private ``bytearray`` per file and per cache entry,
and a disk's usage re-summed on every capacity check.  Over random
operation sequences a sharing driver and its copying twin must answer
every call alike, charge alike, and hold the same bytes, which must
equal a dict of ``bytes`` snapshots.  Both drivers are fed the very same
payload objects, ``bytes``, ``bytearray`` and ``memoryview`` mixed, and
each other's reads (as replication feeds them), and the caller scribbles
over every mutable payload after each call: a write that reached through
a shared object into another file, of the same driver or of the other,
or a stored file that is still the caller's buffer, shows as a file
that no longer equals its snapshot.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlreadyExists, SrbError, StorageError, StorageFull
from repro.storage.archive import ArchiveDriver
from repro.storage.base import normalize_physical
from repro.storage.memfs import MemFsDriver
from repro.util.clock import SimClock
from tests.invariants import held_files

DISK_CAPACITY = 90      # bytes; refusals happen
CACHE_CAPACITY = 60     # bytes; eviction, staging and purges happen


# -- the copying drivers, as the oracle ---------------------------------------

class CopyingMemFs(MemFsDriver):
    """The disk as it was: a private ``bytearray`` per file, and its
    usage re-summed over every file on every capacity check."""

    def _check_capacity(self, delta: int) -> None:
        if self.capacity_bytes is None or delta <= 0:
            return
        if self.used_bytes() + delta > self.capacity_bytes:
            raise StorageFull(
                f"resource full: {self.used_bytes() + delta} > {self.capacity_bytes}")

    def create(self, path, data):
        path = normalize_physical(path)
        if path in self._files:
            raise AlreadyExists(f"file exists: {path!r}")
        self._check_capacity(len(data))
        self._files[path] = bytearray(data)
        self._charge_write(len(data), op="create")

    def write(self, path, data, offset=0):
        path = normalize_physical(path)
        self.require(path)
        buf = self._files[path]
        if offset < 0 or offset > len(buf):
            raise StorageError(f"offset {offset} out of range for {path!r}")
        grow = max(0, offset + len(data) - len(buf))
        self._check_capacity(grow)
        if grow:
            buf.extend(b"\x00" * grow)
        buf[offset:offset + len(data)] = data
        self._charge_write(len(data))

    def append(self, path, data):
        path = normalize_physical(path)
        self.require(path)
        self._check_capacity(len(data))
        self._files[path].extend(data)
        self._charge_write(len(data))

    def delete(self, path):
        path = normalize_physical(path)
        self.require(path)
        del self._files[path]
        self._charge_op("delete")

    def used_bytes(self):
        return sum(len(b) for b in self._files.values())


class CopyingArchive(ArchiveDriver):
    """The archive as it was: every cache entry, created or staged, a
    private ``bytearray`` copy, so the tape copy is another object."""

    def _cache_put(self, path, data):
        super()._cache_put(path, bytearray(data))


def drivers(memfs_class, archive_class):
    clock = SimClock()
    return {"mem": memfs_class(clock=clock, capacity_bytes=DISK_CAPACITY),
            "arc": archive_class(clock=clock,
                                 cache_capacity_bytes=CACHE_CAPACITY)}


# -- the payloads a caller hands over --------------------------------------------

KINDS = ("bytes", "bytearray", "memoryview")


def payload(kind, content):
    if kind == "bytes":
        return bytes(content)
    if kind == "bytearray":
        return bytearray(content)
    return memoryview(bytearray(content))


def scribble(obj):
    """What a caller may do to its buffer once the call returned."""
    if not isinstance(obj, bytes):
        obj[:] = bytes(b ^ 0xA5 for b in obj)


# -- the operations ---------------------------------------------------------------

PATHS = st.sampled_from(["/a", "/d/c"])
TARGETS = st.sampled_from(["mem", "arc", "both"])
SLOT = st.integers(min_value=0, max_value=5)     # which pooled payload
WRITES = st.one_of(
    st.tuples(st.just("create"), TARGETS, PATHS, SLOT),
    st.tuples(st.just("replace"), TARGETS, PATHS, SLOT),
    st.tuples(st.just("write"), TARGETS, PATHS, SLOT,
              st.integers(min_value=0, max_value=12)),
    st.tuples(st.just("append"), TARGETS, PATHS, SLOT),
)
OTHERS = st.one_of(
    st.tuples(st.just("read"), TARGETS, PATHS),
    st.tuples(st.just("delete"), TARGETS, PATHS),
    st.tuples(st.just("copy"), TARGETS, PATHS, PATHS),
    st.tuples(st.just("transfer"), st.sampled_from(["mem", "arc"]), PATHS),
    st.tuples(st.just("pin"), st.just("arc"), PATHS),
    st.tuples(st.just("unpin"), st.just("arc"), PATHS),
    st.tuples(st.just("purge"), st.just("arc")),
)
OPS = st.one_of(WRITES, WRITES, OTHERS)
CONTENT = st.builds(lambda unit, n: (unit * n)[:n],
                    st.binary(min_size=1, max_size=6),
                    st.integers(min_value=0, max_value=40))
POOL = st.lists(st.tuples(st.sampled_from(KINDS), CONTENT),
                min_size=1, max_size=6)


def expect(model, name, op, data):
    """What the copying semantics answer to ``op`` on driver ``name``,
    as an exception name, the bytes read, or None; ``model[name]`` (a
    dict of ``bytes``) is updated as the files would be."""
    files = model[name]
    kind, path = op[0], op[2] if len(op) > 2 else None
    used = sum(map(len, files.values()))

    def full(delta):
        return name == "mem" and delta > 0 and used + delta > DISK_CAPACITY

    if kind in ("write", "append", "read", "delete", "pin", "copy") \
            and path not in files:
        return "NoSuchPhysicalFile"
    if kind == "create" or kind == "copy":
        dst = op[3] if kind == "copy" else path
        data = files[path] if kind == "copy" else data
        if dst in files:
            return "AlreadyExists"
        if full(len(data)):
            return "StorageFull"
        files[dst] = data
    elif kind == "replace":
        if full(len(data) - len(files.get(path, b""))):
            return "StorageFull"
        files[path] = data
    elif kind == "write":
        old, offset = files[path], op[4]
        if offset > len(old):
            return "StorageError"
        if full(offset + len(data) - len(old)):
            return "StorageFull"
        files[path] = old[:offset] + data + old[offset + len(data):]
    elif kind == "append":
        if full(len(data)):
            return "StorageFull"
        files[path] += data
    elif kind == "read":
        return files[path]
    elif kind == "delete":
        del files[path]
    return None


def run(driver, op, data):
    """``op`` on ``driver``: the exception's name, the bytes read, or None."""
    kind, path = op[0], op[2] if len(op) > 2 else None
    try:
        if kind in ("create", "replace", "append"):
            getattr(driver, kind)(path, data)
        elif kind == "write":
            driver.write(path, data, offset=op[4])
        elif kind == "read":
            return driver.read(path)
        elif kind == "delete":
            driver.delete(path)
        elif kind == "copy":
            driver.copy_within(path, op[3])
        elif kind == "pin":
            driver.pin(path)
        elif kind == "unpin":
            driver.unpin(path)
        else:
            driver.purge_cache()
    except SrbError as exc:
        return type(exc).__name__
    return None


def step(grid, op, data, model=None):
    """Run ``op`` on the grid's driver(s); a transfer reads the path off
    the other driver and replaces it into the target, as replication
    does.  Returns one outcome per driver touched."""
    names = ["mem", "arc"] if op[1] == "both" else [op[1]]
    outcomes = []
    for name in names:
        if op[0] == "transfer":
            other = "arc" if name == "mem" else "mem"
            got = run(grid[other], ("read", other, op[2]), None)
            if model is not None:
                want = expect(model, other, ("read", other, op[2]), None)
                assert got == want, op
            if not isinstance(got, bytes):
                outcomes.append(got)
                continue
            sub, data = ("replace", name, op[2]), got
        else:
            sub = op
        outcomes.append(run(grid[name], sub, data))
        if model is not None:
            want = expect(model, name, sub, data if data is None
                          else bytes(data))
            assert outcomes[-1] == want, (name, op)
    return outcomes


def charges(grid):
    mem, arc = grid["mem"], grid["arc"]
    return (mem.clock.now, mem.ops, mem.bytes_read, mem.bytes_written,
            arc.ops, arc.bytes_read, arc.bytes_written, arc.stages,
            arc.tape_mounts, arc._cache_order, sorted(arc._pinned))


def assert_sound(grid, oracle, model, pool):
    mem, arc = grid["mem"], grid["arc"]
    for name in ("mem", "arc"):
        files = held_files(grid[name])
        assert files == model[name] == held_files(oracle[name]), name
        for buf in files.values():
            assert type(buf) in (bytes, bytearray)
            assert all(buf is not p for p in pool
                       if not isinstance(p, bytes)), "kept a caller's buffer"
    for path, buf in arc._cache.items():
        assert buf == arc._tape[path]
    assert mem.used_bytes() == sum(len(b) for b in mem._files.values())
    assert arc._cached_bytes == sum(len(b) for b in arc._cache.values())
    assert arc.used_bytes() == sum(map(len, model["arc"].values()))


@settings(max_examples=300, deadline=None)
@given(pool=POOL, ops=st.lists(OPS, min_size=1, max_size=50))
def test_sharing_drivers_answer_and_charge_as_the_copying_ones(pool, ops):
    grid = drivers(MemFsDriver, ArchiveDriver)
    oracle = drivers(CopyingMemFs, CopyingArchive)
    model = {"mem": {}, "arc": {}}
    pool = [payload(kind, content) for kind, content in pool]
    seed = [("create", "both", "/a", 0), ("create", "both", "/d/c", 1)]
    for op in seed + ops:
        data = pool[op[3] % len(pool)] \
            if op[0] in ("create", "replace", "write", "append") else None
        assert step(grid, op, data, model) == step(oracle, op, data), op
        for obj in pool:
            scribble(obj)
        assert charges(grid) == charges(oracle), op
        assert_sound(grid, oracle, model, pool)


# -- what the sharing buys, shown once ---------------------------------------------

class TestOneObject:
    def test_a_bytes_payload_is_the_file(self):
        grid = drivers(MemFsDriver, ArchiveDriver)
        data = b"payload" * 4
        grid["mem"].create("/f", data)
        grid["arc"].create("/f", data)
        assert grid["mem"]._files["/f"] is data
        assert grid["arc"]._cache["/f"] is data is grid["arc"]._tape["/f"]
        assert grid["mem"].read("/f") is data
        assert grid["arc"].read("/f") is data

    def test_a_staged_file_is_the_tape_object(self):
        arc = drivers(MemFsDriver, ArchiveDriver)["arc"]
        arc.create("/f", b"x" * 10)
        arc.purge_cache()
        arc.read("/f")
        assert arc.stages == 1 and arc._cache["/f"] is arc._tape["/f"]

    @pytest.mark.parametrize("kind", ["bytearray", "memoryview"])
    def test_a_mutable_payload_is_copied_once(self, kind):
        grid = drivers(MemFsDriver, ArchiveDriver)
        data = payload(kind, b"abc")
        grid["mem"].create("/f", data)
        grid["arc"].create("/f", data)
        scribble(data)
        assert grid["mem"].read("/f") == grid["arc"].read("/f") == b"abc"
        assert type(grid["mem"]._files["/f"]) is bytes
        assert grid["arc"]._cache["/f"] is grid["arc"]._tape["/f"]

    def test_a_write_copies_the_file_first_and_then_reuses_it(self):
        grid = drivers(MemFsDriver, ArchiveDriver)
        data = b"abcdef"
        for drv in grid.values():
            drv.create("/f", data)
            drv.write("/f", b"X", offset=1)
            first = drv._cache["/f"] if drv is grid["arc"] \
                else drv._files["/f"]
            drv.append("/f", b"gh")
            assert type(first) is bytearray and first == b"aXcdefgh"
            assert drv.read("/f") == b"aXcdefgh"
        assert data == b"abcdef"
        assert grid["arc"]._tape["/f"] == b"aXcdefgh"
        assert grid["arc"]._tape["/f"] is not grid["arc"]._cache["/f"]

    @pytest.mark.parametrize("offset, error", [(7, StorageError),
                                               (0, StorageFull)])
    def test_a_refused_write_copies_nothing(self, offset, error):
        mem = MemFsDriver(clock=SimClock(), capacity_bytes=6)
        data = b"abcdef"
        mem.create("/f", data)
        with pytest.raises(error):
            mem.write("/f", b"toolong", offset=offset)
        with pytest.raises(StorageFull):
            mem.append("/f", b"g")
        assert mem._files["/f"] is data and mem.used_bytes() == 6
