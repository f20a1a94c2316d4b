"""``StorageDriver.replace``: an overwrite charged as the delete and the
create it stands for, on every kind of driver, and refused — the old
bytes kept — where the new ones do not fit."""

import pytest

from repro.errors import StorageFull
from repro.obs import Observability
from repro.storage.archive import ArchiveDriver
from repro.storage.database import DatabaseResourceDriver
from repro.storage.memfs import MemFsDriver
from repro.util.clock import SimClock

KINDS = ("memfs", "archive", "database")


def driver(kind):
    """A fresh ``kind`` driver on a clock of its own, metered."""
    clock = SimClock()
    made = {
        "memfs": lambda: MemFsDriver(clock=clock),
        "archive": lambda: ArchiveDriver(clock=clock),
        "database": lambda: DatabaseResourceDriver(clock=clock),
    }[kind]()
    made.attach_obs(Observability(clock), "res")
    return made


def charged(drv):
    return (drv.clock.now, drv.obs.metrics.snapshot(), drv.ops,
            drv.bytes_read, drv.bytes_written)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("there", [True, False], ids=["over", "fresh"])
def test_replace_charges_what_delete_then_create_did(kind, there):
    by_hand = driver(kind)
    replaced = driver(kind)
    for drv in (by_hand, replaced):
        drv.create("/keep", b"k")
        if there:
            drv.create("/f", b"old bytes")
    if by_hand.exists("/f"):
        by_hand.delete("/f")
    by_hand.create("/f", b"new")
    replaced.replace("/f", b"new")
    assert charged(replaced) == charged(by_hand)
    assert replaced.read_all("/f") == by_hand.read_all("/f") == b"new"
    assert replaced.list_dir("/") == by_hand.list_dir("/")


def test_a_refused_overwrite_keeps_the_old_file_and_charges_nothing():
    fs = MemFsDriver(clock=SimClock(), capacity_bytes=100)
    fs.create("/a", b"x" * 10)
    fs.create("/b", b"y" * 80)
    before = (fs.clock.now, fs.ops, fs.bytes_written)
    with pytest.raises(StorageFull):
        fs.replace("/a", b"z" * 21)
    assert (fs.clock.now, fs.ops, fs.bytes_written) == before
    assert fs.read_all("/a") == b"x" * 10
    # the size change is what must fit: 10 -> 20 bytes fills it exactly
    fs.replace("/a", b"z" * 20)
    assert fs.read_all("/a") == b"z" * 20
    assert fs.used_bytes() == fs.capacity_bytes
