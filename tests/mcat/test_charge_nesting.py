"""The catalog's one re-entered charge object stays right when blocks nest.

``Mcat._charge`` is a single object every op enters; ``move_object`` runs
``update_object`` inside its own block, so two blocks are open at once on
it.  The numbers below were read off the commit before the charge became
re-entrant (one ``_Charge`` allocated per block): the inner op is charged
first, the outer one for everything since *its* start — the inner block's
rows a second time — and an error in either still charges both.  They
were restated when the collection path cache went: the outer block's
look-up of the destination collection now charges its row.
"""

import pytest

from repro.errors import AlreadyExists, NoSuchObject
from repro.mcat import Mcat
from repro.util.clock import SimClock

OWNER = "o@d"
OP, ROW = Mcat.QUERY_OVERHEAD_S, Mcat.ROW_COST_S


@pytest.fixture
def catalog():
    clock = SimClock()
    m = Mcat(zone="z", clock=clock)
    m.create_collection("/z/a", OWNER, now=0.0)
    m.create_collection("/z/b", OWNER, now=0.0)
    oid = m.create_object("/z/a/x.dat", "data", OWNER, now=0.0, size=1)
    m.add_replica(oid, "r1", "/p/x", 1, now=0.0)
    m.create_object("/z/b/taken.dat", "data", OWNER, now=0.0, size=1)
    advances = []
    real = clock.advance
    clock.advance = lambda s: (advances.append(s), real(s))[1]
    return m, clock, oid, advances


def charged(m, clock, fn):
    """``(mcat.ops, mcat.rows_scanned, busy_s, clock)`` deltas of ``fn()``."""
    total = m.obs.metrics.total
    before = (total("mcat.ops"), total("mcat.rows_scanned"), m.busy_s,
              clock.now)
    fn()
    after = (total("mcat.ops"), total("mcat.rows_scanned"), m.busy_s,
             clock.now)
    return tuple(a - b for a, b in zip(after, before))


def test_a_move_is_two_ops_and_the_inner_rows_count_twice(catalog):
    m, clock, oid, advances = catalog
    ops, rows, busy, virt = charged(
        m, clock, lambda: m.move_object(oid, "/z/b/y.dat"))
    assert (ops, rows) == (2, 3)
    assert busy == pytest.approx(406e-6, abs=1e-12)
    assert virt == pytest.approx(406e-6, abs=1e-12)
    assert advances == [OP + ROW, OP + 2 * ROW]
    assert m.get_object("/z/b/y.dat")["oid"] == oid
    assert m._charge.marks == ()


def test_the_inner_op_is_charged_first(catalog):
    m, clock, oid, advances = catalog
    ops, rows, busy, virt = charged(
        m, clock, lambda: m.move_object(oid, "/z/b/y.dat"))
    assert (ops, rows) == (2, 3)
    assert advances == [OP + ROW, OP + 2 * ROW]     # update, then move
    assert busy == pytest.approx(406e-6, abs=1e-12)
    assert virt == pytest.approx(406e-6, abs=1e-12)


def test_an_error_in_the_inner_block_charges_both(catalog):
    m, clock, _oid, advances = catalog

    def move_missing():
        with pytest.raises(NoSuchObject):
            m.move_object(999, "/z/b/y.dat")

    ops, rows, busy, virt = charged(m, clock, move_missing)
    assert (ops, rows) == (2, 1)
    assert advances == [OP, OP + ROW]
    assert busy == pytest.approx(402e-6, abs=1e-12)
    assert virt == pytest.approx(402e-6, abs=1e-12)
    assert m._charge.marks == ()


def test_an_error_before_the_inner_block_charges_one(catalog):
    m, clock, oid, advances = catalog

    def move_onto_taken():
        with pytest.raises(AlreadyExists):
            m.move_object(oid, "/z/b/taken.dat")

    assert charged(m, clock, move_onto_taken)[:2] == (1, 2)
    assert advances == [OP + 2 * ROW]
    # and the next op starts from a clean mark
    assert charged(m, clock, lambda: m.update_object(oid, size=2))[:2] \
        == (1, 1)
    assert m._charge.marks == ()


def test_two_catalogs_charge_apart():
    # a cross-shard move holds a block open on each of two catalogs
    clock = SimClock()
    src, dst = Mcat(zone="z", clock=clock), Mcat(zone="z", clock=clock)
    src.create_collection("/z/a", OWNER, now=0.0)
    with src._charge:
        src.lookup("/z/a")
        with dst._charge:
            dst.lookup("/z/nope")
        assert dst._charge.marks == () and len(src._charge.marks) == 1
    assert src._charge.marks == ()
    # src: the create, the block, the check in it; dst: a block and a check
    assert src.obs.metrics.total("mcat.ops") == 3
    assert dst.obs.metrics.total("mcat.ops") == 2
