"""Each catalog row is read once per op.

The paper's server does its catalog work for one operation as one batch
against the MCAT; ours charges every catalog read, so an op that reads
a row it already holds pays a catalog op (and its virtual time) for
nothing.  This test drives every row of the shared call map
(``tests/op_calls.py``) — as the sysadmin, and as a non-owner whose
only right is a grant on the fixture collection — on the standard grid
and on a catalog of two partitions with a read replica each, and
asserts that inside one dispatched op no single-row catalog read and no
``replicas(oid)`` returns a row an earlier read of that op already
returned, unless a catalog write came between.

Rows are named by what they are: an object by its ``oid``, a collection
by its ``cid``, a replica by ``(oid, replica_num)``.  A nested
dispatched op (``open_object`` runs ``stat``; a collection ``copy`` runs
one ``copy`` per file) is a scope of its own, and a write anywhere —
the nested op's included — opens a fresh window for every open scope.
Besides the call map, the subjects it does not reach are driven too
(``test_op_permissions.extra_calls``: a collection where an op takes an
object or a collection, a link where an op resolves one).

An op that must read a row twice is a named entry of :data:`EXCEPTIONS`
with its reason, as ``dispatch.WRITTEN_CHECKS`` names written checks;
an entry excuses re-read *collection* rows only, never an object or a
replica.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import pytest

from repro.core import SrbClient
from repro.core.dispatch import Dispatcher
from repro.errors import SrbError
from repro.mcat.catalog import Mcat
from repro.workload import standard_grid
from tests.core.test_op_permissions import LINK, extra_calls
from tests.integration.test_charge_conservation import build_fed
from tests.op_calls import COLL, FILE, op_calls, prepare

#: catalog reads that answer one row (or None), and ``replicas(oid)``
READS = ("lookup", "get_object", "find_object",
         "get_collection", "get_replica", "replicas")

#: Why an op re-reads a collection row.  Each of these checks two
#: subjects in one collection (a source and a destination's parent, a
#: link's parent and its target); for a principal whose right is a
#: grant, an object's check walks the collection chain from its own
#: subject and reads its collections again.  An op hands the chain
#: levels its collection checks read on to the rows it lists
#: (``AccessController.levels``), not to a check of another subject.
CHAIN = "two checks walk one collection chain"
EXCEPTIONS: Dict[str, str] = {"copy": CHAIN, "link": CHAIN, "move": CHAIN}

GUEST = "guest@sdsc"


def _row_keys(answer: Any) -> List[Tuple[Any, ...]]:
    if answer is None:
        return []
    if isinstance(answer, list):
        return [("replica", r["oid"], r["replica_num"]) for r in answer]
    if "replica_num" in answer:
        return [("replica", answer["oid"], answer["replica_num"])]
    if "oid" in answer:
        return [("object", answer["oid"])]
    return [("collection", answer["cid"])]


class ReadLog:
    """The open op scopes, innermost last, and what each has re-read."""

    def __init__(self):
        self.scopes: List[Tuple[str, set]] = []
        self.repeats: Dict[str, List[Tuple[str, Tuple[Any, ...]]]] = {}

    def read(self, method: str, answer: Any) -> None:
        if not self.scopes:
            return
        op, seen = self.scopes[-1]
        for key in _row_keys(answer):
            if key in seen:
                self.repeats.setdefault(op, []).append((method, key))
            seen.add(key)

    def wrote(self, *_change: Any) -> None:
        for _op, seen in self.scopes:
            seen.clear()


@pytest.fixture
def log(monkeypatch):
    """Every read of :data:`READS` and every dispatched op, logged; the
    patches are in place before a grid binds its catalog's methods."""
    log = ReadLog()
    for name in READS:
        method = getattr(Mcat, name, None)
        if method is None:
            continue

        def logged(self, *args, _name=name, _method=method, **kwargs):
            answer = _method(self, *args, **kwargs)
            log.read(_name, answer)
            return answer
        monkeypatch.setattr(Mcat, name, logged)
    call = Dispatcher.call

    def scoped(self, name, ticket, kwargs):
        log.scopes.append((name, set()))
        try:
            return call(self, name, ticket, kwargs)
        finally:
            log.scopes.pop()
    monkeypatch.setattr(Dispatcher, "call", scoped)
    return log


def _watch_writes(fed, log: ReadLog) -> None:
    """Every row a primary inserts, updates or deletes ends the window:
    chain :meth:`ReadLog.wrote` in front of the shard's own observer."""
    for shard in fed.mcat.shards:
        db = shard.primary.db
        prev = db._observer

        def observe(*change, _prev=prev):
            log.wrote()
            if _prev is not None:
                _prev(*change)
        db.watch(observe)


def _grids():
    return {"standard": lambda: (lambda g: (g.fed, g.admin))(standard_grid()),
            "sharded": lambda: build_fed(mcat_shards=2, mcat_replicas=1)}


@pytest.mark.parametrize("principal", ["sysadmin", "grantee"])
@pytest.mark.parametrize("grid", ["standard", "sharded"])
def test_no_op_reads_a_row_it_already_holds(log, grid, principal):
    fed, admin = _grids()[grid]()
    _watch_writes(fed, log)
    srv = fed.server("srb1")
    mid = prepare(srv, admin.ticket)
    srv.link(admin.ticket, FILE, LINK)
    ticket = admin.ticket
    if principal == "grantee":
        fed.add_user(GUEST, "pw")
        admin.grant(COLL, GUEST, "own")
        guest = SrbClient(fed, "sdsc", "srb1", GUEST, "pw")
        guest.login()
        ticket = guest.ticket
    log.repeats.clear()
    for name, kwargs, _raises in op_calls(ticket, mid) + extra_calls(ticket):
        try:
            getattr(srv, name)(**kwargs)
        except SrbError:
            pass
    repeats = {op: [(method, key) for method, key in found
                    if op not in EXCEPTIONS or key[0] != "collection"]
               for op, found in log.repeats.items()}
    assert not {op: found for op, found in repeats.items() if found}
