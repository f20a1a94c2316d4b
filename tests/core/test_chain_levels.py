"""A grantee's listing or query reads each collection of its chain once
per op.

Whoever holds a right only by a grant on a collection inherits it down
the hierarchy, so each object the op returns needs the level its
collection inherits.  That level is the collection's own grant merged
with its parent's, and an op works each one out once
(``AccessController.levels``): the scope check reads the scope and its
ancestors, and the rows listed add only their own subcollections.  The
levels go with the op: the next op reads them again, and sees a grant
made in between.
"""

import pytest

from repro.core import SrbClient
from repro.errors import AccessDenied
from repro.mcat import Condition
from repro.mcat.catalog import Mcat
from repro.util import paths
from repro.workload import standard_grid

GUEST = "guest@sdsc"
SUBCOLLECTIONS = 8


def chain_reads(monkeypatch):
    """A counter of the reads a chain walk makes, patched in before a
    grid binds its catalog's methods."""
    counted = {"reads": 0}
    for name in ("get_collection", "grants_for"):
        method = getattr(Mcat, name)

        def counting(self, *args, _method=method, **kwargs):
            counted["reads"] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(Mcat, name, counting)
    return counted


def grid_with_scope():
    grid = standard_grid()
    scope = f"{grid.home}/survey"
    grid.curator.mkcoll(scope)
    for i in range(SUBCOLLECTIONS):
        grid.curator.mkcoll(f"{scope}/night{i}")
        grid.curator.ingest(f"{scope}/night{i}/frame.fits", b"x" * 16)
        grid.curator.add_metadata(f"{scope}/night{i}/frame.fits",
                                  "BAND", "J")
    grid.fed.add_user(GUEST, "pw")
    grid.curator.grant(scope, GUEST, "read")
    guest = SrbClient(grid.fed, "sdsc", "srb1", GUEST, "pw")
    guest.login()
    return grid, scope, guest


def test_a_query_reads_each_collection_of_its_chain_once(monkeypatch):
    counted = chain_reads(monkeypatch)
    grid, scope, guest = grid_with_scope()
    depth = len(paths.ancestors(scope))
    collections = 1 + SUBCOLLECTIONS
    for run in (lambda: guest.query(scope, [Condition("BAND", "=", "J")]),
                lambda: guest.query_page(scope, [Condition("BAND", "=",
                                                           "J")])):
        before = counted["reads"]
        result = run()
        rows = result.rows if hasattr(result, "rows") else result["rows"]
        assert len(rows) == SUBCOLLECTIONS
        assert counted["reads"] - before <= 2 * (collections + depth)


def test_the_levels_do_not_outlive_the_op(monkeypatch):
    counted = chain_reads(monkeypatch)
    grid, scope, guest = grid_with_scope()
    query = [Condition("BAND", "=", "J")]
    before = counted["reads"]
    guest.query(scope, query)
    first = counted["reads"] - before
    guest.query(scope, query)
    assert counted["reads"] - before == 2 * first
    assert grid.fed.access.levels is None
    # a grant revoked between two ops shows in the second
    grid.curator.revoke(scope, GUEST)
    with pytest.raises(AccessDenied):
        guest.query(scope, query)
    grid.curator.grant(f"{scope}/night3", GUEST, "read")
    assert [row[0] for row in guest.query(f"{scope}/night3", query).rows] \
        == [f"{scope}/night3/frame.fits"]
