"""``audit_log`` pages: one reply holds at most ``limit`` rows, and the
client drains one stream of them.

The op takes ``limit``/``cursor`` and replies ``{"entries",
"next_cursor"}`` in ``auid`` order; ``SrbClient.audit_log`` joins the
pages of one ``call_stream``, so it returns what the unpaged op did —
the catalog's ``audit_query`` under the same filters — and ``Saudit``
prints what it printed.  A page costs the catalog no more than the
unpaged call did.
"""

import pytest

from repro.core import SrbClient
from repro.errors import AccessDenied
from repro.scommands import Shell
from repro.workload import standard_grid
from tests.probes import counter

PRINCIPALS = ("sekar@sdsc", "moore@sdsc", "srbadmin@sdsc")
ACTIONS = ("get", "ingest", "login", "delete")
FILTERS = [{}, {"principal_filter": "sekar@sdsc"}, {"action": "get"},
           {"target": "/demozone/t3"},
           {"principal_filter": "moore@sdsc", "action": "ingest"},
           {"action": "login", "target": "/demozone/t1"},
           {"principal_filter": "nobody@sdsc"}]


@pytest.fixture(scope="module")
def grid():
    """A grid whose audit trail is a few hundred rows long."""
    grid = standard_grid()
    mcat = grid.fed.mcat
    for i in range(260):
        mcat.record_audit(float(i), PRINCIPALS[i % 3], ACTIONS[i % 4],
                          f"/demozone/t{i % 5}", ok=i % 7 != 0)
    return grid


def unpaged(grid, principal_filter=None, action=None, target=None):
    return grid.fed.mcat.audit_query(principal=principal_filter,
                                     action=action, target=target)


def pages(grid, page_size, **filters):
    admin = grid.admin
    return list(grid.fed.rpc.call_stream(
        admin.client_host, "sdsc", "srb:srb1", "audit_log",
        page_size=page_size, ticket=admin.ticket, **filters))


@pytest.mark.parametrize("filters", FILTERS)
def test_the_drained_list_is_the_catalogs_answer(grid, filters):
    assert len(unpaged(grid)) > 100
    assert grid.admin.audit_log(**filters) == unpaged(grid, **filters)


@pytest.mark.parametrize("page_size", [1, 7, 100, 1000])
@pytest.mark.parametrize("filters", FILTERS[:3])
def test_every_page_holds_at_most_its_limit(grid, page_size, filters):
    got = pages(grid, page_size, **filters)
    want = unpaged(grid, **filters)
    assert all(len(page["entries"]) <= page_size for page in got)
    assert [row for page in got for row in page["entries"]] == want
    # the cursor is the last auid a page delivered; the last page ends it
    assert [page["next_cursor"] for page in got[:-1]] == [
        page["entries"][-1]["auid"] for page in got[:-1]]
    assert got[-1]["next_cursor"] is None
    assert len(got) == max(1, -(-len(want) // page_size))


def test_a_user_who_is_not_sysadmin_is_refused_on_the_first_page(grid):
    metrics = grid.fed.obs.metrics
    chunks = metrics.total("rpc.stream.chunks")
    with pytest.raises(AccessDenied):
        grid.curator.audit_log()
    # the stream ended on its first page, delivering none
    assert metrics.total("rpc.stream.chunks") == chunks


def test_saudit_prints_every_row_as_before(grid):
    shell = Shell(SrbClient(grid.fed, "sdsc", "srb1"))
    shell.run("Sinit srbadmin@sdsc hunter2")
    code, out = shell.run("Saudit")
    rows = unpaged(grid)
    assert code == 0 and len(rows) > 100
    assert out == "\n".join(
        f"{e['at']:10.3f} {e['principal']:<20} {e['action']:<16} "
        f"{e['target']}" + ("" if e["ok"] else "  [DENIED]") for e in rows)


@pytest.mark.parametrize("filters", FILTERS)
def test_a_page_costs_the_catalog_no_more_than_the_unpaged_call(grid,
                                                                filters):
    metrics = grid.fed.obs.metrics

    def charged(fn):
        before = (counter(metrics, "mcat.ops"), counter(metrics, "mcat.rows_scanned"))
        fn()
        return (counter(metrics, "mcat.ops") - before[0],
                counter(metrics, "mcat.rows_scanned") - before[1])

    whole = charged(lambda: unpaged(grid, **filters))
    for page_size in (1, 100):
        stream = grid.fed.rpc.call_stream(
            "sdsc", "sdsc", "srb:srb1", "audit_log", page_size=page_size,
            ticket=grid.admin.ticket, **filters)
        first = charged(lambda: next(stream))
        assert first[0] == whole[0] == 1
        assert first[1] <= whole[1]
