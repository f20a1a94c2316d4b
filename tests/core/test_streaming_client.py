"""Client-side streaming surface: ``ls_page``/``iter_ls``,
``query_page``/``iter_query`` and the zero-overhead parity of the
materializing calls they page."""

import cProfile
import gc

import pytest

from repro.core import Federation, SrbClient


def build_fed():
    fed = Federation(zone="demozone")
    fed.add_host("sdsc")
    fed.add_server("srb1", "sdsc", mcat=True)
    fed.add_fs_resource("unix-sdsc", "sdsc")
    fed.default_resource = "unix-sdsc"
    fed.bootstrap_admin()
    client = SrbClient(fed, "sdsc", "srb1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll("/demozone/lab")
    client.mkcoll("/demozone/lab/sub")
    client.bulk_ingest([{"path": f"/demozone/lab/f{i:03d}.dat",
                         "data": b"x" * (10 + i)} for i in range(23)])
    client.ingest("/demozone/lab/sub/nested.dat", b"deep")
    for i in range(0, 23, 2):
        client.add_metadata(f"/demozone/lab/f{i:03d}.dat", "parity", "even")
    return fed, client


@pytest.fixture
def setup():
    return build_fed()


class TestListing:
    def test_ls_page_parity(self, setup):
        fed, client = setup
        full = client.ls("/demozone/lab")
        colls, objs, cursor = [], [], None
        while True:
            page = client.ls_page("/demozone/lab", limit=7, cursor=cursor)
            colls.extend(page["collections"])
            objs.extend(page["objects"])
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert colls == full["collections"]
        assert objs == full["objects"]

    def test_iter_ls_parity(self, setup):
        fed, client = setup
        full = client.ls("/demozone/lab")
        entries = list(client.iter_ls("/demozone/lab", page_size=6))
        assert [e["path"] for e in entries if e["kind"] == "collection"] \
            == full["collections"]
        assert [e for e in entries if e["kind"] != "collection"] \
            == full["objects"]

    def test_page_bounds_each_reply(self, setup):
        fed, client = setup
        page = client.ls_page("/demozone/lab", limit=5)
        assert len(page["collections"]) + len(page["objects"]) == 5
        assert page["next_cursor"] is not None


class TestQuery:
    CONDS = [{"attr": "parity", "op": "=", "value": "even"}]

    def _conds(self):
        from repro.mcat.query import Condition
        return [Condition("parity", "=", "even")]

    def test_query_page_parity(self, setup):
        fed, client = setup
        full = client.query("/demozone/lab", self._conds())
        rows, cursor = [], None
        while True:
            page = client.query_page("/demozone/lab", self._conds(),
                                     limit=4, cursor=cursor)
            assert page["columns"] == full.columns
            rows.extend(tuple(r) for r in page["rows"])
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert sorted(rows) == sorted(tuple(r) for r in full.rows)

    def test_iter_query_streams_rows(self, setup):
        fed, client = setup
        full = client.query("/demozone/lab", self._conds())
        calls0 = fed.rpc.stats.calls
        rows = [tuple(r) for r in client.iter_query(
            "/demozone/lab", self._conds(), page_size=5)]
        assert sorted(rows) == sorted(tuple(r) for r in full.rows)
        assert fed.rpc.stats.calls - calls0 == 3    # 12 hits / 5 per page

    def test_dropping_the_row_iterator_stops_the_stream(self, setup):
        fed, client = setup
        calls0, now0 = fed.rpc.stats.calls, fed.clock.now
        rows = client.iter_query("/demozone/lab", self._conds(),
                                 page_size=5)
        assert fed.rpc.stats.calls == calls0    # nothing sent yet
        first = [next(rows) for _ in range(5)]  # the first page's rows
        assert len(set(first)) == 5 and fed.rpc.stats.calls - calls0 == 1
        spent = fed.clock.now
        del rows
        assert fed.rpc.stats.calls - calls0 == 1
        assert fed.clock.now == spent > now0


class TestCursorlessParity:
    def test_streaming_leaves_materializing_costs_untouched(self):
        """Serial parity: a cursorless workload costs exactly the same
        on a federation that has exercised the streaming plane first —
        overhead must be 0.0, not just small."""
        def workload_cost(fed, client):
            t0, b0 = fed.clock.now, fed.rpc.stats.response_bytes
            client.ls("/demozone/lab")
            client.query("/demozone/lab",
                         [__import__("repro.mcat.query",
                                     fromlist=["Condition"]).Condition(
                                         "parity", "=", "even")])
            return fed.clock.now - t0, fed.rpc.stats.response_bytes - b0

        fed_a, client_a = build_fed()
        fed_b, client_b = build_fed()
        # fed B runs the paged/streaming surface first
        for _ in client_b.iter_ls("/demozone/lab", page_size=4):
            pass
        client_b.query_page("/demozone/lab", [], limit=3)
        cost_a = workload_cost(fed_a, client_a)
        cost_b = workload_cost(fed_b, client_b)
        assert cost_a == cost_b


def drain_calls(entries: int) -> int:
    """Python-level calls (functions and built-ins) of one drain of
    ``iter_ls`` over a collection of one sub-collection and ``entries``
    - 1 objects, in pages of 100, on a warm grid."""
    fed, client = build_fed()
    coll = "/demozone/drained"
    client.mkcoll(coll)
    client.mkcoll(f"{coll}/sub")
    client.bulk_ingest([{"path": f"{coll}/f{i:04d}", "data": b"x"}
                        for i in range(entries - 1)])
    list(client.iter_ls(coll))                      # memos, sessions
    profiler = cProfile.Profile()
    gc.disable()        # a collection's callbacks are calls too
    try:
        profiler.enable()
        got = list(client.iter_ls(coll))
        profiler.disable()
    finally:
        gc.enable()
    assert len(got) == entries
    return sum(e.callcount for e in profiler.getstats())


@pytest.mark.parametrize("fewer, more", [(30, 90), (130, 190)])
def test_a_drain_makes_no_call_per_entry(fewer, more):
    """The pages are chained (nothing resumes per entry), and a page's
    entries are built and sized with no call per entry: a drain of the
    same number of pages costs the same calls however full they are."""
    assert drain_calls(fewer) == drain_calls(more)
