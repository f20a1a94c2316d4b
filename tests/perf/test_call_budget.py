"""Per-call budget: how many Python-level calls one small op may cost.

The fixed interpreter cost of a small op is the grid's throughput, and it
is spent in bookkeeping (wire sizing, metric keys, catalog charging, path
validation, argument binding) long before any byte moves.  gridbench
gates that cost as ``py_calls_per_op``; this guard catches a per-call
regression in tier-1, in well under a second, without running it.

Each budget is about 15 % above the count measured on CPython 3.11 when
it was pinned.  Last re-pinned when the grid's wiring became plain
attributes bound at construction, the clock's ``now`` an attribute, the
catalog's charge one re-entered object, and a dict's key bytes, a
ticket's size and a path's canonical form things remembered per shape
(count before -> count now; budget before -> budget now; the pinning
before that, at the op plans and bound instruments, in brackets):

==================  ================  ==============  ==================
op                  measured          budget          (pinning before)
==================  ================  ==============  ==================
``ingest``          449 -> 329        515 -> 380      (570 -> 449)
``ingest logical``  572 -> 432        665 -> 495      (716 -> 577)
``get``             293 -> 214        345 -> 245      (417 -> 298)
``stat``            277 -> 167        320 -> 190      (367 -> 277)
``add_metadata``    250 -> 177        290 -> 205      (356 -> 250)
``bulk_ingest row`` 36.1 -> 30.0      42 -> 34.5      (43.9 -> 36.1)
``query selective`` 1,506 -> 749      1735 -> 860     (1,566 -> 1,510)
``query broad row`` 25.7 -> 6.9       29.5 -> 7.9     (26.2 -> 25.8)
``query_page row``  39.1 -> 14.7      45 -> 17        (40.4 -> 39.1)
==================  ================  ==============  ==================

The three ``query`` rows were re-pinned on their own, when a query batch
became set operations over row ids: each condition is tested once per
batch by C-level ``map``, and object rows and display values are read
only for the rows that pass.

Two budgets pin the relay (a payload of four relay blocks passing
through the server between the laptop and ``caltech``), measured when it
replaced store-and-forward: ``ingest relayed`` 423 -> budget 485 is
``ingest logical`` with 256 KiB, so the leg runner prices what the
remote member's leg hides behind the request (11 calls over the same
ingest of 4 KiB, which prices nothing); ``get relayed`` 261 -> budget
300 reads that object's ``caltech`` copy back, so the read delivery
prices the reply.  Since that pinning a wire leg looks its two hosts up
without a call each (every op above: 4 to 20 fewer than the table says).

``ingest logical`` is the same ingest onto the two-member logical
resource ``logrsrc1`` (one local member, one remote), which pins the
one write loop every ingest goes through — availability, sessions, the
remote pushes as one group, create, replica row.  ``bulk_ingest row``
is the catalog's insert path on its own: calls per catalog row of one
100-object ``bulk_ingest``, so a regression in ``Table.insert`` or in
index upkeep fails here — and so does a dispatcher that walks every
dict of the batch looking for payload claims again (that walk was 7.8
of the 43.9).  The three ``query`` budgets are the catalog's read path
over the 200 five-attribute objects those two ``bulk_ingest`` calls
left: ``query selective`` is one conjunctive query returning 26 rows,
driven by its 28-row ``FIELD = 3`` condition; ``query broad row`` is
calls per result row of a one-condition query returning all 200 and
``query_page row`` the same for a first page of 50 off the path walk —
a charged catalog op or a Python-level re-parse per row shows in
either.

The counts do not depend on the hash seed, nor on what the process ran
before (``standard_grid()`` builds a ``Federation``, which empties the
process-wide memos).  A change that needs more should show in
EXPERIMENTS.md what the calls buy.
"""

import cProfile

import pytest

from repro.mcat import Condition
from repro.workload import standard_grid

PAYLOAD = b"\x5a" * 4096
RELAYED = b"\x5a" * (256 * 1024)        # four relay blocks

#: op -> most Python-level calls (functions and builtins) one call may make
BUDGET = {"ingest": 380, "get": 245, "stat": 190, "add_metadata": 205,
          "ingest logical": 495, "ingest relayed": 485, "get relayed": 300,
          "bulk_ingest row": 34.5,
          "query selective": 860, "query broad row": 7.9,
          "query_page row": 17}


def calls_made_by(op) -> int:
    profiler = cProfile.Profile()
    profiler.enable()
    op()
    profiler.disable()
    # the profiler's own disable() is the one call not the op's
    return sum(e.callcount for e in profiler.getstats()) - 1


@pytest.fixture(scope="module")
def measured():
    grid = standard_grid()
    client, home = grid.curator, grid.home

    def ops(path):
        return {
            "ingest": lambda: client.ingest(path, PAYLOAD),
            "ingest logical": lambda: client.ingest(
                path + ".2", PAYLOAD, resource="logrsrc1"),
            "get": lambda: client.get(path),
            "ingest relayed": lambda: client.ingest(
                path + ".3", RELAYED, resource="logrsrc1"),
            "get relayed": lambda: client.get(path + ".3", replica_num=2),
            "stat": lambda: client.stat(path),
            "add_metadata": lambda: client.add_metadata(path, "band", "J"),
        }

    for op in ops(f"{home}/warm.dat").values():     # lazy set-up, memos
        op()
    counts = {}
    for name, op in ops(f"{home}/counted.dat").items():
        counts[name] = calls_made_by(op)

    # the catalog's insert path: 100 objects with five attributes each in
    # one bulk_ingest is 701 rows (object + replica + five metadata
    # triples each, one audit row), and the RPC around them is paid once
    def batch(tag):
        return [{"path": f"{home}/{tag}-{i:03d}.fits", "data": PAYLOAD[:64],
                 "metadata": {"RA": f"{i}.5", "DEC": f"-{i}.25",
                              "JMAG": "9.75", "NIGHT": "1999-04-01",
                              "FIELD": str(i % 7)}}
                for i in range(100)]

    client.bulk_ingest(batch("warm"))
    db = grid.fed.mcat.shards[0].primary.db
    rows_before = sum(len(db.table(t)) for t in db.tables())
    items = batch("counted")
    calls = calls_made_by(lambda: client.bulk_ingest(items))
    rows = sum(len(db.table(t)) for t in db.tables()) - rows_before
    assert rows == 701
    counts["bulk_ingest row"] = calls / rows

    # the query path over those 200 objects (plus the five above, which
    # carry none of these attributes): a selective conjunction as one
    # number, a broad query and a first page per result row
    def calls_and_rows(query):
        out = []
        return calls_made_by(lambda: out.extend(query())), len(out)

    calls, rows = calls_and_rows(lambda: client.query(home, [
        Condition("RA", ">=", "10"), Condition("FIELD", "=", "3")]).rows)
    assert rows == 26
    counts["query selective"] = calls
    calls, rows = calls_and_rows(lambda: client.query(home, [
        Condition("RA", ">=", "0")]).rows)
    assert rows == 200
    counts["query broad row"] = calls / rows
    calls, rows = calls_and_rows(lambda: client.query_page(home, [
        Condition("RA", ">=", "50")], limit=50)["rows"])
    assert rows == 50
    counts["query_page row"] = calls / rows
    return counts


@pytest.mark.parametrize("op", sorted(BUDGET))
def test_one_small_op_stays_within_its_call_budget(measured, op):
    assert measured[op] <= BUDGET[op], (
        f"one client.{op} made {measured[op]:.4g} Python-level calls; "
        f"the budget is {BUDGET[op]}")


# -- the source chain: read where the bytes are --------------------------------
# A read walks ``PlacementEngine.source_chain``: the policy's order split
# into online-on-the-sink, other online, tape-resident.  The split asks
# each copy's driver ``is_online``, so it runs only with two candidates:
# a single-replica ``get`` makes exactly the calls it made before the
# chain existed (208 when pinned; 200 once ``normalize_physical`` returned
# an already-normal driver path without a call).

SINGLE_REPLICA_GET = 200


def test_a_single_replica_get_pays_nothing_for_the_source_chain(measured):
    assert measured["get"] == SINGLE_REPLICA_GET


def test_a_get_at_a_server_with_a_cached_local_copy_pulls_no_payload_in():
    """``logrsrc1`` puts replica 1 on ``unix-sdsc`` and replica 2 in
    ``hpss-caltech``'s disk cache.  Read at ``srb2`` (caltech), the only
    payload leg is the reply to the laptop: nothing crosses into the
    server from sdsc."""
    grid = standard_grid()
    fed, client = grid.fed, grid.curator
    path = f"{grid.home}/near.dat"
    client.ingest(path, RELAYED, resource="logrsrc1")
    client.connect("srb2")
    with fed.obs.tracer.trace("test") as root:
        assert client.get(path) == RELAYED
    legs = [(span.attrs["src"], span.attrs["dst"])
            for span in root.find("net.transfer")
            if span.attrs["bytes"] >= len(RELAYED)]
    assert legs == [("caltech", "laptop")]


# -- MySRB: exchanges and calls per page --------------------------------------
# A page costs WAN round trips first (each about 0.08 virtual s from the
# web host) and HTML assembly second.  Every page sends the calls that do
# not depend on each other as one ``client.batch`` exchange, so the count
# per page is exact; a page that regains a serial call fails by name.
# What each exchange is, in order (<batch> = one call_batch pair):
#
# ==============  =====  ===================================================
# page            pairs  exchanges
# ==============  =====  ===================================================
# ``login``       3      challenge, login, then the browse page's batch
# ``browse``      1      [list_collection_page, get_metadata, annotations]
# ``browse next`` 1      the same, from the cursor
# ``open``        1      open_object (stat, get_metadata, annotations, the
#                        embedded objects' gets and the contents' get or
#                        the container's dead space, run at the server)
# ``query``       1      query_page
# ``ingest form`` 1      [query_page for containers, structural_metadata]
# ``ingest``      3      ingest, [add_metadata x 3], then the open page's 1
# ``extract``     2      extract_metadata, then the form's get_metadata
# ``annotate``    2      add_annotation, then the open page's 1
# ==============  =====  ===================================================
#
# The two call budgets are measured + 15 % like the ones above: a page
# of 100 listing rows (``browse next``: 3,708 calls when pinned; 24,851
# when every row escaped its ten constant anchors again, in three
# exchanges) and an open page (661 in one exchange; 784 and then 762
# in two, 1,139 in four).

EXCHANGES = {
    "login": ["auth_challenge", "auth_login", "<batch>"],
    "browse": ["<batch>"],
    "browse next": ["<batch>"],
    "open": ["open_object"],
    "query": ["query_page"],
    "ingest form": ["<batch>"],
    "ingest": ["ingest", "<batch>", "open_object"],
    "extract": ["extract_metadata", "get_metadata"],
    "annotate": ["add_annotation", "open_object"],
}
PAGE_BUDGET = {"browse next": 4265, "open": 760}


@pytest.fixture(scope="module")
def session():
    """One browser session over a 300-object collection (a full page of
    200 rows, then one of 100): per page, the exchanges the web host
    made and the Python-level calls it took."""
    import re

    from repro.mysrb import Browser, MySrbApp
    from tests.mysrb.test_batched_pages import exchanges

    grid = standard_grid()
    client, coll = grid.curator, f"{grid.home}/Cultures"
    client.mkcoll(coll)
    client.add_metadata(coll, "theme", "avian cultures")
    for i in range(300):
        client.ingest(f"{coll}/notes-{i:03d}.txt", b"wingspan = 1.25\n",
                      data_type="ascii text")
    client.add_metadata(f"{coll}/notes-007.txt", "Creator", "wan",
                        meta_class="type", schema_name="dublin-core")
    app = MySrbApp(grid.fed)
    pages = {}

    def page(name, send, *args):
        out, calls = [], []
        made = exchanges(grid.fed, lambda: calls.append(calls_made_by(
            lambda: out.append(send(*args)))), src=app.www_host)
        assert out[0].code == 200, (name, out[0].status)
        pages[name] = ([method for method, _request in made], calls[0])
        return out[0].text

    def visit(browser):
        page("login", browser.login, "sekar@sdsc", "secret")
        main = page("browse", browser.get, f"/browse?path={coll}")
        more = re.search(r'class="next-page" href="([^"]+)"', main)
        page("browse next", browser.get,
             more.group(1).replace("&amp;", "&"))
        page("open", browser.get, f"/open?path={coll}/notes-007.txt")
        page("query", browser.post, "/query",
             {"scope": coll, "attr1": "Creator", "op1": "=",
              "value1": "wan", "show1": "on"})
        page("ingest form", browser.get, f"/ingest?coll={coll}")
        name = f"zz-upload-{len(pages)}-{browser.cookie[-4:]}.txt"
        page("ingest", browser.post, "/ingest",
             {"coll": coll, "name": name, "content": "wingspan = 2\n",
              "data_type": "ascii text", "resource": "unix-sdsc",
              "container": "(none)", "dc:Title": "Upload",
              "dc:Creator": "bench", "uname1": "session", "uvalue1": "1"})
        page("extract", browser.post, "/metadata",
             {"path": f"{coll}/{name}", "extract_method": "properties"})
        page("annotate", browser.post, "/annotate",
             {"path": f"{coll}/{name}", "ann_type": "comment",
              "text": "checked", "location": ""})

    visit(Browser(app))     # lazy set-up, memos, op plans
    visit(Browser(app))
    return pages


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_a_mysrb_page_makes_exactly_its_exchanges(session, name):
    assert session[name][0] == EXCHANGES[name], (
        f"the {name} page made {len(session[name][0])} exchanges "
        f"{session[name][0]}; it is pinned at {len(EXCHANGES[name])}")


@pytest.mark.parametrize("name", sorted(PAGE_BUDGET))
def test_a_mysrb_page_stays_within_its_call_budget(session, name):
    assert session[name][1] <= PAGE_BUDGET[name], (
        f"the {name} page made {session[name][1]} Python-level calls; "
        f"the budget is {PAGE_BUDGET[name]}")


# -- a streamed query: one request, then a reply per chunk --------------------
# ``iter_query`` over 250 matching objects in pages of 50 is five
# exchanges — each admitted, authorised and audited on its own — but the
# request travels once and the server pushes the chunks behind it: six
# messages where a page-by-page pull makes ten.  The call budget is
# measured + 15 % (8,524 when pinned, 34.1 per row).

STREAM_CHUNKS = 5
STREAM_BUDGET = 9800


@pytest.fixture(scope="module")
def stream():
    from tests.mysrb.test_batched_pages import exchanges

    grid = standard_grid()
    client, home = grid.curator, grid.home
    client.bulk_ingest([{"path": f"{home}/s-{i:03d}.fits", "data": b"\x5a",
                         "metadata": {"RA": f"{i}.5"}} for i in range(250)])
    conditions = [Condition("RA", ">=", "0")]

    def drain():
        return list(client.iter_query(home, conditions, page_size=50))

    drain()                 # lazy set-up, memos, op plans
    rows, calls = [], []
    sent = grid.fed.network.messages_sent
    made = exchanges(grid.fed, lambda: calls.append(
        calls_made_by(lambda: rows.extend(drain()))))
    assert len(rows) == 250
    return made, grid.fed.network.messages_sent - sent, calls[0]


def test_a_streamed_query_is_one_request_and_a_reply_per_chunk(stream):
    made, messages, _calls = stream
    assert [method for method, _request in made] == \
        ["query_page"] * STREAM_CHUNKS
    # the first exchange carries the request; the rest are pushed
    assert [request is not None for _method, request in made] == \
        [True] + [False] * (STREAM_CHUNKS - 1)
    assert messages == STREAM_CHUNKS + 1


def test_a_streamed_query_stays_within_its_call_budget(stream):
    assert stream[2] <= STREAM_BUDGET, (
        f"a {STREAM_CHUNKS}-chunk iter_query drain made {stream[2]} "
        f"Python-level calls; the budget is {STREAM_BUDGET}")
