"""A row the table refuses frees its path for a later item of its batch.

``Mcat.create_objects`` claims each item's path as it checks the batch,
so a later item asking for the same path fails.  When the table then
refuses the earlier item's row (a column of the wrong type), the path
was never taken: the later item gets it, as it would have one create at
a time.
"""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import AlreadyExists, DatabaseError
from repro.mcat.catalog import Mcat
from repro.workload import standard_grid
from tests.invariants import check_invariants

OWNER = "sekar@sdsc"
COLL = "/demozone/home"
#: where the grids ingest
DROP = "/demozone/drop"


def test_a_bare_catalog_gives_the_path_to_the_later_item():
    mcat = Mcat()
    mcat.create_collection(COLL, OWNER, now=0.0)
    got = mcat.create_objects([
        {"path": f"{COLL}/x", "kind": "data", "data_type": 5},
        {"path": f"{COLL}/x", "kind": "data", "data_type": "ascii text"},
        {"path": f"{COLL}/x", "kind": "data"},
        {"path": f"{COLL}/y", "kind": "data"}], OWNER, now=1.0)
    assert isinstance(got[0], DatabaseError)
    assert isinstance(got[2], AlreadyExists)    # the path went to item 2
    x = mcat.get_object(f"{COLL}/x")
    assert (x["oid"], x["data_type"]) == (got[1], "ascii text")
    assert mcat.get_object(f"{COLL}/y")["oid"] == got[3]
    # as many oids as one create at a time spends, the refused row's too
    assert mcat.ids.peek("oid") == 3


def test_a_refused_row_again_hands_its_path_on():
    mcat = Mcat()
    mcat.create_collection(COLL, OWNER, now=0.0)
    got = mcat.create_objects([
        {"path": f"{COLL}/x", "kind": "data", "data_type": 5},
        {"path": f"{COLL}/x", "kind": "data", "size": "big"},
        {"path": f"{COLL}/x", "kind": "data", "size": 3}], OWNER, now=1.0)
    assert [type(g) for g in got[:2]] == [DatabaseError, DatabaseError]
    assert mcat.get_object(f"{COLL}/x")["size"] == 3


def sharded_grid():
    fed = Federation(zone="demozone", mcat_shards=2, mcat_replicas=1)
    for host in ("hs", "hc"):
        fed.add_host(host)
    fed.add_server("s1", "hs", mcat=True)
    fed.add_fs_resource("disk", "hs")
    fed.default_resource = "disk"
    fed.bootstrap_admin()
    client = SrbClient(fed, "hc", "s1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll(DROP)
    return fed, client


def standard():
    grid = standard_grid()
    grid.admin.mkcoll(DROP)
    return grid.fed, grid.admin


@pytest.mark.parametrize("build", [standard, sharded_grid],
                         ids=["standard", "sharded"])
def test_bulk_ingest_stores_the_item_one_ingest_at_a_time_would(build):
    path = f"{DROP}/p"
    items = [{"path": path, "data": b"a", "data_type": 123},
             {"path": path, "data": b"b", "data_type": "ascii text"}]
    outcomes = []
    for bulk in (True, False):
        fed, client = build()
        if bulk:
            got = client.bulk_ingest(items)
            outcomes.append([r.get("error_type", "ok") for r in got])
        else:
            got = []
            for item in items:
                try:
                    client.ingest(**item)
                    got.append("ok")
                except DatabaseError as exc:
                    got.append(type(exc).__name__)
            outcomes.append(got)
        assert client.get(path) == b"b"
        assert client.stat(path)["data_type"] == "ascii text"
        assert check_invariants(fed) == []
    assert outcomes == [["DatabaseError", "ok"]] * 2
