"""Regression tests for catalog scan-cost fixes.

Two hot paths used to pay O(catalog) where O(result) suffices:

* ``subtree_collections`` scanned the whole collections table per call;
  it now walks the ``parent`` index breadth-first, so the charge tracks
  the subtree, not the catalog.
* the index query plan fetched each candidate with its own charged
  ``get_object_by_id`` call (one QUERY_OVERHEAD per candidate); the
  batch ``get_objects_by_ids`` fetch charges the whole list as one
  catalog operation, which is what E4's plan-cost numbers rely on.
"""

import pytest

from repro.mcat import Mcat
from repro.mcat.query import Condition, search

OWNER = "sekar@sdsc"
ZONE = "demozone"


def build_wide_catalog(m, wide=200, small=3):
    """A tiny target subtree next to a very wide sibling subtree."""
    m.create_collection(f"/{ZONE}/small", OWNER, now=0.0)
    for i in range(small):
        m.create_collection(f"/{ZONE}/small/c{i}", OWNER, now=0.0)
    m.create_collection(f"/{ZONE}/wide", OWNER, now=0.0)
    for i in range(wide):
        m.create_collection(f"/{ZONE}/wide/c{i}", OWNER, now=0.0)
    return m


class TestSubtreeScanCost:
    def test_subtree_listing_charges_subtree_not_catalog(self):
        m = build_wide_catalog(Mcat(zone=ZONE))
        total = len(m.db.table("collections"))
        assert total > 200
        before = m._rows_scanned()
        rows = m.subtree_collections(f"/{ZONE}/small")
        touched = m._rows_scanned() - before
        assert len(rows) == 4
        # BFS over the parent index: a handful of index probes plus the
        # subtree's own rows — nowhere near the 200-row sibling subtree
        assert touched < 40, (
            f"subtree_collections touched {touched} rows for a 4-row "
            f"subtree in a {total}-collection catalog")

    def test_subtree_cost_independent_of_sibling_width(self):
        narrow = build_wide_catalog(Mcat(zone=ZONE), wide=10)
        wide = build_wide_catalog(Mcat(zone=ZONE), wide=400)

        def touched(m):
            before = m._rows_scanned()
            m.subtree_collections(f"/{ZONE}/small")
            return m._rows_scanned() - before

        assert touched(wide) == touched(narrow)

    def test_bfs_returns_deep_nesting_sorted(self):
        m = Mcat(zone=ZONE)
        m.create_collection(f"/{ZONE}/a", OWNER, now=0.0)
        m.create_collection(f"/{ZONE}/a/b", OWNER, now=0.0)
        m.create_collection(f"/{ZONE}/a/b/c", OWNER, now=0.0)
        m.create_collection(f"/{ZONE}/a/z", OWNER, now=0.0)
        got = [r["path"] for r in m.subtree_collections(f"/{ZONE}/a")]
        assert got == [f"/{ZONE}/a", f"/{ZONE}/a/b", f"/{ZONE}/a/b/c",
                       f"/{ZONE}/a/z"]


class TestIndexPlanBatchFetch:
    def build(self, matching):
        m = Mcat(zone=ZONE)
        m.create_collection(f"/{ZONE}/c", OWNER, now=0.0)
        for i in range(matching):
            oid = m.create_object(f"/{ZONE}/c/hit{i}", "data", OWNER,
                                  now=0.0)
            m.add_metadata("object", oid, "flag", "yes", by=OWNER, now=0.0)
        for i in range(50):
            oid = m.create_object(f"/{ZONE}/c/miss{i}", "data", OWNER,
                                  now=0.0)
            m.add_metadata("object", oid, "flag", "no", by=OWNER, now=0.0)
        return m

    def ops_for_search(self, m):
        before = m.obs.metrics.total("mcat.ops")
        r = search(m, f"/{ZONE}/c", [Condition("flag", "=", "yes")],
                   strategy="index")
        return m.obs.metrics.total("mcat.ops") - before, len(r)

    def test_candidate_fetch_is_one_charged_op(self):
        few_ops, few_n = self.ops_for_search(self.build(5))
        many_ops, many_n = self.ops_for_search(self.build(60))
        assert few_n == 5 and many_n == 60
        # the E4 plan cost: op count must not grow with the candidate
        # list (the batch fetch charges once, not once per id)
        assert many_ops == few_ops
        assert few_ops <= 3

    def test_batch_lookup_skips_unknown_ids(self):
        m = self.build(2)
        oids = [o["oid"] for o in m.objects_in_collection(f"/{ZONE}/c")]
        got = m.get_objects_by_ids(oids + [987654])
        assert len(got) == len(oids)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_batch_lookup_keeps_the_callers_order(self, shards):
        """As one partition answers — not grouped by shard; unknown ids
        are still skipped, a repeated id is still answered twice."""
        from repro.mcat import ShardedMcat
        m = ShardedMcat(zone="z", shards=shards)
        oids = []
        for name in "abcdef":
            m.create_collection(f"/z/{name}", OWNER, now=0.0)
            oids.append(m.create_object(f"/z/{name}/obj", "data", OWNER,
                                        now=0.0))
        assert len({m.shard_of_path(f"/z/{name}") for name in "abcdef"}) \
            == shards
        assert [r["oid"] for r in m.get_objects_by_ids(oids)] == oids
        asked = [oids[3], 9999, oids[0], oids[5], oids[1], oids[0]]
        assert [r["oid"] for r in m.get_objects_by_ids(asked)] \
            == [oid for oid in asked if oid != 9999]

    def test_batch_lookup_single_charge(self):
        m = self.build(10)
        oids = [o["oid"] for o in m.objects_in_collection(f"/{ZONE}/c")]
        before = m.obs.metrics.total("mcat.ops")
        rows = m.get_objects_by_ids(oids)
        assert m.obs.metrics.total("mcat.ops") == before + 1
        assert [r["oid"] for r in rows] == oids

    def test_index_and_scan_plans_agree_after_batching(self):
        m = self.build(7)
        idx = search(m, f"/{ZONE}/c", [Condition("flag", "=", "yes")],
                     strategy="index")
        scan = search(m, f"/{ZONE}/c", [Condition("flag", "=", "yes")],
                      strategy="scan")
        assert sorted(idx.rows) == sorted(scan.rows)


class TestNoCatalogOpPerResultRow:
    """The N+1 rail, one level up from :class:`TestIndexPlanBatchFetch`:
    through ``fed.rpc.call``, the number of charged catalog ops a
    ``query``, ``query_page`` or ``ls_page`` makes is the same for 10 and
    for 1,000 result rows — for the owner, whom ownership decides, and
    for a reader whose only right is a grant inherited from the parent
    collection — on a one-partition and on a four-way sharded catalog.

    (On the parent commit the owner paid one ``find_object`` per result
    row, and per scanned object one ``get_metadata``; the reader paid a
    ``find_object``, a ``grants_for`` and a collection-chain walk per
    row.)
    """

    COLL = f"/{ZONE}/home/rail"

    def grid(self, rows, shards):
        from repro.core import Federation, SrbClient
        fed = Federation(zone=ZONE, mcat_shards=shards)
        fed.add_host("sdsc")
        fed.add_server("srb1", "sdsc", mcat=True)
        fed.add_fs_resource("unix-sdsc", "sdsc")
        fed.default_resource = "unix-sdsc"
        fed.bootstrap_admin()
        fed.add_user(OWNER, "pw")
        fed.add_user("reader@sdsc", "pw")
        m = fed.mcat
        m.create_collection(f"/{ZONE}/home", OWNER, now=0.0)
        cid = m.create_collection(self.COLL, OWNER, now=0.0)
        m.grant("collection", cid, "reader@sdsc", "read")
        oids = m.create_objects(
            [{"path": f"{self.COLL}/f{i:04d}", "kind": "data"}
             for i in range(rows)], OWNER, now=0.0)
        m.add_metadata_bulk(
            [{"target_kind": "object", "target_id": oid, "attr": attr,
              "value": value}
             for oid in oids for attr, value in (("flag", "yes"),
                                                 ("size", "7"))],
            by=OWNER, now=0.0)
        clients = {}
        for who in (OWNER, "reader@sdsc"):
            clients[who] = SrbClient(fed, "sdsc", "srb1", who, "pw")
            clients[who].login()
        return fed, clients

    def ops_of(self, fed, call):
        before = fed.obs.metrics.total("mcat.ops")
        out = call()
        return fed.obs.metrics.total("mcat.ops") - before, out

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("who", [OWNER, "reader@sdsc"])
    def test_ops_do_not_grow_with_the_rows(self, who, shards):
        conditions = [Condition("flag", "=", "yes"),
                      Condition("size", "<", "9")]
        counted = {}
        for rows in (10, 1000):
            fed, clients = self.grid(rows, shards)
            client = clients[who]
            calls = {
                "query": lambda: client.query(self.COLL, conditions).rows,
                "query scan": lambda: client.query(
                    self.COLL, conditions, strategy="scan").rows,
                "query_page": lambda: client.query_page(
                    self.COLL, conditions, limit=rows)["rows"],
                "ls_page": lambda: client.ls_page(
                    self.COLL, limit=rows)["objects"],
            }
            for name, call in calls.items():
                ops, out = self.ops_of(fed, call)
                assert len(out) == rows, name
                counted.setdefault(name, []).append(ops)
        for name, (few, many) in counted.items():
            assert few == many, (
                f"{name} as {who}: {few} catalog ops for 10 rows, "
                f"{many} for 1,000")
        # and few they are: the scope's ACL (2 ops), the probes, the
        # object rows, their metadata, the audit row; the reader's grants
        # are looked up along the four-deep collection chain (8 ops) for
        # the scope and once more for the one collection the rows are in
        assert counted["query"][0] == (6 if who == OWNER else 22)
