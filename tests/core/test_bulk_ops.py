"""The bulk data plane: server-side bulk_ingest / bulk_get /
bulk_query_metadata, and the ingest fixes that rode along with it
(physical rollback, batched metadata writes).
"""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import NoSuchObject, NoSuchResource, StorageFull
from tests.probes import counter


@pytest.fixture
def fedpair():
    """A federation with a logical resource whose second member is tiny,
    so a large-enough ingest fails mid-loop after the first write."""
    fed = Federation(zone="demozone")
    fed.add_host("sdsc")
    fed.add_server("srb1", "sdsc", mcat=True)
    fed.add_fs_resource("big", "sdsc")
    fed.add_fs_resource("tiny", "sdsc", capacity_bytes=100)
    fed.add_logical_resource("lr", ["big", "tiny"])
    fed.default_resource = "big"
    fed.bootstrap_admin()
    client = SrbClient(fed, "sdsc", "srb1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll("/demozone/home")
    client.mkcoll("/demozone/home/srbadmin")
    return fed, client


@pytest.fixture
def home(tiny_admin):
    tiny_admin.mkcoll("/demozone/home")
    tiny_admin.mkcoll("/demozone/home/srbadmin")
    return "/demozone/home/srbadmin"


class TestIngestRollback:
    def test_failed_logical_ingest_leaves_no_orphan_bytes(self, fedpair):
        """Regression: a mid-loop failure on a logical resource rolled
        back the catalog rows but left the file already written on the
        first member's driver — orphaned bytes no catalog row points to."""
        fed, client = fedpair
        big = fed.resources.physical("big").driver
        before = big.used_bytes()
        with pytest.raises(StorageFull):
            client.ingest("/demozone/home/srbadmin/blob.dat", b"x" * 4096,
                          resource="lr")
        assert big.used_bytes() == before
        assert client.stat("/demozone/home/srbadmin") is not None  # intact
        with pytest.raises(Exception):
            client.stat("/demozone/home/srbadmin/blob.dat")

    def test_successful_logical_ingest_unaffected(self, fedpair):
        fed, client = fedpair
        oid = client.ingest("/demozone/home/srbadmin/small.dat", b"x" * 10,
                            resource="lr")
        assert oid
        assert client.get("/demozone/home/srbadmin/small.dat") == b"x" * 10


class TestIngestMetadataBatched:
    def test_one_catalog_op_per_metadata_block(self, tiny_fed, tiny_admin, home):
        """The per-attribute ``add_metadata`` loop in ingest became one
        ``add_metadata_bulk`` call: ingest cost in ``mcat.ops`` is flat
        in the number of attributes, exactly one op above a bare ingest."""
        m = tiny_fed.mcat_server.mcat.obs.metrics

        before = counter(m, "mcat.ops")
        tiny_admin.ingest(f"{home}/bare.dat", b"x")
        bare_cost = counter(m, "mcat.ops") - before

        before = counter(m, "mcat.ops")
        tiny_admin.ingest(f"{home}/one.dat", b"x", metadata={"a": "1"})
        one_cost = counter(m, "mcat.ops") - before

        before = counter(m, "mcat.ops")
        tiny_admin.ingest(f"{home}/many.dat", b"x",
                          metadata={f"a{i}": str(i) for i in range(8)})
        many_cost = counter(m, "mcat.ops") - before

        assert one_cost == bare_cost + 1
        assert many_cost == one_cost


class TestBulkIngest:
    def test_results_aligned_and_readable(self, tiny_admin, home):
        items = [{"path": f"{home}/b{i}.dat", "data": b"%d" % i}
                 for i in range(6)]
        results = tiny_admin.bulk_ingest(items)
        assert [r["path"] for r in results] == [i["path"] for i in items]
        assert all("oid" in r for r in results)
        for i in range(6):
            assert tiny_admin.get(f"{home}/b{i}.dat") == b"%d" % i

    def test_catalog_state_matches_individual_ingests(self):
        def build(bulk):
            fed = Federation(zone="demozone")
            fed.add_host("sdsc")
            fed.add_server("srb1", "sdsc", mcat=True)
            fed.add_fs_resource("unix-sdsc", "sdsc")
            fed.default_resource = "unix-sdsc"
            fed.bootstrap_admin()
            c = SrbClient(fed, "sdsc", "srb1", "srbadmin@sdsc", "hunter2")
            c.login()
            c.mkcoll("/demozone/home")
            c.mkcoll("/demozone/home/srbadmin")
            items = [{"path": f"/demozone/home/srbadmin/f{i}.dat",
                      "data": b"D%d" % i, "metadata": {"idx": str(i)}}
                     for i in range(5)]
            if bulk:
                out = c.bulk_ingest(items)
                assert all("oid" in r for r in out)
            else:
                for it in items:
                    c.ingest(it["path"], it["data"],
                             metadata=it["metadata"])
            mcat = fed.mcat_server.mcat
            state = []
            for it in items:
                obj = mcat.get_object(it["path"])
                reps = [(r["replica_num"], r["resource"], r["size"])
                        for r in mcat.replicas(obj["oid"])]
                md = sorted((m["attr"], m["value"], m["meta_class"])
                            for m in mcat.get_metadata("object", obj["oid"]))
                state.append((it["path"], obj["kind"], obj["size"],
                              obj["checksum"], obj["owner"], reps, md))
            return state

        assert build(bulk=True) == build(bulk=False)

    def test_control_plane_messages_constant_in_n(self, tiny_fed,
                                                  tiny_admin, home):
        net = tiny_fed.network
        # measured on a warm session: the first touch of the resource
        # pays one open probe whatever the batch size
        tiny_admin.ingest(f"{home}/warm.dat", b"x")

        before = net.messages_sent
        tiny_admin.bulk_ingest([{"path": f"{home}/s{i}.dat", "data": b"x"}
                                for i in range(4)])
        small = net.messages_sent - before

        before = net.messages_sent
        tiny_admin.bulk_ingest([{"path": f"{home}/l{i}.dat", "data": b"x"}
                                for i in range(40)])
        large = net.messages_sent - before

        assert small == large          # O(1) round trips in batch size

    def test_per_item_failures_isolated(self, tiny_admin, home):
        tiny_admin.ingest(f"{home}/taken.dat", b"x")
        results = tiny_admin.bulk_ingest([
            {"path": f"{home}/ok1.dat", "data": b"a"},
            {"path": f"{home}/taken.dat", "data": b"b"},
            {"path": "/demozone/home/nobody/x.dat", "data": b"c"},
            {"path": f"{home}/ok2.dat", "data": b"d"},
        ])
        assert "oid" in results[0] and "oid" in results[3]
        assert results[1]["error_type"] == "AlreadyExists"
        assert results[2]["error_type"] == "NoSuchCollection"
        assert tiny_admin.get(f"{home}/taken.dat") == b"x"  # untouched

    def test_a_path_repeated_past_the_path_memos_fails_only_its_item(
            self, tiny_admin, home):
        """A batch longer than the path memos hold (``SPLIT_CACHE_SIZE``)
        that names a path again after that many other paths: the later
        item fails alone as taken, and the rest land."""
        from repro.util.paths import SPLIT_CACHE_SIZE
        again = f"{home}/again.dat"
        items = [{"path": again, "data": b"a"}] + [
            {"path": f"{home}/f{i:05d}.dat", "data": b"b"}
            for i in range(SPLIT_CACHE_SIZE + 1)] + [
            {"path": again, "data": b"c"}]
        results = tiny_admin.bulk_ingest(items)
        assert results[-1]["error_type"] == "AlreadyExists"
        assert all("oid" in r for r in results[:-1])
        assert tiny_admin.get(again) == b"a"

    def test_a_row_the_catalog_refuses_fails_alone(self, tiny_admin, home):
        """The catalog inserts a batch's object rows as one group; a row
        its table refuses (a data type that is not text) still fails only
        its own item, spends its oid, and a repeated path fails the
        later item."""
        results = tiny_admin.bulk_ingest([
            {"path": f"{home}/r0.dat", "data": b"a"},
            {"path": f"{home}/r1.dat", "data": b"b", "data_type": 5},
            {"path": f"{home}/r2.dat", "data": b"c"},
            {"path": f"{home}/r0.dat", "data": b"d"},
        ])
        assert results[1]["error_type"] == "DatabaseError"
        assert results[3]["error_type"] == "AlreadyExists"
        assert results[2]["oid"] == results[0]["oid"] + 2
        assert tiny_admin.get(f"{home}/r0.dat") == b"a"
        assert tiny_admin.get(f"{home}/r2.dat") == b"c"
        with pytest.raises(NoSuchObject):
            tiny_admin.stat(f"{home}/r1.dat")

    def test_bad_resource_fails_whole_batch_cleanly(self, tiny_fed,
                                                    tiny_admin, home):
        count = tiny_fed.mcat_server.mcat.total_objects()
        with pytest.raises(NoSuchResource):
            tiny_admin.bulk_ingest([{"path": f"{home}/x.dat", "data": b"x"}],
                                   resource="no-such-res")
        assert tiny_fed.mcat_server.mcat.total_objects() == count

    def test_item_too_big_rolls_back_only_that_item(self, fedpair):
        fed, client = fedpair
        home = "/demozone/home/srbadmin"
        big = fed.resources.physical("big").driver
        results = client.bulk_ingest([
            {"path": f"{home}/fits1.dat", "data": b"x" * 10},
            {"path": f"{home}/huge.dat", "data": b"x" * 4096},
            {"path": f"{home}/fits2.dat", "data": b"x" * 10},
        ], resource="lr")
        assert "oid" in results[0] and "oid" in results[2]
        assert results[1]["error_type"] == "StorageFull"
        # the failed item's bytes on the first member were rolled back
        assert big.used_bytes() == 20
        assert client.get(f"{home}/fits1.dat") == b"x" * 10

    def test_bulk_ingest_into_container(self, grid):
        client, home = grid.curator, grid.home
        client.create_container(f"{home}/cont", "logrsrc1")
        items = [{"path": f"{home}/m{i}.dat", "data": b"M%d" % i * 50}
                 for i in range(4)]
        results = client.bulk_ingest(items, container=f"{home}/cont")
        assert all("oid" in r for r in results)
        for it in items:
            assert client.get(it["path"]) == it["data"]

    def test_metrics_emitted(self, tiny_fed, tiny_admin, home):
        m = tiny_fed.network.obs.metrics
        tiny_admin.bulk_ingest([{"path": f"{home}/mm{i}.dat", "data": b"x"}
                                for i in range(3)])
        assert counter(m, "bulk.batches", op="ingest") == 1
        assert counter(m, "bulk.items", op="ingest") == 3


class TestBulkGet:
    def test_round_trip(self, tiny_admin, home):
        items = [{"path": f"{home}/g{i}.dat", "data": b"G%d" % i}
                 for i in range(5)]
        tiny_admin.bulk_ingest(items)
        out = tiny_admin.bulk_get([i["path"] for i in items])
        assert [r["data"] for r in out] == [i["data"] for i in items]

    def test_missing_path_isolated(self, tiny_admin, home):
        tiny_admin.ingest(f"{home}/have.dat", b"here")
        out = tiny_admin.bulk_get([f"{home}/have.dat", f"{home}/miss.dat"])
        assert out[0]["data"] == b"here"
        assert out[1]["error_type"] == "NoSuchObject"

    def test_via_container_prefetches_members(self, grid):
        client, home = grid.curator, grid.home
        client.create_container(f"{home}/wset", "logrsrc1")
        items = [{"path": f"{home}/w{i}.dat", "data": b"W%d" % i * 100}
                 for i in range(6)]
        client.bulk_ingest(items, container=f"{home}/wset")
        out = client.bulk_get([i["path"] for i in items],
                              via_container=f"{home}/wset")
        assert [r["data"] for r in out] == [i["data"] for i in items]

    def test_a_failed_delivery_fails_its_item_only(self, grid, monkeypatch):
        """The link to caltech is cut after the server read the far
        file and before its bytes crossed: that item reports the failed
        leg, the near one arrives, and the audit counts only its bytes."""
        fed, admin = grid.fed, grid.admin
        near, far = f"{grid.home}/near.dat", f"{grid.home}/far.dat"
        admin.ingest(near, b"n" * 300, resource="unix-sdsc")
        admin.ingest(far, b"f" * 1000, resource="unix-caltech")
        driver = fed.resources.physical("unix-caltech").driver
        read = driver.read

        def read_then_cut(path, *args, **kwargs):
            data = read(path, *args, **kwargs)
            fed.network.partition("sdsc", "caltech")
            return data
        monkeypatch.setattr(driver, "read", read_then_cut)
        out = admin.bulk_get([near, far])      # from sdsc: no redirect
        assert out[0] == {"path": near, "data": b"n" * 300}
        assert out[1]["path"] == far and "data" not in out[1]
        assert out[1]["error_type"] == "HostUnreachable"
        (audit,) = [e for e in admin.audit_log(action="bulk-get")]
        assert audit["detail"] == "300B"


class TestBulkQueryMetadata:
    def test_values_per_path(self, tiny_admin, home):
        tiny_admin.bulk_ingest(
            [{"path": f"{home}/q{i}.dat", "data": b"x",
              "metadata": {"idx": str(i)}} for i in range(4)])
        out = tiny_admin.bulk_query_metadata(
            [f"{home}/q{i}.dat" for i in range(4)])
        for i, row in enumerate(out):
            assert {(m["attr"], m["value"]) for m in row["metadata"]} \
                == {("idx", str(i))}

    def test_missing_path_isolated(self, tiny_admin, home):
        tiny_admin.ingest(f"{home}/qq.dat", b"x", metadata={"k": "v"})
        out = tiny_admin.bulk_query_metadata(
            [f"{home}/qq.dat", f"{home}/nope.dat"])
        assert out[0]["metadata"][0]["attr"] == "k"
        assert out[1]["error_type"] == "NoSuchObject"

    def test_one_catalog_read_for_n_paths(self, tiny_fed, tiny_admin, home):
        tiny_admin.bulk_ingest(
            [{"path": f"{home}/r{i}.dat", "data": b"x",
              "metadata": {"k": str(i)}} for i in range(6)])
        m = tiny_fed.mcat_server.mcat
        # per-item resolution + ACL checks are charged, but the metadata
        # rows themselves come back in ONE charged block, not six
        ops_before = counter(m.obs.metrics, "mcat.ops")
        tiny_admin.bulk_query_metadata([f"{home}/r{i}.dat"
                                        for i in range(6)])
        bulk_ops = counter(m.obs.metrics, "mcat.ops") - ops_before

        ops_before = counter(m.obs.metrics, "mcat.ops")
        for i in range(6):
            tiny_admin.get_metadata(f"{home}/r{i}.dat")
        loop_ops = counter(m.obs.metrics, "mcat.ops") - ops_before
        assert bulk_ops < loop_ops
