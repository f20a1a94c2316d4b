"""Server tests: metadata operations, annotations, queries, audit."""

import pytest

from repro.core import SrbClient
from repro.errors import AccessDenied, MetadataError
from repro.mcat import Condition, DisplayOnly


@pytest.fixture
def guest(grid):
    grid.fed.add_user("guest@sdsc", "pw")
    g = SrbClient(grid.fed, "laptop", "srb1", "guest@sdsc", "pw")
    g.login()
    return g


class TestMetadataOps:
    def test_add_view_update_delete(self, curator, home):
        curator.ingest(f"{home}/x.txt", b"x")
        mid = curator.add_metadata(f"{home}/x.txt", "topic", "grids",
                                   units=None)
        assert curator.get_metadata(f"{home}/x.txt")[0]["value"] == "grids"
        curator.update_metadata(f"{home}/x.txt", mid, "archives")
        assert curator.get_metadata(f"{home}/x.txt")[0]["value"] == "archives"
        curator.delete_metadata(f"{home}/x.txt", mid)
        assert curator.get_metadata(f"{home}/x.txt") == []

    def test_only_owner_adds_user_metadata(self, grid, guest):
        grid.curator.ingest(f"{grid.home}/y.txt", b"x")
        grid.curator.grant(f"{grid.home}/y.txt", "guest@sdsc", "write")
        with pytest.raises(AccessDenied):
            guest.add_metadata(f"{grid.home}/y.txt", "k", "v")

    def test_dublin_core_via_server(self, curator, home):
        curator.ingest(f"{home}/dc.txt", b"x")
        curator.add_metadata(f"{home}/dc.txt", "Title", "My Notes",
                             meta_class="type", schema_name="dublin-core")
        rows = curator.get_metadata(f"{home}/dc.txt", meta_class="type")
        assert rows[0]["attr"] == "Title"

    def test_collection_metadata(self, curator, home):
        curator.add_metadata(home, "theme", "cultures")
        assert curator.get_metadata(home)[0]["value"] == "cultures"

    def test_copy_metadata(self, curator, home):
        curator.ingest(f"{home}/src.txt", b"x")
        curator.ingest(f"{home}/dst.txt", b"y")
        curator.add_metadata(f"{home}/src.txt", "a", "1")
        curator.add_metadata(f"{home}/src.txt", "b", "2")
        assert curator.copy_metadata(f"{home}/src.txt",
                                     f"{home}/dst.txt") == 2
        assert len(curator.get_metadata(f"{home}/dst.txt")) == 2

    def test_extraction_from_object_itself(self, curator, home):
        fits = (b"SIMPLE  = T\nRA      = 10.5\nDEC     = -3.2\nEND\n")
        curator.ingest(f"{home}/img.fits", fits, data_type="fits image")
        n = curator.extract_metadata(f"{home}/img.fits", "fits header")
        assert n >= 3
        md = {m["attr"]: m["value"]
              for m in curator.get_metadata(f"{home}/img.fits")}
        assert md["RA"] == "10.5"

    def test_extraction_from_sidecar(self, curator, home):
        curator.ingest(f"{home}/scan.img", b"\x00\x01", data_type="dicom image")
        curator.ingest(f"{home}/scan.hdr",
                       b"(0018,0015) Stage: gastrula\n",
                       data_type="ascii text")
        n = curator.extract_metadata(f"{home}/scan.img", "dicom header",
                                     sidecar=f"{home}/scan.hdr")
        assert n == 1
        md = curator.get_metadata(f"{home}/scan.img")
        assert md[0]["attr"] == "Stage" and md[0]["value"] == "gastrula"

    def test_sidecar_method_requires_sidecar(self, curator, home):
        curator.ingest(f"{home}/scan2.img", b"\x00", data_type="dicom image")
        with pytest.raises(MetadataError):
            curator.extract_metadata(f"{home}/scan2.img", "dicom header")

    def test_file_based_metadata(self, curator, home):
        curator.ingest(f"{home}/obj.txt", b"x")
        curator.ingest(f"{home}/obj.meta", b"k = v\n")
        curator.add_metadata(f"{home}/obj.txt", "metadata-file",
                             f"{home}/obj.meta", meta_class="file-based")
        rows = curator.get_metadata(f"{home}/obj.txt",
                                    meta_class="file-based")
        assert rows[0]["value"] == f"{home}/obj.meta"


class TestAnnotations:
    def test_reader_can_annotate(self, grid, guest):
        grid.curator.ingest(f"{grid.home}/ann.txt", b"x")
        grid.curator.grant(f"{grid.home}/ann.txt", "guest@sdsc", "read")
        guest.add_annotation(f"{grid.home}/ann.txt", "rating", "5 stars")
        anns = grid.curator.annotations(f"{grid.home}/ann.txt")
        assert anns[0]["author"] == "guest@sdsc"
        assert anns[0]["ann_type"] == "rating"

    def test_non_reader_cannot_annotate(self, grid, guest):
        grid.curator.ingest(f"{grid.home}/priv.txt", b"x")
        with pytest.raises(AccessDenied):
            guest.add_annotation(f"{grid.home}/priv.txt", "comment", "hi")

    def test_annotation_has_timestamp_and_location(self, curator, home):
        curator.ingest(f"{home}/a.txt", b"x")
        curator.add_annotation(f"{home}/a.txt", "errata", "typo on line 3",
                               location="line 3")
        ann = curator.annotations(f"{home}/a.txt")[0]
        assert ann["location"] == "line 3"
        assert ann["created_at"] >= 0


class TestQuery:
    @pytest.fixture
    def data(self, curator, home):
        for i, (species, wingspan) in enumerate(
                [("ibis", "1.1"), ("heron", "1.9"), ("ibis", "1.3")]):
            curator.ingest(f"{home}/bird{i}.jpg", b"img",
                           data_type="dicom image")
            curator.add_metadata(f"{home}/bird{i}.jpg", "species", species)
            curator.add_metadata(f"{home}/bird{i}.jpg", "wingspan", wingspan,
                                 units="m")
        return home

    def test_conjunctive(self, curator, data):
        r = curator.query(data, [Condition("species", "=", "ibis"),
                                 Condition("wingspan", ">", "1.2")])
        assert len(r.rows) == 1

    def test_display_only(self, curator, data):
        r = curator.query(data, [Condition("species", "=", "heron",
                                           display=False),
                                 DisplayOnly("wingspan")])
        assert r.columns == ["path", "wingspan"]
        assert r.rows[0][1] == "1.9"

    def test_results_filtered_by_acl(self, grid, guest, curator, data):
        grid.curator.grant(grid.home, "guest@sdsc", "read")
        grid.curator.ingest(f"{data}/secret.jpg", b"img")
        grid.curator.add_metadata(f"{data}/secret.jpg", "species", "ibis")
        grid.curator.revoke(grid.home, "guest@sdsc")
        # guest can read scope via a narrower grant on one object only
        grid.curator.grant(f"{data}/bird0.jpg", "guest@sdsc", "read")
        grid.curator.grant(grid.home, "guest@sdsc", "read")
        # re-grant scope read but drop object visibility via revoke order:
        # guest sees everything under home now except nothing is hidden;
        # use a second user-owned object to assert filtering of unreadable:
        r = guest.query(data, [Condition("species", "=", "ibis")])
        assert len(r.rows) >= 1   # visible subset, no AccessDenied leak

    @pytest.fixture
    def guestbook(self, grid, guest):
        """A collection the guest owns holding four of the curator's
        birds, of which the guest may read only the last two: owning a
        collection opens it as a query scope, not the objects in it."""
        coll = f"{grid.home}/guestbook"
        grid.fed.mcat.create_collection(coll, "guest@sdsc", now=0.0)
        guest.grant(coll, "sekar@sdsc", "write")
        for i in range(4):
            grid.curator.ingest(f"{coll}/bird{i}.jpg", b"img")
            grid.curator.add_metadata(f"{coll}/bird{i}.jpg", "species",
                                      "ibis")
        for i in (2, 3):
            grid.curator.grant(f"{coll}/bird{i}.jpg", "guest@sdsc", "read")
        return coll

    def test_limit_counts_only_rows_the_caller_may_read(self, guest,
                                                        guestbook):
        # on the parent the ACL filter ran after the limit: the first two
        # matches filled it, were then dropped, and the guest got nothing
        conds = [Condition("species", "=", "ibis")]
        for strategy in ("auto", "scan", "index"):
            r = guest.query(guestbook, conds, limit=2, strategy=strategy)
            assert [row[0] for row in r.rows] == [
                f"{guestbook}/bird2.jpg", f"{guestbook}/bird3.jpg"]
        r = guest.query(guestbook, conds, limit=1)
        assert [row[0] for row in r.rows] == [f"{guestbook}/bird2.jpg"]

    def test_a_page_closes_at_limit_readable_rows(self, guest, guestbook):
        conds = [Condition("species", "=", "ibis")]
        page = guest.query_page(guestbook, conds, limit=1)
        assert [row[0] for row in page["rows"]] == [
            f"{guestbook}/bird2.jpg"]
        assert page["next_cursor"] == f"{guestbook}/bird2.jpg"
        page = guest.query_page(guestbook, conds, limit=1,
                                cursor=page["next_cursor"])
        assert [row[0] for row in page["rows"]] == [
            f"{guestbook}/bird3.jpg"]
        assert page["next_cursor"] is None
        assert [row[0] for row in guest.iter_query(guestbook, conds,
                                                   page_size=1)] == [
            f"{guestbook}/bird2.jpg", f"{guestbook}/bird3.jpg"]

    def test_acl_counters_count_one_per_row_decided(self, grid, guest,
                                                    guestbook):
        access = grid.fed.access
        checks, denials = access.checks, access.denials
        guest.query(guestbook, [Condition("species", "=", "ibis")])
        # the scope, then the four matches; a filtered row is no denial
        assert access.checks - checks == 1 + 4
        assert access.denials == denials

    def test_queryable_attrs_via_server(self, curator, data):
        names = curator.queryable_attrs(data)
        assert {"species", "wingspan"} <= set(names)

    def test_query_scope_needs_read(self, grid, guest):
        with pytest.raises(AccessDenied):
            guest.query(grid.home, [Condition("species", "=", "ibis")])


class TestAudit:
    def test_accesses_recorded(self, grid):
        grid.curator.ingest(f"{grid.home}/a.txt", b"x")
        grid.curator.get(f"{grid.home}/a.txt")
        log = grid.admin.audit_log(action="get")
        assert any(e["target"] == f"{grid.home}/a.txt" for e in log)

    def test_only_sysadmin_reads_audit(self, grid):
        with pytest.raises(AccessDenied):
            grid.curator.audit_log()

    def test_filter_by_principal(self, grid):
        grid.curator.ingest(f"{grid.home}/b.txt", b"x")
        log = grid.admin.audit_log(principal_filter="sekar@sdsc",
                                   action="ingest")
        assert all(e["principal"] == "sekar@sdsc" for e in log)
        assert len(log) >= 1


class TestAclAdministration:
    def test_grant_revoke_cycle(self, grid, guest):
        grid.curator.ingest(f"{grid.home}/g.txt", b"x")
        grid.curator.grant(f"{grid.home}/g.txt", "guest@sdsc", "read")
        assert guest.get(f"{grid.home}/g.txt") == b"x"
        grid.curator.revoke(f"{grid.home}/g.txt", "guest@sdsc")
        with pytest.raises(AccessDenied):
            guest.get(f"{grid.home}/g.txt")

    def test_group_grant_via_server(self, grid, guest):
        grid.fed.users.create_group("team")
        grid.fed.users.add_to_group("team", "guest@sdsc")
        grid.curator.ingest(f"{grid.home}/t.txt", b"x")
        grid.curator.grant(f"{grid.home}/t.txt", "group:team", "read")
        assert guest.get(f"{grid.home}/t.txt") == b"x"

    def test_only_owner_grants(self, grid, guest):
        grid.curator.ingest(f"{grid.home}/o.txt", b"x")
        with pytest.raises(AccessDenied):
            guest.grant(f"{grid.home}/o.txt", "guest@sdsc", "read")

    def test_collection_level_grant(self, grid, guest):
        grid.curator.mkcoll(f"{grid.home}/shared")
        grid.curator.ingest(f"{grid.home}/shared/in.txt", b"x")
        grid.curator.grant(f"{grid.home}/shared", "guest@sdsc", "read")
        assert guest.get(f"{grid.home}/shared/in.txt") == b"x"


class TestNonTextMetadataRefused:
    """A metadata name or value that is not text is bad input, refused
    before a row or a byte exists — not by the catalog's TEXT column
    after the object, its replica and its bytes were made."""

    @pytest.fixture(params=[1, 4], ids=["K=1", "K=4"])
    def owner(self, request):
        from repro.core import Federation
        fed = Federation(mcat_shards=request.param)
        fed.add_host("sdsc")
        fed.add_server("srb1", "sdsc", mcat=True)
        fed.add_fs_resource("unix-sdsc", "sdsc")
        fed.default_resource = "unix-sdsc"
        fed.add_user("sekar@sdsc", "pw")
        fed.mcat.create_collection("/demozone/home", "sekar@sdsc", now=0.0)
        client = SrbClient(fed, "sdsc", "srb1", "sekar@sdsc", "pw")
        client.login()
        return client

    def stored(self, client):
        fed = client.federation
        driver = fed.resources.physical("unix-sdsc").driver
        return fed.mcat.total_objects(), fed.mcat.total_replicas(), \
            driver.bytes_written

    @pytest.mark.parametrize("metadata", [{"RA": 12.5}, {7: "seven"}],
                             ids=["value", "name"])
    def test_ingest_leaves_nothing_behind(self, owner, metadata):
        before = self.stored(owner)
        with pytest.raises(MetadataError):
            owner.ingest("/demozone/home/a.fits", b"x" * 64,
                         metadata=metadata)
        assert not owner.federation.mcat.object_exists(
            "/demozone/home/a.fits")
        assert self.stored(owner) == before

    def test_bulk_ingest_fails_the_item_not_the_batch(self, owner):
        before = self.stored(owner)
        out = owner.bulk_ingest([
            {"path": "/demozone/home/good.fits", "data": b"g" * 64,
             "metadata": {"RA": "12.5"}},
            {"path": "/demozone/home/bad.fits", "data": b"b" * 64,
             "metadata": {"RA": 12.5}}])
        assert "oid" in out[0]
        assert out[1]["error_type"] == "MetadataError"
        assert not owner.federation.mcat.object_exists(
            "/demozone/home/bad.fits")
        objects, replicas, _written = self.stored(owner)
        assert (objects, replicas) == (before[0] + 1, before[1] + 1)
        assert owner.get_metadata("/demozone/home/good.fits")[0]["value"] \
            == "12.5"

    def test_add_metadata_adds_no_row(self, owner):
        owner.ingest("/demozone/home/a.fits", b"x")
        before = self.stored(owner)
        with pytest.raises(MetadataError):
            owner.add_metadata("/demozone/home/a.fits", "RA", 12.5)
        assert owner.get_metadata("/demozone/home/a.fits") == []
        assert self.stored(owner) == before
