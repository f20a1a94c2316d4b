"""Unit tests for the five metadata classes, structural metadata, ACL rows,
annotations and audit in MCAT."""

import pytest

from repro.errors import (
    MandatoryMetadataMissing,
    MetadataError,
    NoSuchSchema,
    VocabularyViolation,
)
from repro.mcat import Mcat

OWNER = "sekar@sdsc"


@pytest.fixture
def mcat():
    m = Mcat()
    m.create_collection("/demozone/cultures", OWNER, now=0.0)
    return m


@pytest.fixture
def oid(mcat):
    return mcat.create_object("/demozone/cultures/x", "data", OWNER, now=0.0,
                              data_type="fits image")


class TestUserMetadata:
    def test_add_get(self, mcat, oid):
        mcat.add_metadata("object", oid, "species", "ibis", by=OWNER, now=1.0,
                          units=None)
        rows = mcat.get_metadata("object", oid)
        assert rows[0]["attr"] == "species" and rows[0]["value"] == "ibis"

    def test_triplets_have_units(self, mcat, oid):
        mcat.add_metadata("object", oid, "wingspan", "1.2", by=OWNER, now=0.0,
                          units="m")
        assert mcat.get_metadata("object", oid)[0]["units"] == "m"

    def test_numeric_mirror_populated(self, mcat, oid):
        mcat.add_metadata("object", oid, "mag", "4.5", by=OWNER, now=0.0)
        assert mcat.get_metadata("object", oid)[0]["value_num"] == 4.5

    def test_non_numeric_mirror_null(self, mcat, oid):
        mcat.add_metadata("object", oid, "name", "ibis", by=OWNER, now=0.0)
        assert mcat.get_metadata("object", oid)[0]["value_num"] is None

    def test_no_limit_on_count(self, mcat, oid):
        for i in range(50):
            mcat.add_metadata("object", oid, f"attr{i}", str(i), by=OWNER,
                              now=0.0)
        assert len(mcat.get_metadata("object", oid)) == 50

    def test_multivalued_attribute_allowed(self, mcat, oid):
        mcat.add_metadata("object", oid, "tag", "a", by=OWNER, now=0.0)
        mcat.add_metadata("object", oid, "tag", "b", by=OWNER, now=0.0)
        assert len(mcat.get_metadata("object", oid)) == 2

    def test_empty_attr_rejected(self, mcat, oid):
        with pytest.raises(MetadataError):
            mcat.add_metadata("object", oid, "", "v", by=OWNER, now=0.0)

    def test_bad_target_kind(self, mcat, oid):
        with pytest.raises(MetadataError):
            mcat.add_metadata("resource", oid, "a", "v", by=OWNER, now=0.0)

    def test_update(self, mcat, oid):
        mid = mcat.add_metadata("object", oid, "k", "v1", by=OWNER, now=0.0)
        mcat.update_metadata(mid, "2.5", units="kg")
        row = mcat.get_metadata("object", oid)[0]
        assert (row["value"], row["value_num"], row["units"]) == \
            ("2.5", 2.5, "kg")

    def test_delete(self, mcat, oid):
        mid = mcat.add_metadata("object", oid, "k", "v", by=OWNER, now=0.0)
        mcat.delete_metadata(mid)
        assert mcat.get_metadata("object", oid) == []

    def test_collection_metadata(self, mcat):
        cid = mcat.get_collection("/demozone/cultures")["cid"]
        mcat.add_metadata("collection", cid, "theme", "avian", by=OWNER,
                          now=0.0)
        assert mcat.get_metadata("collection", cid)[0]["value"] == "avian"


class TestTypeOrientedMetadata:
    def test_dublin_core_globally_available(self, mcat, oid):
        mid = mcat.add_metadata("object", oid, "Title", "Avian notes",
                                by=OWNER, now=0.0, meta_class="type",
                                schema_name="dublin-core")
        row = mcat.get_metadata("object", oid, meta_class="type")[0]
        assert row["schema_name"] == "dublin-core"

    def test_unknown_schema_rejected(self, mcat, oid):
        with pytest.raises(NoSuchSchema):
            mcat.add_metadata("object", oid, "Title", "x", by=OWNER, now=0.0,
                              meta_class="type", schema_name="nope")

    def test_unknown_element_rejected(self, mcat, oid):
        with pytest.raises(MetadataError):
            mcat.add_metadata("object", oid, "NotAnElement", "x", by=OWNER,
                              now=0.0, meta_class="type",
                              schema_name="dublin-core")

    def test_filter_by_class(self, mcat, oid):
        mcat.add_metadata("object", oid, "k", "v", by=OWNER, now=0.0)
        mcat.add_metadata("object", oid, "Title", "t", by=OWNER, now=0.0,
                          meta_class="type", schema_name="dublin-core")
        assert len(mcat.get_metadata("object", oid, meta_class="user")) == 1
        assert len(mcat.get_metadata("object", oid, meta_class="type")) == 1


class TestCopyMetadata:
    def test_copy_all_classes(self, mcat, oid):
        dst = mcat.create_object("/demozone/cultures/y", "data", OWNER,
                                 now=0.0)
        mcat.add_metadata("object", oid, "k", "v", by=OWNER, now=0.0,
                          units="u")
        mcat.add_metadata("object", oid, "Title", "t", by=OWNER, now=0.0,
                          meta_class="type", schema_name="dublin-core")
        copied = mcat.copy_metadata("object", oid, "object", dst, by=OWNER,
                                    now=1.0)
        assert copied == 2
        rows = mcat.get_metadata("object", dst)
        assert {r["attr"] for r in rows} == {"k", "Title"}
        assert rows[0]["units"] == "u" or rows[1]["units"] == "u"


class TestStructural:
    def test_defaults_applied(self, mcat):
        mcat.define_structural("/demozone/cultures", "culture",
                               default_value="avian")
        effective = mcat.validate_ingest_metadata("/demozone/cultures", {})
        assert effective == {"culture": "avian"}

    def test_mandatory_enforced(self, mcat):
        mcat.define_structural("/demozone/cultures", "curator",
                               mandatory=True)
        with pytest.raises(MandatoryMetadataMissing) as err:
            mcat.validate_ingest_metadata("/demozone/cultures", {})
        assert "curator" in err.value.names

    def test_mandatory_satisfied(self, mcat):
        mcat.define_structural("/demozone/cultures", "curator",
                               mandatory=True)
        eff = mcat.validate_ingest_metadata("/demozone/cultures",
                                            {"curator": "sekar"})
        assert eff["curator"] == "sekar"

    def test_vocabulary_enforced(self, mcat):
        mcat.define_structural("/demozone/cultures", "medium",
                               vocabulary=["image", "movie", "text"])
        with pytest.raises(VocabularyViolation):
            mcat.validate_ingest_metadata("/demozone/cultures",
                                          {"medium": "hologram"})

    def test_vocabulary_allows_listed(self, mcat):
        mcat.define_structural("/demozone/cultures", "medium",
                               vocabulary=["image", "movie"])
        mcat.validate_ingest_metadata("/demozone/cultures",
                                      {"medium": "movie"})

    def test_inherited_from_ancestor(self, mcat):
        # "MetaCore for Cultures" on the parent governs sub-collections
        mcat.create_collection("/demozone/cultures/avian", OWNER, now=0.0)
        mcat.define_structural("/demozone/cultures", "culture",
                               mandatory=True)
        with pytest.raises(MandatoryMetadataMissing):
            mcat.validate_ingest_metadata("/demozone/cultures/avian", {})

    def test_structural_for_lists_requirements(self, mcat):
        mcat.define_structural("/demozone/cultures", "a", comment="why")
        reqs = mcat.structural_for("/demozone/cultures")
        assert reqs[0]["attr"] == "a" and reqs[0]["comment"] == "why"

    def test_unknown_collection_rejected(self, mcat):
        from repro.errors import NoSuchCollection
        with pytest.raises(NoSuchCollection):
            mcat.define_structural("/demozone/ghost", "a")

    def test_empty_name_rejected_before_it_blocks_every_ingest(self, mcat):
        with pytest.raises(MetadataError, match="may not be empty"):
            mcat.define_structural("/demozone/cultures", "",
                                   default_value="x")
        assert mcat.structural_for("/demozone/cultures") == []
        assert mcat.validate_ingest_metadata("/demozone/cultures",
                                             {"a": "b"}) == {"a": "b"}


class TestAnnotations:
    def test_add_and_list(self, mcat, oid):
        mcat.add_annotation("object", oid, "comment", "moore@sdsc",
                            "nice ibis", now=1.0, location="page 3")
        anns = mcat.annotations_for("object", oid)
        assert anns[0]["author"] == "moore@sdsc"
        assert anns[0]["location"] == "page 3"
        assert anns[0]["created_at"] == 1.0

    def test_types_validated(self, mcat, oid):
        with pytest.raises(MetadataError):
            mcat.add_annotation("object", oid, "graffiti", OWNER, "x",
                                now=0.0)

    def test_all_paper_types_accepted(self, mcat, oid):
        for t in ("comment", "rating", "errata", "dialogue", "annotation"):
            mcat.add_annotation("object", oid, t, OWNER, "x", now=0.0)
        assert len(mcat.annotations_for("object", oid)) == 5

    def test_delete(self, mcat, oid):
        aid = mcat.add_annotation("object", oid, "comment", OWNER, "x",
                                  now=0.0)
        mcat.delete_annotation(aid)
        assert mcat.annotations_for("object", oid) == []


class TestAclRows:
    def test_grant_and_list(self, mcat, oid):
        mcat.grant("object", oid, "moore@sdsc", "read")
        grants = mcat.grants_for("object", oid)
        assert grants[0]["permission"] == "read"

    def test_regrant_replaces(self, mcat, oid):
        mcat.grant("object", oid, "moore@sdsc", "read")
        mcat.grant("object", oid, "moore@sdsc", "write")
        grants = mcat.grants_for("object", oid)
        assert len(grants) == 1 and grants[0]["permission"] == "write"

    def test_revoke(self, mcat, oid):
        mcat.grant("object", oid, "moore@sdsc", "read")
        mcat.revoke("object", oid, "moore@sdsc")
        assert mcat.grants_for("object", oid) == []

    def test_bad_permission_rejected(self, mcat, oid):
        with pytest.raises(MetadataError):
            mcat.grant("object", oid, "x@y", "root")


class TestAudit:
    def test_record_and_query(self, mcat):
        mcat.record_audit(1.0, OWNER, "get", "/demozone/cultures/x")
        mcat.record_audit(2.0, "moore@sdsc", "get", "/demozone/cultures/x")
        mcat.record_audit(3.0, OWNER, "delete", "/demozone/cultures/x",
                          ok=False)
        assert len(mcat.audit_query()) == 3
        assert len(mcat.audit_query(principal=OWNER)) == 2
        assert len(mcat.audit_query(action="get")) == 2
        assert len(mcat.audit_query(principal=OWNER, action="get")) == 1

    def test_target_filter(self, mcat):
        mcat.record_audit(1.0, OWNER, "get", "/a")
        mcat.record_audit(1.0, OWNER, "get", "/b")
        assert len(mcat.audit_query(target="/a")) == 1

    def test_failure_recorded(self, mcat):
        mcat.record_audit(1.0, OWNER, "login", OWNER, ok=False)
        assert mcat.audit_query()[0]["ok"] is False
