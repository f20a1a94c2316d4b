"""Unit tests for metadata extraction methods + Dublin Core schemas."""

import pytest

from repro.errors import ExtractionError, MetadataError
from repro.mcat.dublin_core import (
    DUBLIN_CORE_ELEMENTS,
    SchemaElement,
    SchemaRegistry,
    dublin_core_schema,
)
from repro.mcat.extraction import ExtractionRegistry


class TestDublinCore:
    def test_fifteen_elements(self):
        assert len(DUBLIN_CORE_ELEMENTS) == 15
        assert "Title" in DUBLIN_CORE_ELEMENTS
        assert "Rights" in DUBLIN_CORE_ELEMENTS

    def test_schema_has_groupings(self):
        dc = dublin_core_schema()
        assert "Title" in dc.groups["content"]
        assert "Creator" in dc.groups["intellectual-property"]

    def test_element_lookup(self):
        dc = dublin_core_schema()
        assert dc.element("Date").name == "Date"
        with pytest.raises(MetadataError):
            dc.element("Nope")

    def test_vocabulary_check(self):
        el = SchemaElement("medium", vocabulary=("image", "text"))
        el.check("image")
        with pytest.raises(MetadataError):
            el.check("hologram")


class TestSchemaRegistry:
    def test_dublin_core_preregistered_globally(self):
        reg = SchemaRegistry()
        assert reg.get("dublin-core") == dublin_core_schema()

    def test_duplicate_rejected(self):
        reg = SchemaRegistry()
        with pytest.raises(MetadataError):
            reg.register(dublin_core_schema())


@pytest.fixture
def reg():
    return ExtractionRegistry()


class TestBuiltinExtractors:
    def test_fits_header(self, reg):
        content = (b"SIMPLE  = T\n"
                   b"RA      = 10.68 / right ascension\n"
                   b"DEC     = 41.27\n"
                   b"END\n")
        triples = reg.extract("fits image", "fits header", content)
        got = {t.attr: t.value for t in triples}
        assert got["RA"] == "10.68"
        assert got["DEC"] == "41.27"

    def test_html_meta(self, reg):
        content = (b"<html><head><title>Avian Cultures</title>"
                   b'<meta name="author" content="sekar">'
                   b"</head></html>")
        got = {t.attr: t.value
               for t in reg.extract("html", "html meta", content)}
        assert got["Title"] == "Avian Cultures"
        assert got["author"] == "sekar"

    def test_xml_sidecar(self, reg):
        content = b"<record><species>ibis</species><region>nile</region></record>"
        got = {t.attr: t.value
               for t in reg.extract("xml metadata", "xml sidecar", content)}
        assert got == {"species": "ibis", "region": "nile"}

    def test_dicom_sidecar(self, reg):
        content = (b"(0010,0010) PatientName: DOE^JANE\n"
                   b"(0008,0060) Modality: MR\n")
        got = {t.attr: t.value
               for t in reg.extract("dicom image", "dicom header", content)}
        assert got["PatientName"] == "DOE^JANE"
        assert got["Modality"] == "MR"

    def test_properties(self, reg):
        got = {t.attr: t.value for t in reg.extract(
            "ascii text", "properties", b"site = sevilleta\nbands: 224\n")}
        assert got == {"site": "sevilleta", "bands": "224"}

    def test_sidecar_flag(self, reg):
        assert reg.get("dicom image", "dicom header").from_sidecar
        assert not reg.get("fits image", "fits header").from_sidecar

    def test_no_matches_is_empty_not_error(self, reg):
        assert reg.extract("fits image", "fits header", b"garbage") == []


class TestRegistration:
    def test_multiple_methods_per_type(self, reg):
        reg.register("alt fits", "fits image",
                     r"EXTRACT /(?P<v>\w+)/ -> 'word' = $v")
        assert [m.name for m in reg._methods["fits image"]] \
            == ["fits header", "alt fits"]

    def test_duplicate_name_rejected(self, reg):
        with pytest.raises(ExtractionError):
            reg.register("fits header", "fits image",
                         r"EXTRACT /x/ -> 'a' = 'b'")

    def test_unknown_method(self, reg):
        with pytest.raises(ExtractionError):
            reg.get("fits image", "nope")

    def test_user_method_choice(self, reg):
        """"One can associate more than one metadata extraction method for
        a data-type and the user is allowed to choose one" — choose the
        alternative and get its output, not the default's."""
        reg.register("first word", "ascii text",
                     r"EXTRACT /^(?P<w>\w+)/ -> 'first' = $w")
        triples = reg.extract("ascii text", "first word", b"hello world")
        assert {t.attr for t in triples} == {"first"}
