"""Tests for synthetic workload generators and canned grids."""

import pytest

from repro.mcat import Condition
from repro.workload import (
    embryo_files,
    hyperspectral_files,
    populate,
    small_files,
    standard_grid,
    survey_files,
)


class TestGenerators:
    def test_survey_deterministic(self):
        a = [f.content for f in survey_files(5, seed=1)]
        b = [f.content for f in survey_files(5, seed=1)]
        assert a == b

    def test_survey_seed_changes_content(self):
        a = [f.content for f in survey_files(3, seed=1)]
        b = [f.content for f in survey_files(3, seed=2)]
        assert a != b

    def test_survey_headers_extractable(self):
        from repro.mcat.extraction import ExtractionRegistry
        reg = ExtractionRegistry()
        f = next(iter(survey_files(1)))
        triples = {t.attr: t.value for t in
                   reg.extract("fits image", "fits header", f.content)}
        assert triples["RA"] == f.attributes["RA"]
        assert triples["JMAG"] == f.attributes["JMAG"]

    def test_survey_attributes_in_range(self):
        for f in survey_files(50):
            assert 0.0 <= float(f.attributes["RA"]) <= 360.0
            assert -90.0 <= float(f.attributes["DEC"]) <= 90.0

    def test_embryo_has_sidecar(self):
        f = next(iter(embryo_files(1)))
        assert f.sidecar is not None
        assert b"Stage:" in f.sidecar
        assert f.data_type == "dicom image"

    def test_embryo_sidecar_extractable(self):
        from repro.mcat.extraction import ExtractionRegistry
        reg = ExtractionRegistry()
        f = next(iter(embryo_files(1)))
        triples = {t.attr: t.value for t in
                   reg.extract("dicom image", "dicom header", f.sidecar)}
        assert triples["Stage"] == f.attributes["Stage"]

    def test_hyperspectral_properties_extractable(self):
        from repro.mcat.extraction import ExtractionRegistry
        reg = ExtractionRegistry()
        f = next(iter(hyperspectral_files(1)))
        triples = {t.attr: t.value for t in
                   reg.extract("ascii text", "properties",
                               f.content[:200])}
        assert triples["site"] == f.attributes["site"]

    def test_small_files_uniform(self):
        files = list(small_files(10, size=128))
        assert len(files) == 10
        assert all(len(f.content) == 128 for f in files)

    def test_names_unique(self):
        names = [f.name for f in survey_files(100)]
        assert len(set(names)) == 100


class TestStandardGrid:
    def test_topology_matches_paper_example(self):
        g = standard_grid()
        assert g.fed.resources.is_logical("logrsrc1")
        members = [r.name for r in g.fed.resources.resolve("logrsrc1")]
        assert members == ["unix-sdsc", "hpss-caltech"]

    def test_curator_ready_to_work(self):
        g = standard_grid()
        g.curator.ingest(f"{g.home}/x.txt", b"x")
        assert g.curator.get(f"{g.home}/x.txt") == b"x"

    def test_populate_attaches_metadata(self):
        g = standard_grid()
        n = populate(g.curator, g.home, survey_files(3),
                     resource="unix-sdsc")
        assert n == 3
        r = g.curator.query(g.home, [Condition("SURVEY", "=", "2MASS")])
        assert len(r.rows) == 3

    def test_populate_ingests_sidecars(self):
        g = standard_grid()
        populate(g.curator, g.home, embryo_files(2), resource="unix-sdsc")
        listing = g.curator.ls(g.home)
        names = [o["name"] for o in listing["objects"]]
        assert sum(1 for n in names if n.endswith(".hdr")) == 2

    def test_selection_policy_plumbed(self):
        g = standard_grid(placement="round-robin")
        assert g.fed.placement.policy_name == "round-robin"
