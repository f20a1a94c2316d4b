"""Documentation consistency checks.

DESIGN.md promises an experiment index and EXPERIMENTS.md promises a
section per experiment; these tests keep the promises honest as the
benchmark suite grows.
"""

import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def read(name: str) -> str:
    with open(os.path.join(REPO, name)) as fh:
        return fh.read()


def bench_files():
    bdir = os.path.join(REPO, "benchmarks")
    return sorted(f for f in os.listdir(bdir)
                  if f.startswith("test_") and f.endswith(".py"))


class TestExperimentIndex:
    def test_every_bench_file_in_experiments_md(self):
        text = read("EXPERIMENTS.md")
        for fname in bench_files():
            assert fname in text, \
                f"benchmarks/{fname} missing from EXPERIMENTS.md"

    def test_every_experiment_id_has_bench(self):
        """Each Ek/Fk/Ak id mentioned in EXPERIMENTS.md headings maps to a
        real benchmark file."""
        text = read("EXPERIMENTS.md")
        ids = re.findall(r"^## ([EFA]\d+)", text, flags=re.MULTILINE)
        assert len(ids) >= 13
        files = " ".join(bench_files())
        for exp_id in ids:
            slug = exp_id.lower().replace("f", "fig")   # F1 -> fig1
            assert slug in files, \
                f"{exp_id} has no benchmarks/test_{slug}*.py"

    def test_design_md_confirms_paper_identity(self):
        text = read("DESIGN.md")
        assert "HPDC 2002" in text
        assert "Rajasekar" in text

    def test_design_lists_all_subpackages(self):
        text = read("DESIGN.md")
        src = os.path.join(REPO, "src", "repro")
        packages = sorted(d for d in os.listdir(src)
                          if os.path.isdir(os.path.join(src, d)))
        for pkg in packages:
            assert f"{pkg}/" in text, f"DESIGN.md does not mention {pkg}/"


class TestGridbenchSections:
    """Each ``## G<n>`` section of EXPERIMENTS.md is the compact record
    of one measured change — its claim, one line on what changed and the
    verdict — and links the file that holds the rest: the medians table,
    the full account of what changed, the bench command, per-run tables
    and listings."""

    PARTS = ("* **Claim under test**", "* **What changed**", "* **Verdict")

    def sections(self):
        text = read("EXPERIMENTS.md")
        found = re.findall(r"^## G(\d+) (.*?)(?=^## |\Z)", text,
                           flags=re.MULTILINE | re.DOTALL)
        assert len(found) >= 16
        return found

    def test_every_section_keeps_three_parts(self):
        for n, body in self.sections():
            for part in self.PARTS:
                assert part in body, f"G{n} lost {part!r}"
            assert "\n|---" not in body, \
                f"G{n}: the medians table lives in its listing file"

    def test_every_section_links_its_listing_file(self):
        for n, body in self.sections():
            rel = f"benchmarks/output/gridbench/G{n}.md"
            assert f"]({rel})" in body, f"G{n} does not link {rel}"
            assert os.path.isfile(os.path.join(REPO, rel)), rel

    def test_every_listing_holds_its_medians_table(self):
        for n, _body in self.sections():
            listing = read(f"benchmarks/output/gridbench/G{n}.md")
            assert "| workload | metric |" in listing, \
                f"G{n}.md has no medians table"


class TestDocSize:
    """DESIGN.md describes each subsystem once, as it is; EXPERIMENTS.md
    keeps a compact record per experiment.  Per-change history belongs
    in CHANGES.md and the listing files, so the two stop regrowing
    silently: a change that needs more lines raises the number here, in
    its own diff."""

    CEILINGS = {"DESIGN.md": 897, "EXPERIMENTS.md": 1_947}

    @pytest.mark.parametrize("name", sorted(CEILINGS))
    def test_no_longer_than_its_ceiling(self, name):
        lines = read(name).count("\n")
        assert lines <= self.CEILINGS[name], \
            f"{name} is {lines} lines: say it once, or raise its ceiling"


class TestReadme:
    def test_examples_listed(self):
        text = read("README.md")
        edir = os.path.join(REPO, "examples")
        for fname in os.listdir(edir):
            if fname.endswith(".py"):
                assert f"examples/{fname}" in text, \
                    f"README.md does not list examples/{fname}"

    def test_canonical_commands_present(self):
        text = read("README.md")
        assert "pip install -e ." in text
        assert "pytest tests/" in text
        assert "pytest benchmarks/ --benchmark-only" in text


class TestReadmeKnobTable:
    """README's "Performance knobs" table is generated from
    ``Federation``'s docstring and signatures (``tools/gendocs.py``;
    ``tests/integration/test_gendocs.py`` fails when it drifts); what is
    written by hand around it must not promise a serial opt-in."""

    def section(self) -> str:
        return read("README.md").split("### Performance knobs")[1] \
            .split("\n## ")[0]

    def test_opening_does_not_promise_opt_in_serial_behaviour(self):
        opening = self.section().split("|")[0].lower()
        assert "opt-in" not in opening
        assert "serial" not in opening


class TestExamplesRunnable:
    @pytest.mark.parametrize("script", [
        "quickstart.py", "avian_culture.py", "persistent_archive.py",
        "cross_zone.py", "scommand_session.py", "sky_survey.py",
    ])
    def test_example_runs_clean(self, script):
        import subprocess
        import sys
        result = subprocess.run(
            [sys.executable, os.path.join(REPO, "examples", script)],
            capture_output=True, timeout=300)
        assert result.returncode == 0, result.stderr.decode()[-2000:]
