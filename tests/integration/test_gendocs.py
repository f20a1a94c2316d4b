"""The doc tables that restate the code are generated, and diffed.

``tools/gendocs.py`` rewrites each block between ``<!-- gendocs:NAME -->``
markers from the code; with ``--check`` it writes nothing and exits 1
with a diff when a block has drifted.  Here it must pass on the docs as
committed, and fail on a copy of them with one cell of any block edited
by hand.
"""

import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "gendocs.py"
#: block name -> the doc that holds it
BLOCKS = {"ops": "DESIGN.md", "knobs": "README.md"}


def check(*files):
    return subprocess.run([sys.executable, str(TOOL), "--check",
                           *map(str, files)],
                          capture_output=True, text=True, timeout=300)


def block(text: str, name: str) -> str:
    return re.search(rf"<!-- gendocs:{name} -->\n(.*?)<!-- /gendocs:{name} -->",
                     text, re.DOTALL).group(1)


def test_generated_blocks_match_the_code():
    result = check()
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_a_hand_edit_of_a_generated_block_fails_the_check(name, tmp_path):
    doc = tmp_path / BLOCKS[name]
    text = (ROOT / BLOCKS[name]).read_text()
    body = block(text, name)
    row = body.splitlines()[2]                  # the first row under the rule
    cells = row.split("|")
    cells[2] = cells[2].rstrip() + " (edited) "
    doc.write_text(text.replace(body, body.replace(row, "|".join(cells), 1)))
    result = check(doc)
    assert result.returncode == 1
    assert "(edited)" in result.stdout
    doc.write_text(text)
    assert check(doc).returncode == 0


def test_the_op_table_has_one_row_per_registered_op():
    spec = importlib.util.spec_from_file_location(
        "surfaces", ROOT / "tools" / "surfaces.py")
    surfaces = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(surfaces)
    rows = block((ROOT / "DESIGN.md").read_text(), "ops").splitlines()[2:]
    ops = [re.match(r"\| `(\w+)` \|", row).group(1) for row in rows]
    assert len(ops) == len(set(ops)) == len(surfaces.OPS)
    assert set(ops) == surfaces.OPS
