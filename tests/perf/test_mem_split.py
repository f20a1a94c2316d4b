"""``tools/mem_split.py`` prints where a workload's memory is held.

CI runs it on ``catalog_load`` at smoke size, so that a change aimed at
the catalog's memory reads its split off the run.  The split has to be
the program's: the catalog's tables (``src/repro/db/``) are among the
top sites, and no site holds more than was traced.
"""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "mem_split.py"


def test_catalog_load_split_names_the_tables():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "catalog_load",
         "--smoke", "--top", "5"],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    head, _blank, _columns, *sites = proc.stdout.splitlines()
    traced = float(re.search(r": ([\d.,]+) MiB traced", head)[1])
    assert len(sites) == 5
    mib = [float(line.split()[0]) for line in sites]
    assert mib == sorted(mib, reverse=True) and sum(mib) <= traced
    assert any(" src/repro/db/" in line for line in sites), proc.stdout
