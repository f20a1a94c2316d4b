"""Shared helpers for the experiment benchmarks.

Each ``test_*`` file under ``benchmarks/`` regenerates one experiment
from EXPERIMENTS.md: it builds a grid, sweeps the experiment's
parameters on the virtual clock, prints a paper-style results table, and
asserts the claim's *shape*.  The ``benchmark`` fixture additionally
records wall-clock time for one representative operation so
``pytest benchmarks/ --benchmark-only`` produces a conventional
pytest-benchmark report too.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Optional

from repro.bench import ResultTable
from repro.core import Federation, SrbClient
from repro.mcat import Mcat
from repro.mcat.schema import NUM_INDEX, TEXT_INDEX
from repro.net.simnet import LinkSpec

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def save_artifact(name: str, content: str) -> str:
    """Persist a rendered artifact (figure HTML, table text) for review."""
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, name)
    with open(path, "w") as fh:
        fh.write(content)
    return path


def record_json(experiment: str, headline: Dict[str, object]) -> str:
    """Persist an experiment's headline numbers as ``BENCH_<exp>.json``.

    Multiple tests of one experiment merge into the same file (last
    writer per key wins), so the file accumulates the experiment's full
    headline set; ``tools/bench_summary.py`` aggregates the files into
    ``BENCH_summary.json`` for the CI artifact.
    """
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, f"BENCH_{experiment}.json")
    merged: Dict[str, object] = {}
    if os.path.exists(path):
        with open(path) as fh:
            merged = json.load(fh)
    merged.update(headline)
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def record_table(benchmark, table: ResultTable) -> None:
    """Print the table and attach it to the pytest-benchmark report."""
    table.show()
    save_artifact(table.title.split()[0].lower() + ".txt", table.render())
    if benchmark is not None:
        benchmark.extra_info["table"] = table.render()


def flat_fed(n_hosts: int = 2, default_link: Optional[LinkSpec] = None,
             zone: str = "demozone", **fed_kwargs) -> Federation:
    """A minimal federation: one MCAT server on host0, FS resource per host."""
    kwargs = dict(fed_kwargs)
    if default_link is not None:
        kwargs["default_link"] = default_link
    fed = Federation(zone=zone, **kwargs)
    for i in range(n_hosts):
        fed.add_host(f"h{i}")
    fed.add_server("s0", "h0", mcat=True)
    for i in range(n_hosts):
        fed.add_fs_resource(f"fs{i}", f"h{i}")
    fed.default_resource = "fs0"
    fed.bootstrap_admin()
    return fed


def admin_client(fed: Federation, host: str = "h0",
                 server: str = "s0") -> SrbClient:
    client = SrbClient(fed, host, server, "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll(f"/{fed.zone}/bench")
    return client


def scan_twin(mcat: Mcat) -> Mcat:
    """The scope-scan plan's catalog: a copy of ``mcat`` (its rows and row
    ids, on its clock) without the three indexes the index plan probes
    (``attr`` and the two pair indexes), so every query walks its scope.
    ``target_id`` stays: each object's metadata is read as the walk
    always reads it."""
    twin = Mcat(zone=mcat.zone, clock=mcat.clock)
    for key in ("attr", NUM_INDEX, TEXT_INDEX):
        twin.db.table("metadata").drop_index(key)
    twin.db.restore(mcat.db.snapshot())
    return twin
