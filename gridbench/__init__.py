"""gridbench — the two-clock, per-layer benchmark of the SRB/MCAT/MySRB grid.

Run one workload the way the benchmark driver does::

    python3 -m gridbench --workload small_write --seed 7 --seconds 8 --trace 0

or every workload, with a printed table and ``gridbench/output/results.json``::

    python3 -m gridbench [--seed N] [--runs N] [--smoke] [--trace]

``BENCHMARK.json`` at the repository root declares the workloads, the
end-to-end metrics with their bounds and the per-layer metrics; this
package reads it and refuses to report a metric set that differs from it.
See ``gridbench/README.md`` for what each number means and which layer
metric is predicted to move which end-to-end metric.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` (the program under test).

    The driver runs the benchmark from a bare checkout with no
    ``PYTHONPATH``; importing ``repro`` from anywhere else would measure
    some other copy of the program.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"gridbench: no program to measure at {src}")
    if src not in sys.path:
        sys.path.insert(0, src)


def load_spec() -> dict:
    """The declared workloads, metrics and bounds (``BENCHMARK.json``)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)
