"""Synthetic workloads and canned grid topologies."""

from repro.workload.synth import (
    SynthFile,
    embryo_files,
    hyperspectral_files,
    small_files,
    survey_files,
)
from repro.workload.grids import StandardGrid, standard_grid
from repro.workload.openloop import (
    LoadReport,
    RequestOutcome,
    percentile,
    poisson_arrivals,
    run_open_loop,
)

__all__ = [
    "SynthFile", "survey_files", "embryo_files", "hyperspectral_files",
    "small_files", "StandardGrid", "standard_grid",
    "LoadReport", "RequestOutcome", "percentile", "poisson_arrivals",
    "run_open_loop",
]
