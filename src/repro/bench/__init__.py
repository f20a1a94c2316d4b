"""Benchmark harness shared by the experiments in benchmarks/."""

from repro.bench.harness import (
    Measurement,
    ResultTable,
    assert_monotone,
    timed,
)

__all__ = ["Measurement", "ResultTable", "timed", "assert_monotone"]
