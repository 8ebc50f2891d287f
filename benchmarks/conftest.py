"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper: it computes
the series under ``pytest-benchmark`` timing, prints the rows (visible
with ``pytest benchmarks/ --benchmark-only -s``) and writes
``results/<experiment>.csv`` for external plotting.  EXPERIMENTS.md
records the paper-vs-measured comparison for every experiment id.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import format_table, write_csv

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture
def emit():
    """Print a table and persist it as CSV under results/."""

    def _emit(experiment_id: str, title: str, headers, rows):
        print()
        print(format_table(headers, rows, title=f"[{experiment_id}] {title}"))
        path = write_csv(RESULTS_DIR / f"{experiment_id.lower()}.csv", headers, rows)
        print(f"-> {path}")
        return path

    return _emit
