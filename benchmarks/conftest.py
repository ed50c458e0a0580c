"""Shared configuration for the experiment-reproduction benchmarks.

Every file in this directory regenerates one table or figure of the paper.
The harness prints the same rows / series the paper reports and stores them
as JSON under ``benchmarks/results/``.  Result files follow one naming
convention: ``BENCH_<name>.json`` (:func:`save_results` applies the prefix).

The default configurations are deliberately small (laptop-scale, a few
minutes for the whole directory).  Set ``RAPTOR_BENCH_FULL=1`` for a denser
mantissa sweep closer to the paper's (at a correspondingly longer runtime).
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

FULL_SWEEP = os.environ.get("RAPTOR_BENCH_FULL", "0") not in ("0", "", "false", "False")

#: mantissa widths swept by the error-vs-precision experiments
MANTISSA_POINTS = (
    tuple(range(4, 53, 4)) if FULL_SWEEP else (4, 8, 12, 18, 23, 36, 52)
)


def save_results(name: str, payload) -> Path:
    """Write a benchmark record to ``results/BENCH_<name>.json``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
    return path


def print_table(title: str, headers, rows) -> None:
    from repro.core import format_table

    print(f"\n=== {title} ===")
    print(format_table(headers, rows))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR
