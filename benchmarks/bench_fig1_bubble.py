"""Figure 1: Bubble interface evolution under different truncation strategies.

Reproduces the protocol behind Figure 1: the advection and diffusion
operators of the incompressible Navier–Stokes solver are truncated to 4-bit
and 12-bit mantissas with three strategies — everywhere, cutoff at M−1, and
cutoff at M−2 (interface-distance pseudo-AMR levels) — and the interface
evolution is compared against the full-precision run.

Expected shape (paper): aggressive truncation at 4 bits visibly distorts the
interface (artefacts, changed break-up), 12 bits with selective truncation
stays close to the reference, and the cutoff strategies reduce the deviation
relative to truncating everywhere.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.incomp import BubbleConfig
from repro.workloads import BubbleExperimentConfig, BubbleWorkload

from conftest import print_table, save_results

STRATEGIES = ("everywhere", "cutoff-1", "cutoff-2")
MANTISSAS = (4, 12)


def _workload() -> BubbleWorkload:
    return BubbleWorkload(
        BubbleExperimentConfig(
            solver=BubbleConfig(
                nx=28, ny=42, xlim=(-1.0, 1.0), ylim=(-1.0, 2.0),
                reynolds=3500.0, advection_scheme="weno5", reinit_interval=5,
            ),
            max_level=3,
            spin_up_time=0.08,
            truncation_time=0.12,
            snapshot_times=(0.06, 0.12),
            fixed_dt=0.004,
        )
    )


def run_experiment():
    workload = _workload()
    prefix = workload.initial_state()  # one spin-up shared by every run
    reference = workload.run_strategy("none", 52, prefix=prefix)
    records = []
    for man_bits in MANTISSAS:
        for strategy in STRATEGIES:
            result = workload.run_strategy(strategy, man_bits, prefix=prefix)
            records.append(
                {
                    "strategy": strategy,
                    "man_bits": man_bits,
                    "interface_deviation": workload.error(result, reference),
                    "gas_volume": result.info["gas_volume"],
                    "fragments": int(result.info["fragments"]),
                    "centroid_rise": result.info["centroid_rise"],
                    "truncated_ops": result.runtime.ops.truncated,
                }
            )
    ref_record = {
        "strategy": "none",
        "man_bits": 52,
        "interface_deviation": 0.0,
        "gas_volume": reference.info["gas_volume"],
        "fragments": int(reference.info["fragments"]),
        "centroid_rise": reference.info["centroid_rise"],
        "truncated_ops": 0,
    }
    return [ref_record] + records


@pytest.mark.benchmark(group="figure1")
def test_fig1_bubble_truncation_strategies(benchmark):
    records = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [r["strategy"], r["man_bits"], f"{r['interface_deviation']:.3e}", f"{r['gas_volume']:.4f}",
         r["fragments"], f"{r['centroid_rise']:.4f}"]
        for r in records
    ]
    print_table(
        "Figure 1 — Bubble: interface deviation vs truncation strategy",
        ["strategy", "mantissa", "|phi - phi_ref|", "gas volume", "fragments", "centroid rise"],
        rows,
    )
    save_results("fig1_bubble", records)

    by_key = {(r["strategy"], r["man_bits"]): r for r in records}
    # truncation perturbs the interface, more so at 4 bits than at 12 bits
    assert by_key[("everywhere", 4)]["interface_deviation"] > 0
    assert (
        by_key[("everywhere", 12)]["interface_deviation"]
        <= by_key[("everywhere", 4)]["interface_deviation"]
    )
    # selective truncation (cutoffs) is not substantially worse than
    # truncating everywhere at 4 bits (it protects the interface region)
    assert (
        by_key[("cutoff-2", 4)]["interface_deviation"]
        <= by_key[("everywhere", 4)]["interface_deviation"] * 1.5
    )
    # physical sanity: the bubble still rises and gas volume stays positive
    for r in records:
        assert np.isfinite(r["interface_deviation"])
        assert r["gas_volume"] > 0
