"""Figure 7b: Sod — L1 density error and FP-op counts vs mantissa width.

Same protocol as Figure 7a but for the Sod shock tube and cutoffs M−0 … M−2
(the paper's Sod figure has one panel fewer because no leaf blocks remain at
the M−3 level).  Like Figure 7a, the sweep runs through the declarative
engine of :mod:`repro.experiments` with unchanged reported numbers.

Expected shape (paper): the cutoff strategy helps Sod much less than Sedov —
at most about an order of magnitude — because the solution profile stretches
across coarser blocks.
"""
from __future__ import annotations

import pytest

from repro.core import FPFormat
from repro.experiments import PolicySpec, SweepSpec, run_sweep

from conftest import MANTISSA_POINTS, print_table, save_results

CUTOFFS = (0, 1, 2)

SOD_CONFIG = dict(
    nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=3,
    t_end=0.04, rk_stages=1, reconstruction="plm",
)


def run_experiment():
    spec = SweepSpec(
        workloads=["sod"],
        formats=[FPFormat(11, man_bits) for man_bits in MANTISSA_POINTS],
        policies=[PolicySpec.amr_cutoff(cutoff, modules=("hydro",)) for cutoff in CUTOFFS],
        workload_configs={"sod": SOD_CONFIG},
        variables=("dens",),
    )
    result = run_sweep(spec)

    rows = []
    series = {}
    point_iter = iter(result.points)
    for cutoff in CUTOFFS:
        series[cutoff] = []
        for man_bits in MANTISSA_POINTS:
            point = next(point_iter)
            # the grid enumerates policy-major/format-minor; make the row
            # labelling self-checking rather than trusting iteration order
            assert point.policy == f"M-{cutoff}[hydro]", point.policy
            assert point.fmt.man_bits == man_bits, (point.fmt, man_bits)
            error = point.l1("dens")
            gflops_trunc, gflops_full = point.giga_ops
            record = {
                "cutoff": f"M-{cutoff}",
                "man_bits": man_bits,
                "l1_dens": error,
                "truncated_fraction": point.truncated_fraction,
                "giga_ops_truncated": gflops_trunc,
                "giga_ops_full": gflops_full,
                "truncated_bytes": point.mem["truncated"],
                "full_bytes": point.mem["full"],
                "n_leaves": point.info["n_leaves"],
            }
            series[cutoff].append(record)
            rows.append(
                [f"M-{cutoff}", man_bits, f"{error:.3e}", f"{point.truncated_fraction:.1%}",
                 f"{gflops_trunc:.4f}", f"{gflops_full:.4f}"]
            )
    # wall-clock of the sweep on the current kernel plane (the reference
    # task runs fused under the default "auto"), so the
    # perf trajectory of this figure is tracked alongside its numbers
    timing = {
        "plane": spec.plane,
        "elapsed_seconds": result.elapsed_seconds,
        "total_point_seconds": result.total_point_seconds,
    }
    return rows, series, timing


@pytest.mark.benchmark(group="figure7b")
def test_fig7b_sod_error_vs_mantissa(benchmark):
    rows, series, timing = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "Figure 7b — Sod: L1 density error vs mantissa bits per AMR cutoff",
        ["cutoff", "mantissa", "L1(dens)", "trunc ops", "Gops trunc", "Gops full"],
        rows,
    )
    save_results("fig7b_sod", {"cutoffs": series, "timing": timing})
    assert timing["elapsed_seconds"] > 0

    by_cutoff = {c: {r["man_bits"]: r for r in recs} for c, recs in series.items()}
    smallest, widest = min(MANTISSA_POINTS), max(MANTISSA_POINTS)
    # errors are finite and positive under truncation at the smallest mantissa
    assert by_cutoff[0][smallest]["l1_dens"] > 0
    # truncated fraction shrinks as the cutoff coarsens
    fracs = [by_cutoff[c][widest]["truncated_fraction"] for c in CUTOFFS]
    assert all(fracs[i] >= fracs[i + 1] for i in range(len(fracs) - 1))
    # the error at wide mantissa is no worse than at the narrowest mantissa
    assert by_cutoff[0][widest]["l1_dens"] <= by_cutoff[0][smallest]["l1_dens"]
    # cutoff M-1 does not increase the small-mantissa error by more than noise
    assert by_cutoff[1][smallest]["l1_dens"] <= by_cutoff[0][smallest]["l1_dens"] * 1.5
