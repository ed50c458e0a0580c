"""Figure 7a: Sedov — L1 density error and FP-op counts vs mantissa width.

For every refinement cutoff (M−0 … M−3) the hydro module is truncated to a
sweep of mantissa widths; the L1 error of the density field against the
full-precision reference (sfocu) and the truncated / full operation counts
are reported, reproducing the panels of Figure 7a.

The sweep runs through the declarative engine of :mod:`repro.experiments`
(grid: one workload × cutoff policies × mantissa formats); the reported
numbers are identical to the pre-engine hand-written loop because the
per-point protocol — reference run, truncated run, sfocu comparison — is
unchanged.

Expected shape (paper): excluding the finest AMR level (M−1) drops the error
by many orders of magnitude for small mantissas, and the truncated share of
the operations shrinks as the cutoff is coarsened.
"""
from __future__ import annotations

import pytest

from repro.core import FPFormat
from repro.experiments import PolicySpec, SweepSpec, run_sweep

from conftest import MANTISSA_POINTS, print_table, save_results

CUTOFFS = (0, 1, 2, 3)

SEDOV_CONFIG = dict(
    nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=3,
    t_end=0.02, rk_stages=1, reconstruction="plm",
)


def run_experiment():
    spec = SweepSpec(
        workloads=["sedov"],
        formats=[FPFormat(11, man_bits) for man_bits in MANTISSA_POINTS],
        policies=[PolicySpec.amr_cutoff(cutoff, modules=("hydro",)) for cutoff in CUTOFFS],
        workload_configs={"sedov": SEDOV_CONFIG},
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


@pytest.mark.benchmark(group="figure7a")
def test_fig7a_sedov_error_vs_mantissa(benchmark):
    rows, series, timing = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "Figure 7a — Sedov: L1 density error vs mantissa bits per AMR cutoff",
        ["cutoff", "mantissa", "L1(dens)", "trunc ops", "Gops trunc", "Gops full"],
        rows,
    )
    save_results("fig7a_sedov", {"cutoffs": series, "timing": timing})

    assert timing["elapsed_seconds"] > 0

    # shape assertions mirroring the paper's observations
    by_cutoff = {c: {r["man_bits"]: r for r in recs} for c, recs in series.items()}
    smallest = min(MANTISSA_POINTS)
    # 1. at the smallest mantissa, excluding the finest level reduces the error
    assert by_cutoff[1][smallest]["l1_dens"] < by_cutoff[0][smallest]["l1_dens"]
    # 2. the truncated fraction shrinks monotonically as the cutoff coarsens
    widest = max(MANTISSA_POINTS)
    fracs = [by_cutoff[c][widest]["truncated_fraction"] for c in CUTOFFS]
    assert all(fracs[i] >= fracs[i + 1] for i in range(len(fracs) - 1))
    # 3. full truncation error decreases (weakly) with more mantissa bits
    errs = [by_cutoff[0][m]["l1_dens"] for m in MANTISSA_POINTS]
    assert errs[-1] <= errs[0]
