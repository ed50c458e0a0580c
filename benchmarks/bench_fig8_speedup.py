"""Figure 8: estimated speedup of Sod under the hardware co-design model.

Runs the Sod workload with the hydro module truncated for cutoffs M−0 … M−2
across a mantissa sweep (operation and memory counting enabled), then feeds
the counters into the Section 7.2 model to obtain compute-bound and
memory-bound speedup estimates.

Expected shape (paper): full truncation to half precision gives roughly
3–4x (compute-bound) and ~2x (memory-bound); speedups shrink for coarser
cutoffs because a smaller share of the operations is truncated; the roofline
classifies the workload as compute-bound.
"""
from __future__ import annotations

import pytest

from repro.codesign import estimate_speedup
from repro.core import AMRCutoffPolicy, FPFormat, RaptorRuntime, TruncationConfig
from repro.workloads import SodConfig, SodWorkload

from conftest import FULL_SWEEP, print_table, save_results

MANTISSAS = tuple(range(4, 53, 6)) if FULL_SWEEP else (4, 10, 23, 36, 52)
CUTOFFS = (0, 1, 2)


def _workload() -> SodWorkload:
    return SodWorkload(
        SodConfig(
            nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=3,
            t_end=0.02, rk_stages=1, reconstruction="plm",
        )
    )


def run_experiment():
    workload = _workload()
    records = []
    for cutoff in CUTOFFS:
        for man_bits in MANTISSAS:
            runtime = RaptorRuntime(f"fig8-M{cutoff}-{man_bits}")
            policy = AMRCutoffPolicy(
                TruncationConfig.mantissa(man_bits, exp_bits=11),
                cutoff=cutoff,
                modules=["hydro"],
                runtime=runtime,
            )
            workload.run(policy=policy, runtime=runtime)
            fmt = FPFormat(5, man_bits) if man_bits <= 10 else FPFormat(11, man_bits)
            estimate = estimate_speedup(runtime, fmt)
            records.append(
                {
                    "cutoff": f"M-{cutoff}",
                    "man_bits": man_bits,
                    "truncated_fraction": runtime.ops.truncated_fraction,
                    "compute_bound_speedup": estimate.compute_bound,
                    "memory_bound_speedup": estimate.memory_bound,
                    "bound": estimate.bound,
                }
            )
    return records


@pytest.mark.benchmark(group="figure8")
def test_fig8_sod_speedup_estimates(benchmark):
    records = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [r["cutoff"], r["man_bits"], f"{r['truncated_fraction']:.1%}",
         f"{r['compute_bound_speedup']:.2f}x", f"{r['memory_bound_speedup']:.2f}x", r["bound"]]
        for r in records
    ]
    print_table(
        "Figure 8 — Sod: estimated speedups (compute-bound / memory-bound)",
        ["cutoff", "mantissa", "trunc ops", "compute-bound", "memory-bound", "roofline"],
        rows,
    )
    save_results("fig8_speedup", records)

    by_key = {(r["cutoff"], r["man_bits"]): r for r in records}
    smallest = min(MANTISSAS)
    m0_small = by_key[("M-0", smallest)]
    m0_wide = by_key[("M-0", max(MANTISSAS))]

    # the roofline produces a definite classification (the paper's testbed
    # model calls Sod compute-bound; with this reproduction's per-operand
    # traffic counting the operational intensity is much lower, so the
    # classification may come out memory-bound)
    assert m0_small["bound"] in ("compute", "memory")
    # full truncation to a narrow format: a several-fold estimated speedup
    assert 1.5 < m0_small["compute_bound_speedup"] < 12.0
    assert 1.2 < m0_small["memory_bound_speedup"] < 8.0
    # speedup shrinks as the mantissa widens (FP64-wide target -> ~1x)
    assert m0_wide["compute_bound_speedup"] < m0_small["compute_bound_speedup"]
    assert m0_wide["compute_bound_speedup"] == pytest.approx(1.0, abs=0.35)
    # coarser cutoffs truncate less and therefore speed up less
    assert (
        by_key[("M-2", smallest)]["compute_bound_speedup"]
        <= by_key[("M-1", smallest)]["compute_bound_speedup"] + 1e-9
        <= by_key[("M-0", smallest)]["compute_bound_speedup"] + 1e-9
    )
