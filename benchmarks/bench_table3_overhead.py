"""Table 3: slowdown of RAPTOR in practice (Sedov).

Measures the wall-clock overhead of the emulation relative to an
uninstrumented run for the same configurations the paper reports:

* op-mode, naive runtime vs. scratch-optimised runtime, for AMR cutoffs
  M−0 … M−3 (the truncated-op share shrinks with the cutoff);
* op-mode with operation counting enabled;
* mem-mode with and without an excluded module (both rows cost about the
  same because exclusion is handled dynamically).

Absolute numbers are Python-vs-Python rather than native-vs-MPFR, but the
shape is the paper's: overhead grows with the truncated fraction, the
optimised path is cheaper than the naive one, and mem-mode is the most
expensive mode.

Every run is pinned to ``plane="instrumented"``: the table measures the
op-by-op emulation the paper profiles, not the fused planes that
``plane="auto"`` would substitute (including the counted fused plane for
the counting rows).
"""
from __future__ import annotations

import time

import pytest

from repro.core import AMRCutoffPolicy, GlobalPolicy, Mode, NoTruncationPolicy, RaptorRuntime, TruncationConfig
from repro.workloads import SedovConfig, SedovWorkload

from conftest import print_table, save_results

MAN_BITS = 12
CUTOFFS = (0, 1, 2, 3)
PLANE = "instrumented"


def _workload() -> SedovWorkload:
    return SedovWorkload(
        SedovConfig(
            nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=3,
            t_end=0.008, rk_stages=1, reconstruction="plm", regrid_interval=0,
        )
    )


def _timed_run(workload, policy, runtime):
    start = time.perf_counter()
    run = workload.run(policy=policy, runtime=runtime, regrid=False)
    elapsed = time.perf_counter() - start
    return elapsed, run


def run_experiment():
    workload = _workload()

    # uninstrumented baseline: full precision, no counting at all
    base_rt = RaptorRuntime("baseline")
    base_policy = NoTruncationPolicy(runtime=base_rt, count_ops=False, plane=PLANE)
    base_policy.config.track_memory = False
    baseline_time, _ = _timed_run(workload, base_policy, base_rt)

    records = [{"mode": "uninstrumented", "config": "-", "truncated_fraction": 0.0,
                "runtime_s": baseline_time, "overhead_x": 1.0}]

    def add(mode, config_label, policy, runtime):
        elapsed, run = _timed_run(workload, policy, runtime)
        records.append(
            {
                "mode": mode,
                "config": config_label,
                "truncated_fraction": run.truncated_fraction,
                "runtime_s": elapsed,
                "overhead_x": elapsed / baseline_time,
            }
        )

    for optimized, label in ((False, "op-mode naive"), (True, "op-mode optimized")):
        for cutoff in CUTOFFS:
            rt = RaptorRuntime(f"{label}-M{cutoff}")
            cfg = TruncationConfig.mantissa(
                MAN_BITS, exp_bits=11, optimized=optimized, count_ops=False, track_memory=False
            )
            policy = AMRCutoffPolicy(cfg, cutoff=cutoff, modules=["hydro"], runtime=rt, plane=PLANE)
            add(label, f"M-{cutoff}", policy, rt)

    # op-mode with operation counting (the paper's second block)
    for cutoff in (0, 2):
        rt = RaptorRuntime(f"op-count-M{cutoff}")
        cfg = TruncationConfig.mantissa(MAN_BITS, exp_bits=11, optimized=True, count_ops=True, track_memory=True)
        policy = AMRCutoffPolicy(cfg, cutoff=cutoff, modules=["hydro"], runtime=rt, plane=PLANE)
        add("op-mode + counting", f"M-{cutoff}", policy, rt)

    # mem-mode: truncate hydro, then with the reconstruction excluded
    for label, excluded in (("truncate hydro", ()), ("exclude recon", ("recon",))):
        rt = RaptorRuntime(f"mem-{label}")
        cfg = TruncationConfig.mantissa(MAN_BITS, exp_bits=11, mode=Mode.MEM, deviation_threshold=1e-7)
        policy = GlobalPolicy(cfg, runtime=rt, plane=PLANE)
        ctx = policy.context_for(module="hydro")
        ctx.exclude(*excluded)
        add("mem-mode", label, policy, rt)

    return records


@pytest.mark.benchmark(group="table3")
def test_table3_overhead(benchmark):
    records = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [r["mode"], r["config"], f"{r['truncated_fraction']:.1%}", f"{r['runtime_s']:.2f}", f"{r['overhead_x']:.1f}x"]
        for r in records
    ]
    print_table(
        "Table 3 — emulation overhead on Sedov (relative to the uninstrumented run)",
        ["mode", "config", "truncated FP ops", "runtime (s)", "overhead"],
        rows,
    )
    save_results("table3_overhead", records)

    def find(mode, config):
        return next(r for r in records if r["mode"] == mode and r["config"] == config)

    naive_m0 = find("op-mode naive", "M-0")
    naive_m3 = find("op-mode naive", "M-3")
    opt_m0 = find("op-mode optimized", "M-0")
    count_m0 = find("op-mode + counting", "M-0")
    count_m2 = find("op-mode + counting", "M-2")
    mem = find("mem-mode", "truncate hydro")
    mem_excl = find("mem-mode", "exclude recon")

    # overhead grows with the truncated share of the work (the pure-emulation
    # rows disable counting, so the share is read from the counting rows)
    assert naive_m0["overhead_x"] > naive_m3["overhead_x"]
    assert count_m0["truncated_fraction"] > count_m2["truncated_fraction"]
    # the optimised path is not slower than the naive one at full truncation
    assert opt_m0["runtime_s"] <= naive_m0["runtime_s"] * 1.05
    # mem-mode is the most expensive mode
    assert mem["overhead_x"] >= opt_m0["overhead_x"]
    # dynamic exclusion keeps mem-mode cost in the same ballpark (paper note 20)
    assert 0.4 <= mem_excl["runtime_s"] / mem["runtime_s"] <= 1.6
    # truncation always costs something relative to the uninstrumented run
    assert naive_m0["overhead_x"] > 1.0
