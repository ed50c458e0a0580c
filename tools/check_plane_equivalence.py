"""CI smoke check: the fused fast plane is bit-identical to the
instrumented plane.

Runs the golden Sod configuration (tests/test_golden.py) as a
full-precision reference on both kernel planes and asserts every state
variable matches **bitwise** — the contract that lets the experiment
engine route reference tasks through the fast plane silently.  A second
pass runs the golden Sedov configuration (WENO5 + HLLC) through the fast
plane's full fused-flux pipeline — Riemann/EOS fusion, preallocated
scratch workspaces (which this script insists are enabled) and batched
block stepping, stacked across AMR levels — and diffs it against the
instrumented plane the same way; golden Sod on a non-dyadic 3x3 root grid
follows, whose blocks differ in ``dx`` by the last bit within a level.
A third pass repeats these configurations as *truncated* (e8m10,
non-counting) runs: the instrumented op-by-op ``TruncatedContext`` path
vs the fused truncating plane (``repro.kernels.trunc``), which quantizes
at the same op boundaries and must match bitwise too.  A fourth pass
drives a regrid-heavy Kelvin–Helmholtz configuration (``max_level=3``,
regrid every step, so guard-fill plans are rebuilt constantly and
coarse/fine strips stay hot) through the fused *grid* plane — batched
guard fills, batched ``compute_dt`` and stacked refinement estimators —
and diffs it against a run with ``RAPTOR_FAST_NO_GRID`` set.
A fifth pass covers the fused *bubble* plane (``repro.kernels.bubble``):
a short rising-bubble run on the fused fast plane vs the op-by-op
instrumented baseline (``RAPTOR_FAST_NO_BUBBLE=1`` +
``plane="instrumented"``), both full-precision and truncated (e8m10) —
the WENO5 advection, diffusion, level-set and projection twins must all
match bitwise.  A sixth pass covers the *counted* fused plane
(``repro.kernels.ledger``): counting runs of both golden configurations,
then a counting ``run_sweep`` over all seven workloads and counting
``find_cliff`` searches on sod, bubble (an M-1 cutoff, so probes blend
truncated and full-precision cells) and cellular (probes narrow enough
that Newton exhausts its iterations), each on the instrumented plane vs
``plane="auto"`` — states and probe evaluations bitwise, ``RaptorRuntime``
snapshots byte-identical.

    PYTHONPATH=src python tools/check_plane_equivalence.py
"""
from __future__ import annotations

import sys

import numpy as np

#: the golden configurations of tests/test_golden.py
GOLDEN_CONFIGS = {
    "sod": dict(
        nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
        t_end=0.04, rk_stages=1, reconstruction="plm",
    ),
    "sedov": dict(
        nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
        t_end=0.02, rk_stages=1, reconstruction="weno5",
    ),
}

#: golden Sod on a non-dyadic 3x3 root grid: block bounds make ``dx``
#: differ in the last bit between blocks of one level, so batched stacks
#: must carry per-block spacings to stay bitwise on the fast planes
SOD_3ROOT = dict(GOLDEN_CONFIGS["sod"], n_root_x=3, n_root_y=3)

#: regrid-heavy golden pass for the fused grid plane: regrid every step so
#: guard-fill plans are invalidated and rebuilt constantly, deep enough
#: that coarse/fine guard strips are exercised throughout
GRID_GOLDEN = dict(
    nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=3,
    t_end=0.01, rk_stages=1, regrid_interval=1,
)


def _diff_planes(name: str, config: dict, label: str = "") -> list:
    from repro.workloads import create_workload

    label = label or name
    instrumented = create_workload(name, **config).reference(plane="instrumented")
    fast = create_workload(name, **config).reference(plane="fast")

    failures = []
    if instrumented.time != fast.time:
        failures.append(f"{label}: final time differs: {instrumented.time} vs {fast.time}")
    for var in sorted(instrumented.state):
        a, b = instrumented.state[var], fast.state[var]
        if not np.array_equal(a, b):
            diverged = int(np.sum(a != b))
            failures.append(f"{label}: variable {var!r}: {diverged}/{a.size} cells differ")
    return failures


def _diff_trunc_planes(name: str, config: dict, label: str = "") -> list:
    from repro.core import FPFormat, GlobalPolicy, RaptorRuntime, TruncationConfig
    from repro.workloads import create_workload

    def run(plane):
        runtime = RaptorRuntime()
        policy = GlobalPolicy(
            TruncationConfig(targets={64: FPFormat(exp_bits=8, man_bits=10)},
                             count_ops=False, track_memory=False),
            runtime=runtime, plane=plane,
        )
        return create_workload(name, **config).run(policy=policy, runtime=runtime)

    label = label or name
    instrumented = run("instrumented")
    fast = run("auto")

    failures = []
    if instrumented.time != fast.time:
        failures.append(
            f"{label} (truncated): final time differs: {instrumented.time} vs {fast.time}"
        )
    for var in sorted(instrumented.state):
        a, b = instrumented.state[var], fast.state[var]
        if not np.array_equal(a, b):
            diverged = int(np.sum(a != b))
            failures.append(
                f"{label} (truncated): variable {var!r}: {diverged}/{a.size} cells differ"
            )
    return failures


def _diff_grid_plane() -> list:
    """Regrid-heavy KH run: fused grid plane vs per-block grid paths."""
    import os

    from repro.workloads import create_workload

    fused = create_workload("kelvin-helmholtz", **GRID_GOLDEN).reference(plane="fast")
    os.environ["RAPTOR_FAST_NO_GRID"] = "1"
    try:
        reference = create_workload("kelvin-helmholtz", **GRID_GOLDEN).reference(
            plane="fast"
        )
    finally:
        del os.environ["RAPTOR_FAST_NO_GRID"]

    failures = []
    if fused.info["finest_level"] < 2:
        failures.append(
            "kelvin-helmholtz (grid plane): run never refined past level "
            f"{fused.info['finest_level']:.0f} — coarse/fine guard strips "
            "were not exercised"
        )
    if fused.info != reference.info:
        failures.append(
            "kelvin-helmholtz (grid plane): run summaries differ: "
            f"{fused.info} vs {reference.info}"
        )
    if fused.time != reference.time:
        failures.append(
            f"kelvin-helmholtz (grid plane): final time differs: "
            f"{fused.time} vs {reference.time}"
        )
    for var in sorted(fused.state):
        a, b = fused.state[var], reference.state[var]
        if not np.array_equal(a, b):
            diverged = int(np.sum(a != b))
            failures.append(
                f"kelvin-helmholtz (grid plane): variable {var!r}: "
                f"{diverged}/{a.size} cells differ"
            )
    return failures


#: golden bubble pass: short but long enough to cross a level-set
#: reinitialisation (10 steps per phase at the default reinit_interval=5)
BUBBLE_GOLDEN = dict(
    spin_up_time=0.04, truncation_time=0.04, snapshot_times=(0.04,),
    fixed_dt=0.004,
)


def _diff_bubble_planes() -> list:
    """Bubble run: fused bubble plane vs the op-by-op instrumented path.

    The baseline needs an explicit policy — ``Scenario.reference`` maps the
    bubble's full-precision contexts back to the solver's fast path — and
    ``RAPTOR_FAST_NO_BUBBLE=1`` so the solver's workspace glue is off too.
    """
    import os

    from repro.core import (FPFormat, GlobalPolicy, NoTruncationPolicy,
                            RaptorRuntime, TruncationConfig)
    from repro.workloads import create_workload

    def run(plane, fmt=None):
        runtime = RaptorRuntime()
        if fmt is None:
            policy = NoTruncationPolicy(runtime=runtime, count_ops=False,
                                        track_memory=False, plane=plane)
        else:
            policy = GlobalPolicy(
                TruncationConfig(targets={64: fmt}, count_ops=False,
                                 track_memory=False),
                runtime=runtime, plane=plane,
            )
        return create_workload("bubble", **BUBBLE_GOLDEN).run(
            policy=policy, runtime=runtime
        )

    fmt = FPFormat(exp_bits=8, man_bits=10)
    fused = run("fast")
    fused_trunc = run("auto", fmt)
    os.environ["RAPTOR_FAST_NO_BUBBLE"] = "1"
    try:
        reference = run("instrumented")
        reference_trunc = run("instrumented", fmt)
    finally:
        del os.environ["RAPTOR_FAST_NO_BUBBLE"]

    failures = []
    for label, a_out, b_out in (
        ("full-precision", reference, fused),
        ("truncated", reference_trunc, fused_trunc),
    ):
        if a_out.time != b_out.time:
            failures.append(
                f"bubble ({label}): final time differs: {a_out.time} vs {b_out.time}"
            )
        if a_out.info != b_out.info:
            failures.append(
                f"bubble ({label}): run summaries differ: {a_out.info} vs {b_out.info}"
            )
        for var in sorted(a_out.state):
            a, b = a_out.state[var], b_out.state[var]
            if not np.array_equal(a, b):
                diverged = int(np.sum(a != b))
                failures.append(
                    f"bubble ({label}): variable {var!r}: "
                    f"{diverged}/{a.size} cells differ"
                )
    return failures


#: tiny configurations of every registered workload for the counted pass
COUNTED_SWEEP_CONFIGS = {
    "sod": dict(GOLDEN_CONFIGS["sod"], t_end=0.004),
    "sedov": dict(GOLDEN_CONFIGS["sedov"], t_end=0.004),
    "kelvin-helmholtz": dict(GRID_GOLDEN, max_level=2, t_end=0.004),
    "rayleigh-taylor": dict(GRID_GOLDEN, max_level=2, t_end=0.004),
    "double-blast": dict(GRID_GOLDEN, max_level=2, t_end=0.004),
    "cellular": dict(n_cells=16, n_steps=4),
    "bubble": BUBBLE_GOLDEN,
}


def _diff_counted_planes() -> list:
    """Counting runs: the counted fused plane vs the instrumented plane.

    Counters are the object of comparison here: snapshots (op totals,
    per-module ops, bytes) must be byte-identical, not just the states.
    """
    from repro.core import FPFormat, GlobalPolicy, RaptorRuntime, TruncationConfig
    from repro.experiments import PolicySpec, SweepSpec, run_sweep
    from repro.workloads import create_workload

    failures = []
    for name, config in GOLDEN_CONFIGS.items():
        outcomes = {}
        for plane in ("instrumented", "auto"):
            runtime = RaptorRuntime()
            policy = GlobalPolicy(
                TruncationConfig(targets={64: FPFormat(exp_bits=8, man_bits=10)}),
                runtime=runtime, plane=plane,
            )
            if plane == "auto" and not policy.context_for(module="hydro").ledger:
                failures.append(f"{name} (counted): counting context not on the counted plane")
            outcomes[plane] = create_workload(name, **config).run(policy=policy, runtime=runtime)
        a, b = outcomes["instrumented"], outcomes["auto"]
        for var in sorted(a.state):
            if not np.array_equal(a.state[var], b.state[var]):
                failures.append(f"{name} (counted): variable {var!r} differs")
        if a.snapshot() != b.snapshot():
            failures.append(f"{name} (counted): runtime snapshots differ")

    def sweep(plane):
        return run_sweep(SweepSpec(
            workloads=list(COUNTED_SWEEP_CONFIGS),
            formats=["bf16"],
            policies=[
                PolicySpec.everywhere(modules=("hydro", "eos", "advection", "diffusion")),
                PolicySpec.amr_cutoff(1, modules=("hydro",)),
            ],
            workload_configs=COUNTED_SWEEP_CONFIGS,
            plane=plane,
        ))

    instrumented, counted = sweep("instrumented"), sweep("auto")
    for a, b in zip(instrumented.points, counted.points):
        label = f"{a.workload} {a.policy} (counted sweep)"
        if a.metrics_key() != b.metrics_key():
            failures.append(f"{label}: metrics differ")
        if a.runtime_snapshot != b.runtime_snapshot:
            failures.append(f"{label}: runtime snapshots differ")
    if len(instrumented.points) != len(counted.points) or counted.failures:
        failures.append("counted sweep: point sets differ or points failed")

    for name, cutoff, max_bits, check in COUNTED_CLIFFS:
        failures.extend(_diff_counted_cliff(name, cutoff, max_bits, check))
    return failures


def _newton_gave_up(evaluations) -> bool:
    return any(e.info["failed_newton_steps"] > 0 for e in evaluations)


#: counting cliff searches of the sixth pass: (workload, M - l cutoff of
#: its default modules or None for everywhere, widest probe, a property
#: the probes must show so the pass covers what it says)
COUNTED_CLIFFS = [
    ("sod", None, 20, None),
    # the M-1 cutoff blends truncated and full-precision cells (the
    # full-precision side counts nothing, so no counter shows the blend)
    ("bubble", 1, 20, None),
    # narrow probes exhaust the Newton iteration limit
    ("cellular", None, 40, _newton_gave_up),
]


def _diff_counted_cliff(name, cutoff, max_bits, check) -> list:
    """A counting ``find_cliff`` on both planes: probe evaluations equal,
    and every probed width's runtime snapshot byte-identical."""
    from repro.core import FPFormat, RaptorRuntime
    from repro.experiments import PolicySpec, find_cliff
    from repro.experiments.adaptive import default_policy_for
    from repro.workloads import create_workload

    config = COUNTED_SWEEP_CONFIGS[name]
    spec = default_policy_for(name)
    if cutoff is not None:
        spec = PolicySpec.amr_cutoff(cutoff, modules=spec.modules)
    label = f"{name} {spec.describe()} (counted cliff search)"
    evaluations, snapshots = {}, {}
    for plane in ("instrumented", "auto"):
        cliff = find_cliff(name, spec, config_kwargs=config, min_man_bits=4,
                           max_man_bits=max_bits, exp_bits=8, plane=plane)
        evaluations[plane] = [
            (e.man_bits, e.error, e.passed, e.truncated_fraction, sorted(e.info.items()))
            for e in cliff.evaluations
        ]
        snapshots[plane] = []
        for e in cliff.evaluations:
            runtime = RaptorRuntime()
            built = spec.build(FPFormat(8, e.man_bits), runtime, plane=plane)
            create_workload(name, **config).run(policy=built, runtime=runtime)
            snapshots[plane].append(runtime.snapshot())
        if check is not None and plane == "auto" and not check(cliff.evaluations):
            return [f"{label}: the probes miss the case this check covers"]
    failures = []
    if evaluations["instrumented"] != evaluations["auto"]:
        failures.append(f"{label}: probe evaluations differ")
    if snapshots["instrumented"] != snapshots["auto"]:
        failures.append(f"{label}: runtime snapshots differ")
    return failures


def main() -> int:
    from repro.kernels.scratch import (
        bubble_plane_enabled,
        grid_plane_enabled,
        scratch_enabled,
    )

    if not (scratch_enabled() and grid_plane_enabled() and bubble_plane_enabled()):
        print(
            "FAIL: RAPTOR_FAST_NO_SCRATCH / RAPTOR_FAST_NO_GRID / "
            "RAPTOR_FAST_NO_BUBBLE are set — this check must exercise the "
            "scratch + fused-grid + fused-bubble fast plane"
        )
        return 1

    failures = []
    for name, config in GOLDEN_CONFIGS.items():
        failures.extend(_diff_planes(name, config))
        failures.extend(_diff_trunc_planes(name, config))
    failures.extend(_diff_planes("sod", SOD_3ROOT, "sod (3x3 root blocks)"))
    failures.extend(_diff_trunc_planes("sod", SOD_3ROOT, "sod (3x3 root blocks)"))
    failures.extend(_diff_grid_plane())
    failures.extend(_diff_bubble_planes())
    failures.extend(_diff_counted_planes())

    if failures:
        print("FAIL: fast plane is not bit-identical to the instrumented plane")
        for line in failures:
            print(f"  - {line}")
        return 1

    print(
        "OK: golden Sod (PLM) and Sedov (WENO5, fused flux + scratch + "
        "cross-level batched stacks) and Sod on a 3x3 root grid bitwise "
        "identical on both planes, full-precision and truncated (e8m10); "
        "regrid-heavy KH bitwise identical with the "
        "fused grid plane on and off; rising bubble bitwise identical on "
        "the fused bubble plane, full-precision and truncated; counting runs, "
        "a seven-workload counting sweep and counting sod/bubble/cellular cliff "
        "searches bitwise identical with byte-identical counters on the counted plane"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
