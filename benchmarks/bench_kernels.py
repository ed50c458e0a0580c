"""Kernel-plane benchmark: instrumented vs fused fast plane, per workload.

Times the full-precision *reference* run of each workload on both kernel
planes (see ``repro.kernels``), breaks the fast plane down into its
optimisation rungs —

* ``fast-flux``    — the fused flux pipeline, blocks stacked into one
  batched update per substep, without scratch workspaces
  (``RAPTOR_FAST_NO_SCRATCH``): every temporary is freshly allocated;
* ``fast-nogrid``  — plus preallocated scratch workspaces but with the
  fused grid plane disabled (``RAPTOR_FAST_NO_GRID``): per-block guard
  fills, per-block ``compute_dt`` and per-block refinement estimators;
* ``fast``         — plus the fused grid plane (the default fast plane) —

verifies the final states are bitwise identical across *all* planes — the
fast plane's contract — and records the comparison to
``benchmarks/results/BENCH_kernels.json`` so the perf trajectory is tracked
PR-over-PR (the previously recorded fast-plane seconds are carried along as
``previous_fast_seconds``).

A second pass times *truncated* (e8m10, non-counting) runs of the
compressible workloads on the instrumented plane vs the fused truncating
plane (``repro.kernels.trunc``, reached via ``plane="auto"``) — the sweep
engine's actual point hot path when ``count_point_ops=False`` — again
insisting the states agree bitwise, and records the truncated speedup the
same way.  The same pass then times *counting* e8m10 runs — the sweep
default, ``count_point_ops=True`` — op-by-op on the instrumented plane vs
the counted fused plane (``repro.kernels.ledger``: fused truncating kernels
plus a replayed per-block op/byte ledger), insisting on bitwise states
*and* byte-identical ``RaptorRuntime`` snapshots.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full set
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI sanity

``--quick`` shrinks the configurations and repeats, prints the same table,
and still enforces bitwise identity (but not the speedup floor, which is
only meaningful at the full sizes).

For the AMR workloads a third pass records a phase-level breakdown of one
fast-plane run — wall-clock attributed to guard-cell fills, ``compute_dt``,
regridding and the flux sweeps — so the grid-plane wins stay visible
PR-over-PR next to the end-to-end numbers.

The bubble workload (incompressible multiphase) gets its own section: its
reference run is timed op-by-op (``plane="instrumented"`` with
``RAPTOR_FAST_NO_BUBBLE=1``), on the fast plane with the fused bubble
kernels disabled (``fast-nobubble``), and on the full fast plane; a
truncated (e8m10) pass compares the op-by-op ``TruncatedContext`` path
against the fused truncating bubble twins.  The bubble rows build their
policies explicitly (``_time_bubble``) so the truncated pair shares one
code path with the reference rungs.  A phase breakdown
(advection, diffusion, Poisson solve, level-set reinitialisation) rides
along like the AMR one.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_kernels.json"

#: per-workload reference configurations (sweep-scale grids, the engine's
#: actual hot path); the quick variant trims steps, not structure
CONFIGS = {
    "sod": dict(
        full=dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=3,
                  t_end=0.04, rk_stages=1, reconstruction="plm"),
        quick=dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
                   t_end=0.01, rk_stages=1, reconstruction="plm"),
    ),
    "sedov": dict(
        full=dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=3,
                  t_end=0.02, rk_stages=1, reconstruction="weno5"),
        quick=dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
                   t_end=0.005, rk_stages=1, reconstruction="weno5"),
    ),
    "kelvin-helmholtz": dict(
        full=dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
                  t_end=0.02, rk_stages=1),
        quick=dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
                   t_end=0.004, rk_stages=1),
    ),
    "cellular": dict(
        full=dict(n_cells=64, n_steps=24),
        quick=dict(n_cells=16, n_steps=4),
    ),
}

#: timing variants: label -> (plane, env overrides)
VARIANTS = (
    ("instrumented", "instrumented", {}),
    ("fast-flux", "fast", {"RAPTOR_FAST_NO_SCRATCH": "1"}),
    ("fast-nogrid", "fast", {"RAPTOR_FAST_NO_GRID": "1"}),
    ("fast", "fast", {}),
)

#: workloads whose hydro hot path has fused truncating twins
TRUNC_WORKLOADS = ("sod", "sedov", "kelvin-helmholtz")

#: workloads with a counting rung (the bubble's lives in its own section)
COUNTED_WORKLOADS = TRUNC_WORKLOADS + ("cellular",)

#: bubble workload configurations (the Figure 1 protocol at sweep scale)
BUBBLE_CONFIGS = dict(
    full=dict(spin_up_time=0.2, truncation_time=0.3,
              snapshot_times=(0.1, 0.2, 0.3), fixed_dt=0.004),
    quick=dict(spin_up_time=0.04, truncation_time=0.04,
               snapshot_times=(0.04,), fixed_dt=0.004),
)

#: phases of the bubble and counted cellular breakdowns, in table order
BUBBLE_PHASES = ("advection", "diffusion", "levelset", "poisson", "reinit")
CELLULAR_PHASES = ("eos_inversion", "pressure", "burn")

#: bubble timing variants: label -> (plane, env overrides)
BUBBLE_VARIANTS = (
    ("instrumented", "instrumented", {"RAPTOR_FAST_NO_BUBBLE": "1"}),
    ("fast-nobubble", "fast", {"RAPTOR_FAST_NO_BUBBLE": "1"}),
    ("fast", "fast", {}),
)


@contextlib.contextmanager
def _env(overrides):
    saved = {name: os.environ.get(name) for name in
             ("RAPTOR_FAST_NO_SCRATCH", "RAPTOR_FAST_NO_GRID",
              "RAPTOR_FAST_NO_BUBBLE")}
    for name in saved:
        os.environ.pop(name, None)
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _time_reference(workload_factory, plane: str, env_overrides, repeat: int):
    """Best-of-``repeat`` wall-clock of a reference run on ``plane``."""
    best = np.inf
    outcome = None
    with _env(env_overrides):
        for _ in range(repeat):
            workload = workload_factory()
            start = time.perf_counter()
            outcome = workload.reference(plane=plane)
            best = min(best, time.perf_counter() - start)
    return best, outcome


def _time_truncated(workload_factory, plane: str, repeat: int, counting: bool = False):
    """Best-of-``repeat`` wall-clock of an e8m10 truncated run.

    ``plane="instrumented"`` runs the optimized op-by-op ``TruncatedContext``
    path; ``plane="auto"`` routes the contexts onto the fused truncating
    plane — the counted fused plane when ``counting`` (op and byte counters
    on, like a default sweep point).
    """
    from repro.core import FPFormat, GlobalPolicy, RaptorRuntime, TruncationConfig

    fmt = FPFormat(exp_bits=8, man_bits=10)
    best = np.inf
    outcome = None
    for _ in range(repeat):
        workload = workload_factory()
        runtime = RaptorRuntime()
        policy = GlobalPolicy(
            TruncationConfig(targets={64: fmt}, count_ops=counting, track_memory=counting),
            runtime=runtime, plane=plane,
        )
        start = time.perf_counter()
        outcome = workload.run(policy=policy, runtime=runtime)
        best = min(best, time.perf_counter() - start)
    return best, outcome


def _phase_breakdown(workload_factory):
    """Wall-clock per phase of one fast-plane reference run of an AMR workload.

    Wraps the grid-side entry points at class level for the duration of the
    run.  Guard-fill time nested inside the flux substep (or a regrid) is
    attributed to ``guard_fill`` and subtracted from the enclosing phase, so
    the four numbers are exclusive and roughly sum to the stepped time.
    """
    from repro.amr.grid import AMRGrid
    from repro.hydro.solver import HydroSolver

    acc = {"guard_fill": 0.0, "compute_dt": 0.0, "regrid": 0.0, "flux": 0.0}
    originals = {
        "fill": AMRGrid.fill_guard_cells,
        "dt": HydroSolver.compute_dt,
        "regrid": AMRGrid.regrid,
        "substep": HydroSolver._substep,
    }

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[key] += time.perf_counter() - start
        return wrapper

    def exclusive(key, fn):
        def wrapper(*args, **kwargs):
            nested = acc["guard_fill"]
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                acc[key] += elapsed - (acc["guard_fill"] - nested)
        return wrapper

    AMRGrid.fill_guard_cells = timed("guard_fill", originals["fill"])
    HydroSolver.compute_dt = timed("compute_dt", originals["dt"])
    AMRGrid.regrid = exclusive("regrid", originals["regrid"])
    HydroSolver._substep = exclusive("flux", originals["substep"])
    try:
        with _env({}):
            workload_factory().reference(plane="fast")
    finally:
        AMRGrid.fill_guard_cells = originals["fill"]
        HydroSolver.compute_dt = originals["dt"]
        AMRGrid.regrid = originals["regrid"]
        HydroSolver._substep = originals["substep"]
    return {key: round(value, 6) for key, value in acc.items()}


def _time_bubble(workload_factory, plane: str, env_overrides, repeat: int,
                 truncated: bool = False, counting: bool = False):
    """Best-of-``repeat`` wall-clock of a bubble run on ``plane``.

    The full-precision baseline is a non-counting
    ``NoTruncationPolicy(plane="instrumented")``, which keeps the bubble
    solver's own full-precision context op-by-op.  ``truncated=True`` times
    the non-counting e8m10 run
    instead (op-by-op ``TruncatedContext`` on the instrumented plane, the
    fused truncating twins on ``"auto"``/``"fast"``) — the counting one when
    ``counting`` (the counted fused plane on ``"auto"``).
    """
    from repro.core import (FPFormat, GlobalPolicy, NoTruncationPolicy,
                            RaptorRuntime, TruncationConfig)

    best = np.inf
    outcome = None
    with _env(env_overrides):
        for _ in range(repeat):
            workload = workload_factory()
            runtime = RaptorRuntime()
            if truncated:
                fmt = FPFormat(exp_bits=8, man_bits=10)
                policy = GlobalPolicy(
                    TruncationConfig(targets={64: fmt}, count_ops=counting,
                                     track_memory=counting),
                    runtime=runtime, plane=plane,
                )
            else:
                policy = NoTruncationPolicy(
                    runtime=runtime, count_ops=False, track_memory=False,
                    plane=plane,
                )
            start = time.perf_counter()
            outcome = workload.run(policy=policy, runtime=runtime)
            best = min(best, time.perf_counter() - start)
    return best, outcome


def _phase_times(targets, run):
    """Inclusive wall-clock per phase while ``run()`` executes.

    ``targets`` maps a phase name to the ``(owner, attribute)`` of the
    callable to time; each is wrapped for the duration of the run.  The
    phases must not nest, so inclusive timers are exclusive already.
    """
    acc = {key: 0.0 for key in targets}
    originals = {key: getattr(owner, attr) for key, (owner, attr) in targets.items()}

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[key] += time.perf_counter() - start
        return wrapper

    for key, (owner, attr) in targets.items():
        setattr(owner, attr, timed(key, originals[key]))
    try:
        with _env({}):
            run()
    finally:
        for key, (owner, attr) in targets.items():
            setattr(owner, attr, originals[key])
    return {key: round(value, 6) for key, value in acc.items()}


def _bubble_phase_breakdown(workload_factory, counting: bool = False):
    """Wall-clock per phase of one fast-plane bubble run: advection and
    diffusion terms and level-set transport (the paper's truncation
    targets), the pressure Poisson solve and the level-set
    reinitialisation.  ``counting`` times a counting e8m10 run on the
    counted fused plane instead of the full-precision reference.  The
    binary64 spin-up is built before the timers start.
    """
    from repro.core import (FPFormat, GlobalPolicy, NoTruncationPolicy,
                            RaptorRuntime, TruncationConfig)
    from repro.incomp.levelset import LevelSet
    from repro.incomp.poisson import PoissonSolver
    from repro.incomp.solver import BubbleSolver

    prefix = workload_factory().initial_state()

    def run():
        runtime = RaptorRuntime()
        if counting:
            policy = GlobalPolicy(
                TruncationConfig(targets={64: FPFormat(exp_bits=8, man_bits=10)}),
                runtime=runtime, plane="auto",
            )
        else:
            policy = NoTruncationPolicy(runtime=runtime, count_ops=False,
                                        track_memory=False, plane="fast")
        workload_factory().run(policy=policy, runtime=runtime, prefix=prefix)

    return _phase_times({
        "advection": (BubbleSolver, "advection_term"),
        "diffusion": (BubbleSolver, "diffusion_term"),
        "levelset": (BubbleSolver, "_advect_levelset"),
        "poisson": (PoissonSolver, "solve"),
        "reinit": (LevelSet, "reinitialize"),
    }, run)


def _cellular_phase_breakdown(workload_factory):
    """Wall-clock per phase of one counting e8m10 cellular run on the
    counted fused plane: the Newton EOS inversion, the trailing pressure
    lookup and the burn network."""
    from repro.burn.network import CarbonBurnNetwork
    from repro.eos.table import HelmholtzTable
    from repro.workloads import cellular

    def run():
        _time_truncated(workload_factory, "auto", 1, counting=True)

    return _phase_times({
        "eos_inversion": (cellular, "invert_energy"),
        "pressure": (HelmholtzTable, "pressure"),
        "burn": (CarbonBurnNetwork, "burn"),
    }, run)


def _counted_record(name, workload_factory, repeat, time_fn):
    """Counting e8m10 runs op-by-op vs on the counted fused plane:
    bitwise states and byte-identical runtime snapshots enforced."""
    slow_secs, slow_out = time_fn("instrumented")
    fast_secs, fast_out = time_fn("auto")
    for key in slow_out.state:
        if not np.array_equal(slow_out.state[key], fast_out.state[key]):
            raise SystemExit(
                f"PLANE MISMATCH: counted {name} variable {key!r} differs "
                "between the instrumented plane and the counted fused plane"
            )
    if slow_out.snapshot() != fast_out.snapshot():
        raise SystemExit(
            f"COUNTER MISMATCH: counted {name} runtime snapshots differ "
            "between the instrumented plane and the counted fused plane"
        )
    return {
        "counted_instrumented_seconds": slow_secs,
        "counted_fast_seconds": fast_secs,
        "counted_speedup": slow_secs / fast_secs if fast_secs > 0 else float("inf"),
    }


def _bubble_record(quick: bool, repeat: int, previous):
    """Benchmark the bubble workload across the bubble-plane rungs."""
    from repro.workloads import create_workload

    flavour = "quick" if quick else "full"
    config = BUBBLE_CONFIGS[flavour]
    factory = lambda: create_workload("bubble", **config)

    seconds = {}
    baseline = None
    for label, plane, env_overrides in BUBBLE_VARIANTS:
        secs, outcome = _time_bubble(factory, plane, env_overrides, repeat)
        seconds[label] = secs
        if baseline is None:
            baseline = outcome
            continue
        for key in baseline.state:
            if not np.array_equal(baseline.state[key], outcome.state[key]):
                raise SystemExit(
                    f"PLANE MISMATCH: bubble variable {key!r} differs between "
                    f"the instrumented plane and {label!r} — the fused bubble "
                    "plane's bit-identity contract is broken"
                )

    slow_secs, slow_out = _time_bubble(
        factory, "instrumented", {"RAPTOR_FAST_NO_BUBBLE": "1"}, repeat,
        truncated=True,
    )
    fast_secs, fast_out = _time_bubble(factory, "auto", {}, repeat,
                                       truncated=True)
    for key in slow_out.state:
        if not np.array_equal(slow_out.state[key], fast_out.state[key]):
            raise SystemExit(
                f"PLANE MISMATCH: truncated bubble variable {key!r} differs "
                "between the instrumented plane and the fused truncating "
                "bubble plane — the truncating plane's bit-identity contract "
                "is broken"
            )

    counted_env = {"instrumented": {"RAPTOR_FAST_NO_BUBBLE": "1"}, "auto": {}}
    counted = _counted_record("bubble", factory, repeat, lambda plane: _time_bubble(
        factory, plane, counted_env[plane], repeat, truncated=True, counting=True))

    return {
        "workload": "bubble",
        "config": config,
        "repeat": repeat,
        "instrumented_seconds": seconds["instrumented"],
        "fast_nobubble_seconds": seconds["fast-nobubble"],
        "fast_seconds": seconds["fast"],
        "previous_fast_seconds": previous.get("bubble"),
        "speedup": seconds["instrumented"] / seconds["fast"]
        if seconds["fast"] > 0 else float("inf"),
        "bubble_speedup": seconds["fast-nobubble"] / seconds["fast"]
        if seconds["fast"] > 0 else float("inf"),
        "bitwise_identical": True,
        "bubble_phases": _bubble_phase_breakdown(factory),
        "trunc_instrumented_seconds": slow_secs,
        "trunc_fast_seconds": fast_secs,
        "trunc_speedup": slow_secs / fast_secs if fast_secs > 0 else float("inf"),
        **counted,
        "counted_phases": _bubble_phase_breakdown(factory, counting=True),
    }


def _previous_fast_seconds():
    """The fast-plane seconds of the committed record (PR-over-PR trail)."""
    try:
        with open(RESULTS_PATH, encoding="utf-8") as fh:
            payload = json.load(fh)
        return {r["workload"]: r.get("fast_seconds") for r in payload.get("workloads", [])}
    except (OSError, ValueError, KeyError):
        return {}


def run_benchmark(quick: bool, repeat: int):
    from repro.workloads import create_workload

    flavour = "quick" if quick else "full"
    previous = _previous_fast_seconds()
    records = []
    for name, variants in CONFIGS.items():
        config = variants[flavour]
        factory = lambda: create_workload(name, **config)

        seconds = {}
        baseline = None
        for label, plane, env_overrides in VARIANTS:
            secs, outcome = _time_reference(factory, plane, env_overrides, repeat)
            seconds[label] = secs
            if baseline is None:
                baseline = outcome
                continue
            for key in baseline.state:
                if not np.array_equal(baseline.state[key], outcome.state[key]):
                    raise SystemExit(
                        f"PLANE MISMATCH: {name} variable {key!r} differs between "
                        f"the instrumented plane and {label!r} — the fast plane's "
                        "bit-identity contract is broken"
                    )

        record = {
            "workload": name,
            "config": config,
            "repeat": repeat,
            "instrumented_seconds": seconds["instrumented"],
            "fast_flux_seconds": seconds["fast-flux"],
            "fast_nogrid_seconds": seconds["fast-nogrid"],
            "fast_seconds": seconds["fast"],
            "previous_fast_seconds": previous.get(name),
            "speedup": seconds["instrumented"] / seconds["fast"]
            if seconds["fast"] > 0 else float("inf"),
            "grid_speedup": seconds["fast-nogrid"] / seconds["fast"]
            if seconds["fast"] > 0 else float("inf"),
            "bitwise_identical": True,
        }

        if name != "cellular":
            record["phases"] = _phase_breakdown(factory)

        if name in TRUNC_WORKLOADS:
            slow_secs, slow_out = _time_truncated(factory, "instrumented", repeat)
            fast_secs, fast_out = _time_truncated(factory, "auto", repeat)
            for key in slow_out.state:
                if not np.array_equal(slow_out.state[key], fast_out.state[key]):
                    raise SystemExit(
                        f"PLANE MISMATCH: truncated {name} variable {key!r} differs "
                        "between the instrumented plane and the fused truncating "
                        "plane — the truncating plane's bit-identity contract is "
                        "broken"
                    )
            record.update({
                "trunc_instrumented_seconds": slow_secs,
                "trunc_fast_seconds": fast_secs,
                "trunc_speedup": slow_secs / fast_secs if fast_secs > 0 else float("inf"),
            })

        if name in COUNTED_WORKLOADS:
            record.update(_counted_record(name, factory, repeat, lambda plane: _time_truncated(
                factory, plane, repeat, counting=True)))
        if name == "cellular":
            record["counted_phases"] = _cellular_phase_breakdown(factory)

        records.append(record)

    records.append(_bubble_record(quick, repeat, previous))
    return {"mode": flavour, "workloads": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI sanity mode: tiny configs, one repeat, no JSON record")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timing repeats per (workload, plane); best-of wins")
    parser.add_argument("--out", default=None,
                        help=f"result path (default {RESULTS_PATH})")
    args = parser.parse_args(argv)

    repeat = args.repeat if args.repeat is not None else (1 if args.quick else 3)
    payload = run_benchmark(args.quick, repeat)

    from repro.core import format_table

    rows = [
        [
            r["workload"],
            f"{r['instrumented_seconds']:.3f}",
            f"{r['fast_flux_seconds']:.3f}",
            f"{r['fast_nogrid_seconds']:.3f}",
            f"{r['fast_seconds']:.3f}",
            f"{r['speedup']:.2f}x",
            f"{r['grid_speedup']:.2f}x",
            "yes",
        ]
        for r in payload["workloads"]
        if "fast_flux_seconds" in r
    ]
    print(f"\n=== kernel planes: reference runs, {payload['mode']} mode ===")
    print(format_table(
        ["workload", "instrumented [s]", "fast-flux [s]", "fast-nogrid [s]",
         "fast [s]", "speedup", "grid speedup", "bitwise identical"],
        rows,
    ))

    bubble_rows = [
        [
            r["workload"],
            f"{r['instrumented_seconds']:.3f}",
            f"{r['fast_nobubble_seconds']:.3f}",
            f"{r['fast_seconds']:.3f}",
            f"{r['speedup']:.2f}x",
            f"{r['bubble_speedup']:.2f}x",
            "yes",
        ]
        for r in payload["workloads"]
        if "fast_nobubble_seconds" in r
    ]
    print(f"\n=== bubble plane: reference runs, {payload['mode']} mode ===")
    print(format_table(
        ["workload", "instrumented [s]", "fast-nobubble [s]", "fast [s]",
         "speedup", "bubble speedup", "bitwise identical"],
        bubble_rows,
    ))

    bubble_phase_rows = [
        [f"{r['workload']} ({label})"]
        + [f"{r[key][phase]:.3f}" for phase in BUBBLE_PHASES]
        for r in payload["workloads"]
        if "bubble_phases" in r
        for label, key in (("reference", "bubble_phases"), ("counted e8m10", "counted_phases"))
    ]
    print(f"\n=== fast bubble plane: phase breakdown, {payload['mode']} mode ===")
    print(format_table(
        ["run"] + [f"{phase} [s]" for phase in BUBBLE_PHASES],
        bubble_phase_rows,
    ))

    phase_rows = [
        [
            r["workload"],
            f"{r['phases']['guard_fill']:.3f}",
            f"{r['phases']['compute_dt']:.3f}",
            f"{r['phases']['regrid']:.3f}",
            f"{r['phases']['flux']:.3f}",
        ]
        for r in payload["workloads"]
        if "phases" in r
    ]
    print(f"\n=== fast plane: phase breakdown, {payload['mode']} mode ===")
    print(format_table(
        ["workload", "guard-fill [s]", "compute_dt [s]", "regrid [s]",
         "flux [s]"],
        phase_rows,
    ))

    trunc_rows = [
        [
            r["workload"],
            f"{r['trunc_instrumented_seconds']:.3f}",
            f"{r['trunc_fast_seconds']:.3f}",
            f"{r['trunc_speedup']:.2f}x",
            "yes",
        ]
        for r in payload["workloads"]
        if "trunc_speedup" in r
    ]
    print(f"\n=== kernel planes: truncated (e8m10) runs, {payload['mode']} mode ===")
    print(format_table(
        ["workload", "instrumented [s]", "trunc-fast [s]", "speedup",
         "bitwise identical"],
        trunc_rows,
    ))

    counted_rows = [
        [
            r["workload"],
            f"{r['counted_instrumented_seconds']:.3f}",
            f"{r['counted_fast_seconds']:.3f}",
            f"{r['counted_speedup']:.2f}x",
            "yes",
        ]
        for r in payload["workloads"]
        if "counted_speedup" in r
    ]
    print(f"\n=== kernel planes: counting (e8m10) runs, {payload['mode']} mode ===")
    print(format_table(
        ["workload", "instrumented [s]", "counted-fast [s]", "speedup",
         "bitwise identical + same counters"],
        counted_rows,
    ))

    cellular_phase_rows = [
        [r["workload"]] + [f"{r['counted_phases'][phase]:.3f}" for phase in CELLULAR_PHASES]
        for r in payload["workloads"]
        if r["workload"] == "cellular"
    ]
    print(f"\n=== counted cellular: phase breakdown, {payload['mode']} mode ===")
    print(format_table(
        ["workload"] + [f"{phase} [s]" for phase in CELLULAR_PHASES],
        cellular_phase_rows,
    ))

    if args.quick and args.out is None:
        # sanity mode: identity + a plausible timing was enough, don't
        # overwrite the tracked record with throwaway numbers
        return 0

    out = Path(args.out) if args.out is not None else RESULTS_PATH
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {out}")

    fast_enough = [r for r in payload["workloads"]
                   if "fast_flux_seconds" in r and r["speedup"] >= 6.0]
    if payload["mode"] == "full" and len(fast_enough) < 2:
        print(
            "WARNING: fewer than two workloads reached the 6x reference "
            "speedup the fused flux pipeline targets", file=sys.stderr,
        )
        return 1
    grid_fast = [r for r in payload["workloads"]
                 if "phases" in r and r["grid_speedup"] >= 1.5]
    if payload["mode"] == "full" and not grid_fast:
        print(
            "WARNING: no AMR workload reached the 1.5x additional speedup "
            "the fused grid plane targets over fast-nogrid", file=sys.stderr,
        )
        return 1
    # the bubble's op-by-op baseline is cheaper per op than the hydro one
    # (no counting contexts in the reference), so its floors sit lower
    trunc_slow = [r for r in payload["workloads"]
                  if "trunc_speedup" in r
                  and r["trunc_speedup"] < (2.5 if r["workload"] == "bubble" else 3.0)]
    if payload["mode"] == "full" and trunc_slow:
        print(
            "WARNING: truncated runs below the speedup floor of the fused "
            "truncating plane: "
            + ", ".join(f"{r['workload']} ({r['trunc_speedup']:.2f}x)" for r in trunc_slow),
            file=sys.stderr,
        )
        return 1
    counted_slow = [r for r in payload["workloads"]
                    if "counted_speedup" in r and r["counted_speedup"] < 3.0]
    if payload["mode"] == "full" and counted_slow:
        print(
            "WARNING: counting runs below the 3x speedup floor of the counted "
            "fused plane: "
            + ", ".join(f"{r['workload']} ({r['counted_speedup']:.2f}x)" for r in counted_slow),
            file=sys.stderr,
        )
        return 1
    bubble_slow = [r for r in payload["workloads"]
                   if "bubble_speedup" in r and r["speedup"] < 1.5]
    if payload["mode"] == "full" and bubble_slow:
        print(
            "WARNING: the fused bubble plane fell below the 1.5x reference "
            "speedup it targets over the instrumented baseline",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
