"""Kernel-plane benchmark: instrumented vs fused plane, per workload.

Times the full-precision *reference* run of each workload on both kernel
planes (see ``repro.kernels``) — ``instrumented`` (op by op) and ``auto``
(the ``fast`` rung: the fused flux pipeline, blocks stacked into one
batched update per substep, through preallocated scratch workspaces) —
verifies the final states are bitwise identical across the planes — the
fused plane's contract — and records the comparison to
``benchmarks/results/BENCH_kernels.json`` so the perf trajectory is tracked
PR-over-PR (the previously recorded ``fast`` rung seconds are carried along as
``previous_fast_seconds``).

A second pass times *truncated* (e8m10, non-counting) runs of the
compressible workloads on the instrumented plane vs the fused truncating
context (``repro.kernels.trunc``, reached via ``plane="auto"``) — the sweep
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
fused reference run — wall-clock attributed to guard-cell fills, ``compute_dt``,
regridding and the flux sweeps — so the grid-side wins stay visible
PR-over-PR next to the end-to-end numbers.  The ``guard_fill`` rung times
one guard fill of the workload's refined initial grid through the
per-block oracle (``tests/grid_oracle.py``) against the stacked fill over
the block store, interleaved, keeping every sample; the fills must agree
bitwise.  The record carries a machine fingerprint.

The bubble workload (incompressible multiphase) gets its own section: its
reference run is timed op-by-op and fused (the ``fast`` rung).  Every
instrumented bubble baseline (reference, truncated, counting) runs inside
``bubble_oracle.swapped()`` (``tests/bubble_oracle.py``), so its
context-free glue is the classic plain-numpy code too; a truncated
(e8m10) pass compares the op-by-op ``TruncatedContext`` path against the
fused truncating bubble twins.  The bubble rows build their
policies explicitly (``_time_bubble``) so the truncated pair shares one
code path with the reference rungs.  A phase breakdown
(advection, diffusion, Poisson solve, level-set reinitialisation) rides
along like the AMR one.

The ``quantize`` rung times the layer under every truncating rung: one
in-place rounding ``Round(fmt, ws=Workspace())(x)`` per call, for e8m10
and e11m20 at 24 to 32,256 lanes (the bubble's 12,288-lane fields and the
stacked hydro updates among them), as the median and interquartile range
over repeats.  The inputs mix random normals across binades with exact
ties of both parities and signed zeros, all on the round-to-nearest-even
fast path; each output must equal, bitwise, the general path's rounding of
the same lanes, or the run exits non-zero (``--quick`` included).
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_kernels.json"

#: the per-block grid oracle and the bubble glue oracle live with the tests
TESTS = Path(__file__).resolve().parent.parent / "tests"

#: interleaved oracle/store guard-fill samples per AMR workload
GUARD_FILL_SAMPLES = dict(full=40, quick=5)

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

#: timing variants: label -> plane (bubble rows included)
VARIANTS = (
    ("instrumented", "instrumented"),
    ("fast", "auto"),
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

#: the quantize rung: formats (exp_bits, man_bits), lane counts, and
#: (samples, roundings per sample) per mode — a sample is timed over
#: ``max(1, roundings // lanes)`` calls
QUANTIZE_FORMATS = ((8, 10), (11, 20))
QUANTIZE_LANES = (24, 1_536, 12_288, 32_256)
QUANTIZE_REPEATS = dict(full=(41, 100_000), quick=(5, 20_000))


def _test_oracle(name: str):
    """One of the test oracles (``tests/grid_oracle.py``,
    ``tests/bubble_oracle.py``)."""
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    return importlib.import_module(name)


def _time_reference(workload_factory, plane: str, repeat: int):
    """Best-of-``repeat`` wall-clock of a reference run on ``plane``."""
    best = np.inf
    outcome = None
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
    """Wall-clock per phase of one fused reference run of an AMR workload.

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
        workload_factory().reference(plane="auto")
    finally:
        AMRGrid.fill_guard_cells = originals["fill"]
        HydroSolver.compute_dt = originals["dt"]
        AMRGrid.regrid = originals["regrid"]
        HydroSolver._substep = originals["substep"]
    return {key: round(value, 6) for key, value in acc.items()}


def _guard_fill_record(workload_factory, samples: int):
    """One guard fill of the refined initial grid: per-block oracle vs the
    stacked fill over the block store, interleaved sample by sample.

    The topology plan is built (and timed) once before the samples, as a
    run builds it once per topology; both fills must leave the grid
    bitwise identical.
    """
    grid_oracle = _test_oracle("grid_oracle")
    from repro.kernels.grid import TopologyPlan

    grid = workload_factory().initial_state()
    start = time.perf_counter()
    TopologyPlan(grid)
    plan_seconds = time.perf_counter() - start
    grid.fill_guard_cells()
    oracle, store = [], []
    for _ in range(samples):
        start = time.perf_counter()
        grid_oracle.fill_guard_cells(grid)
        oracle.append(time.perf_counter() - start)
        after_oracle = grid.unk.copy()
        start = time.perf_counter()
        grid.fill_guard_cells()
        store.append(time.perf_counter() - start)
        if grid.unk.tobytes() != after_oracle.tobytes():
            raise SystemExit("GUARD-FILL MISMATCH: the stacked fill differs from the oracle")
    oracle_s, store_s = statistics.median(oracle), statistics.median(store)
    return {
        "n_leaves": grid.n_leaves,
        "oracle_seconds": oracle_s,
        "store_seconds": store_s,
        "plan_build_seconds": plan_seconds,
        "speedup": oracle_s / store_s if store_s > 0 else float("inf"),
        "oracle_samples": oracle,
        "store_samples": store,
    }


def _fingerprint() -> dict:
    """The machine the record was taken on."""
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {
        "cpu": cpu or platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _time_bubble(workload_factory, plane: str, repeat: int,
                 truncated: bool = False, counting: bool = False):
    """Best-of-``repeat`` wall-clock of a bubble run on ``plane``.

    The full-precision baseline is a non-counting
    ``NoTruncationPolicy(plane="instrumented")``, which keeps the bubble
    solver's own full-precision context op-by-op; every instrumented run
    sits inside ``bubble_oracle.swapped()``, so the context-free glue is
    the classic plain-numpy code as well.  ``truncated=True`` times
    the non-counting e8m10 run
    instead (op-by-op ``TruncatedContext`` on the instrumented plane, the
    fused truncating twins on ``"auto"``) — the counting one when
    ``counting`` (the counted fused plane on ``"auto"``).
    """
    from repro.core import (FPFormat, GlobalPolicy, NoTruncationPolicy,
                            RaptorRuntime, TruncationConfig)

    best = np.inf
    outcome = None
    oracle = (_test_oracle("bubble_oracle").swapped() if plane == "instrumented"
              else contextlib.nullcontext())
    with oracle:
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
        run()
    finally:
        for key, (owner, attr) in targets.items():
            setattr(owner, attr, originals[key])
    return {key: round(value, 6) for key, value in acc.items()}


def _bubble_phase_breakdown(workload_factory, counting: bool = False):
    """Wall-clock per phase of one fused bubble run: advection and
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
                                        track_memory=False, plane="auto")
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
    for label, plane in VARIANTS:
        secs, outcome = _time_bubble(factory, plane, repeat)
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

    slow_secs, slow_out = _time_bubble(factory, "instrumented", repeat, truncated=True)
    fast_secs, fast_out = _time_bubble(factory, "auto", repeat, truncated=True)
    for key in slow_out.state:
        if not np.array_equal(slow_out.state[key], fast_out.state[key]):
            raise SystemExit(
                f"PLANE MISMATCH: truncated bubble variable {key!r} differs "
                "between the instrumented plane and the fused truncating "
                "bubble plane — the truncating plane's bit-identity contract "
                "is broken"
            )

    counted = _counted_record("bubble", factory, repeat, lambda plane: _time_bubble(
        factory, plane, repeat, truncated=True, counting=True))

    return {
        "workload": "bubble",
        "config": config,
        "repeat": repeat,
        "instrumented_seconds": seconds["instrumented"],
        "fast_seconds": seconds["fast"],
        "previous_fast_seconds": previous.get("bubble"),
        "speedup": seconds["instrumented"] / seconds["fast"]
        if seconds["fast"] > 0 else float("inf"),
        "bitwise_identical": True,
        "bubble_phases": _bubble_phase_breakdown(factory),
        "trunc_instrumented_seconds": slow_secs,
        "trunc_fast_seconds": fast_secs,
        "trunc_speedup": slow_secs / fast_secs if fast_secs > 0 else float("inf"),
        **counted,
        "counted_phases": _bubble_phase_breakdown(factory, counting=True),
    }


def _quantize_inputs(fmt, lanes: int, rng) -> np.ndarray:
    """Fast-path lanes of ``fmt``: random normals across binades, exact
    ties between grid neighbours with even and with odd last bits, and
    zeros of both signs."""
    expo = rng.integers(max(fmt.emin, -20), min(fmt.emax, 20), lanes).astype(float)
    x = rng.choice([-1.0, 1.0], lanes) * rng.uniform(1.0, 2.0, lanes) * np.exp2(expo)
    k = rng.integers(0, 2 ** fmt.man_bits, lanes // 4).astype(float)
    ties = (2.0 ** fmt.man_bits + k + 0.5) * np.exp2(expo[: lanes // 4] - fmt.man_bits)
    x[: lanes // 4] = np.where(rng.random(lanes // 4) < 0.5, ties, -ties)
    x[lanes // 4: lanes // 4 + 2] = (0.0, -0.0)
    return rng.permutation(x)


def _quantize_record(quick: bool, previous):
    """Per-call time of one in-place ``Round(fmt, ws=Workspace())`` rounding,
    checked bitwise against the general path.

    The general path's rounding of the same lanes comes from rounding them
    next to one NaN lane, which sends the whole array there; every step of
    that path is element-wise, so the other lanes keep their own rounding.
    """
    from repro.core import FPFormat, quantize
    from repro.core.quantize import quantize_rne_bits
    from repro.kernels.scratch import Workspace
    from repro.kernels.trunc import Round

    samples, roundings = QUANTIZE_REPEATS["quick" if quick else "full"]
    rng = np.random.default_rng(20)
    rows = []
    for exp_bits, man_bits in QUANTIZE_FORMATS:
        fmt = FPFormat(exp_bits, man_bits)
        for lanes in QUANTIZE_LANES:
            x = _quantize_inputs(fmt, lanes, rng)
            general = quantize(np.append(x, np.nan), fmt)[:-1]
            if quantize_rne_bits(x, fmt) is None:
                raise SystemExit(f"QUANTIZE RUNG: e{exp_bits}m{man_bits} inputs "
                                 "leave the round-to-nearest-even fast path")
            q = Round(fmt, ws=Workspace())
            buf = x.copy()
            q(buf)
            first = buf.copy()
            calls = max(1, roundings // lanes)
            times = []
            for _ in range(samples):
                start = time.perf_counter()
                for _ in range(calls):
                    q(buf)
                times.append((time.perf_counter() - start) / calls)
            # rounding is idempotent: the repeated calls must keep the bits
            for got in (first, buf):
                if got.view(np.uint64).tobytes() != general.view(np.uint64).tobytes():
                    raise SystemExit(
                        f"QUANTIZE MISMATCH: e{exp_bits}m{man_bits} at {lanes} lanes "
                        "differs from the general path"
                    )
            q1, median, q3 = statistics.quantiles(times, n=4)
            label = f"e{exp_bits}m{man_bits}"
            rows.append({
                "format": label,
                "lanes": lanes,
                "calls_per_sample": calls,
                "median_us": 1e6 * median,
                "iqr_us": 1e6 * (q3 - q1),
                "previous_median_us": previous.get((label, lanes)),
                "samples_us": [1e6 * t for t in times],
                "bitwise_general": True,
            })
    return rows


def _previous_record():
    """The committed record's fast-plane seconds per workload and quantize
    medians per (format, lanes) (PR-over-PR trail)."""
    try:
        with open(RESULTS_PATH, encoding="utf-8") as fh:
            payload = json.load(fh)
        return (
            {r["workload"]: r.get("fast_seconds") for r in payload.get("workloads", [])},
            {(r["format"], r["lanes"]): r["median_us"] for r in payload.get("quantize", [])},
        )
    except (OSError, ValueError, KeyError):
        return {}, {}


def run_benchmark(quick: bool, repeat: int):
    from repro.workloads import create_workload

    flavour = "quick" if quick else "full"
    previous, previous_quantize = _previous_record()
    quantize_rows = _quantize_record(quick, previous_quantize)
    records = []
    for name, variants in CONFIGS.items():
        config = variants[flavour]
        factory = lambda: create_workload(name, **config)

        seconds = {}
        baseline = None
        for label, plane in VARIANTS:
            secs, outcome = _time_reference(factory, plane, repeat)
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
            "fast_seconds": seconds["fast"],
            "previous_fast_seconds": previous.get(name),
            "speedup": seconds["instrumented"] / seconds["fast"]
            if seconds["fast"] > 0 else float("inf"),
            "bitwise_identical": True,
        }

        if name != "cellular":
            record["phases"] = _phase_breakdown(factory)
            record["guard_fill"] = _guard_fill_record(factory, GUARD_FILL_SAMPLES[flavour])

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
    return {"mode": flavour, "fingerprint": _fingerprint(), "workloads": records,
            "quantize": quantize_rows}


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
            f"{r['fast_seconds']:.3f}",
            f"{r['speedup']:.2f}x",
            "yes",
        ]
        for r in payload["workloads"]
        if r["workload"] != "bubble"
    ]
    print(f"\n=== kernel planes: reference runs, {payload['mode']} mode ===")
    print(format_table(
        ["workload", "instrumented [s]", "fast [s]", "speedup", "bitwise identical"],
        rows,
    ))

    quantize_rows = [
        [
            r["format"],
            str(r["lanes"]),
            f"{r['median_us']:.2f}",
            f"{r['iqr_us']:.2f}",
            "-" if r["previous_median_us"] is None else f"{r['previous_median_us']:.2f}",
            "yes",
        ]
        for r in payload["quantize"]
    ]
    print(f"\n=== quantize: one in-place Round(fmt, ws) rounding per call, "
          f"{payload['mode']} mode (median and IQR over samples) ===")
    print(format_table(
        ["format", "lanes", "median [us]", "IQR [us]", "previous [us]",
         "bitwise general path"],
        quantize_rows,
    ))

    guard_rows = [
        [
            r["workload"],
            str(r["guard_fill"]["n_leaves"]),
            f"{1e3 * r['guard_fill']['oracle_seconds']:.3f}",
            f"{1e3 * r['guard_fill']['store_seconds']:.3f}",
            f"{1e3 * r['guard_fill']['plan_build_seconds']:.3f}",
            f"{r['guard_fill']['speedup']:.1f}x",
        ]
        for r in payload["workloads"]
        if "guard_fill" in r
    ]
    print(f"\n=== guard fill of the initial grid: per-block oracle vs block store, "
          f"{payload['mode']} mode (median of interleaved samples) ===")
    print(format_table(
        ["workload", "leaves", "oracle [ms]", "store [ms]", "plan build [ms]", "speedup"],
        guard_rows,
    ))

    bubble_rows = [
        [
            r["workload"],
            f"{r['instrumented_seconds']:.3f}",
            f"{r['fast_seconds']:.3f}",
            f"{r['speedup']:.2f}x",
            "yes",
        ]
        for r in payload["workloads"]
        if r["workload"] == "bubble"
    ]
    print(f"\n=== bubble plane: reference runs (instrumented: oracle-swapped glue), "
          f"{payload['mode']} mode ===")
    print(format_table(
        ["workload", "instrumented [s]", "fast [s]", "speedup", "bitwise identical"],
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
                   if r["workload"] != "bubble" and r["speedup"] >= 6.0]
    if payload["mode"] == "full" and len(fast_enough) < 2:
        print(
            "WARNING: fewer than two workloads reached the 6x reference "
            "speedup the fused flux pipeline targets", file=sys.stderr,
        )
        return 1
    fill_slow = [r for r in payload["workloads"]
                 if "guard_fill" in r and r["guard_fill"]["speedup"] < 3.0]
    if payload["mode"] == "full" and fill_slow:
        print(
            "WARNING: the stacked guard fill fell below the 3x floor over the "
            "per-block oracle: "
            + ", ".join(f"{r['workload']} ({r['guard_fill']['speedup']:.2f}x)" for r in fill_slow),
            file=sys.stderr,
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
                   if r["workload"] == "bubble" and r["speedup"] < 1.5]
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
