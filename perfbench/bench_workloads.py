"""The benchmark's workloads: inputs drawn from a seed, set-up, the timed
call into the public API, and the output digest.

* ``sweep-counted`` — the default user path: serial ``run_sweep`` with
  ``count_point_ops=True`` and the default ``global[hydro]`` policy over
  sod + kelvin-helmholtz x 3 formats.  Op-by-op counting dominates.
* ``sweep-fast`` — the non-counting production path: ``run_sweep`` on the
  ``process`` backend with two workers, a cold ``cache_dir`` and a fresh
  checkpoint journal per repetition, over sod + sedov + kelvin-helmholtz
  x 6 formats.  Fused kernels, executor IPC, cache and journal writes.
* ``cliff-search`` — ``run_adaptive_sweep`` on the serial backend with
  ``count_probe_ops=True`` over bubble and cellular, mantissa widths
  2..52, against a reference cache primed during set-up.

The seed draws the mantissa widths of the two sweeps' formats; the exponent
stays at 8 bits, so no format overflows and every failure is a system
failure, not a precision cliff.  The default seed gives fp32/bf16/e8m10 and
e8m23/16/12/10/8/7.  The cliff search has fixed inputs.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

WORKLOADS = ("sweep-counted", "sweep-fast", "cliff-search")

#: canonical mantissa widths of the default seed
DEFAULT_WIDTHS = {"sweep-counted": (23, 7, 10), "sweep-fast": (23, 16, 12, 10, 8, 7)}

_BLOCKS = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, rk_stages=1)


def _compressible(t_sod, t_sedov, t_kh, max_level=3):
    return {
        "sod": dict(_BLOCKS, max_level=max_level, t_end=t_sod, reconstruction="plm"),
        "sedov": dict(_BLOCKS, max_level=max_level, t_end=t_sedov, reconstruction="weno5"),
        "kelvin-helmholtz": dict(_BLOCKS, max_level=2, t_end=t_kh),
    }


#: workload configs per problem size ("toy" is for the self-test only).
#: Full size: two steps of each compressible solver per point (sedov:
#: three), five bubble steps (two of spin-up) and five cellular steps.
SIZES = {
    "full": {
        **_compressible(0.006, 0.004, 0.006),
        "bubble": dict(spin_up_time=0.008, truncation_time=0.012,
                       snapshot_times=(0.012,), fixed_dt=0.004),
        "cellular": dict(n_cells=24, n_steps=5),
    },
    "toy": {
        **_compressible(0.002, 0.001, 0.001, max_level=2),
        "bubble": dict(spin_up_time=0.004, truncation_time=0.004,
                       snapshot_times=(0.004,), fixed_dt=0.004),
        # the detonation needs five steps to show its front advancing
        "cellular": dict(n_cells=16, n_steps=5),
    },
}

#: widths are drawn from this range for seeds other than the default
WIDTH_RANGE = range(7, 24)


def draw_widths(workload: str, seed: int):
    """Mantissa widths of a sweep's formats for ``seed``."""
    canonical = DEFAULT_WIDTHS[workload]
    if seed == DEFAULT_SEED:
        return canonical
    return tuple(sorted(random.Random(seed).sample(WIDTH_RANGE, len(canonical)), reverse=True))


@dataclass
class Prepared:
    """One repetition's set-up: the call that runs it."""

    call: Callable[[], object]
    #: the public backend the call runs on
    backend: str
    workers: int


def prepare(workload: str, seed: int, size: str, scratch: Path, backend: str = "") -> Prepared:
    """Build, validate and (for the cliff search) prime one repetition.

    ``scratch`` is a fresh directory of this repetition; the cache and the
    journal live under it.  ``backend`` overrides the workload's backend
    (the traced serial pass of ``sweep-fast``)."""
    from repro.experiments import (
        AdaptiveSpec, ReferenceCache, SweepSpec, gather_references, run_adaptive_sweep, run_sweep,
    )

    configs = SIZES[size]
    if workload == "sweep-counted":
        names = ("sod", "kelvin-helmholtz")
        spec = SweepSpec(
            workloads=names,
            formats=[f"e8m{m}" for m in draw_widths(workload, seed)],
            workload_configs={name: configs[name] for name in names},
            backend=backend or "serial",
            on_error="collect",
        )
        spec.validate()
        return Prepared(lambda: run_sweep(spec), spec.backend, 1)

    if workload == "sweep-fast":
        names = ("sod", "sedov", "kelvin-helmholtz")
        backend = backend or "process"
        workers = 2 if backend == "process" else 1
        spec = SweepSpec(
            workloads=names,
            formats=[f"e8m{m}" for m in draw_widths(workload, seed)],
            workload_configs={name: configs[name] for name in names},
            count_point_ops=False,
            backend=backend,
            max_workers=workers if backend == "process" else None,
            cache_dir=str(scratch / "cache"),
            on_error="collect",
        )
        spec.validate()
        journal = scratch / "journal"
        return Prepared(lambda: run_sweep(spec, checkpoint=journal), backend, workers)

    if workload == "cliff-search":
        names = ("bubble", "cellular")
        spec = AdaptiveSpec(
            workloads=names,
            min_man_bits=2,
            max_man_bits=52,
            exp_bits=8,
            thresholds={"bubble": 1e-4},
            workload_configs={name: configs[name] for name in names},
            backend=backend or "serial",
            cache_dir=str(scratch / "cache"),
            on_error="collect",
        )
        spec.validate()
        gather_references(names, spec.config_kwargs, cache=ReferenceCache(spec.cache_dir))
        return Prepared(lambda: run_adaptive_sweep(spec), spec.backend, 1)

    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------
def is_cliff_result(result) -> bool:
    return hasattr(result, "cliffs")


def units(result) -> int:
    """Sweep points or cliff probes completed."""
    if is_cliff_result(result):
        return sum(cliff.n_runs for cliff in result.cliffs)
    return len(result.points)


def failures(result) -> int:
    """``PointFailure`` records plus failed probes."""
    failed = len(result.failures)
    if is_cliff_result(result):
        failed += sum(len(cliff.probe_failures) for cliff in result.cliffs)
    return failed


def attempted(result) -> int:
    """Operations the call attempted: every point or probe, failed or not."""
    return units(result) + len(result.failures)


def digest(result) -> str:
    """Hash of every point's ``metrics_key()`` (and failure keys), or of
    every cliff and its evaluations, in result order."""
    h = hashlib.sha256()
    if is_cliff_result(result):
        for cliff in result.cliffs:
            evaluations = [
                (e.man_bits, e.error, e.passed, e.truncated_fraction, sorted(e.info.items()))
                for e in cliff.evaluations
            ]
            h.update(repr((cliff.index, cliff.workload, cliff.cliff_man_bits, evaluations)).encode())
    else:
        for point in result.points:
            h.update(repr(point.metrics_key()).encode())
    for failure in result.failures:
        h.update(repr(failure.failure_key()).encode())
    return h.hexdigest()[:16]
