"""Declarative precision-sweep experiments.

The paper's central experimental loop — sweep truncated floating-point
formats across whole simulations and per-module regions, measure the error
against a full-precision reference, and count the truncated / full
operations — is packaged here as a reusable engine:

>>> from repro.experiments import SweepSpec, PolicySpec, run_sweep
>>> result = run_sweep(SweepSpec(
...     workloads=["kelvin-helmholtz", "sedov"],
...     formats=["fp64", "fp32", "bf16", "fp16"],
...     policies=[PolicySpec.amr_cutoff(1, modules=("hydro",))],
...     backend="process",
... ))
>>> print(result.table())

The package splits into five modules:

* :mod:`~repro.experiments.spec`   — the declarative surface.
  :class:`SweepSpec` names workloads (registry keys), formats, and
  :class:`PolicySpec` truncation recipes; ``spec.shard(i, n)`` slices the
  expanded grid deterministically for multi-host execution.  The
  ``GridSpec`` mixin holds what both experiment specs share.
* :mod:`~repro.experiments.engine` — execution.  One driver,
  :func:`~repro.experiments.engine.run_grid`, runs both experiment
  kinds: one full-precision reference per workload, the grid's units
  fanned out over :mod:`repro.parallel.executor`, failures isolated,
  progress optionally journaled.  :func:`run_sweep` is its fixed-format wrapper and returns a
  :class:`SweepResult`; like every ``GridResult`` it merges shard results
  via ``merge`` and persists them via ``save``/``load``.
* :mod:`~repro.experiments.cache`  — the reference-run cache.
  :class:`ReferenceCache` is a content-addressed, fingerprint-invalidated
  store (in-memory LRU over on-disk ``.npz``) consulted by ``run_sweep``
  so repeated sweeps launch zero reference tasks.
* :mod:`~repro.experiments.adaptive` — the precision-cliff search.
  :func:`find_cliff` bisects the mantissa axis of one (workload, policy)
  pair in O(log n) runs; :func:`run_adaptive_sweep` is the driver's
  wrapper that runs one bisection per cell of a workload × policy grid.
* :mod:`~repro.experiments.journal` — crash-safe checkpointing.
  ``run_sweep(spec, checkpoint=dir)`` and ``run_adaptive_sweep(spec,
  checkpoint=dir)`` journal every resolved point or cell with atomic
  write-then-rename; rerunning the same spec resumes, executing only the
  missing units, bitwise identical to an uninterrupted run.

Fault tolerance is configured on the specs: ``on_error="collect"`` turns
failing points into structured :class:`PointFailure` records instead of
aborting the sweep, ``point_timeout`` bounds each point on the process
backend (hung workers are killed), and ``retries`` bounds fresh-pool
rebuilds for transiently crashing workers.  See the "Fault tolerance"
section of ``docs/architecture.md``.

All of this works uniformly across every registered workload because each
one implements the scenario protocol of :mod:`repro.workloads.scenario`
(``run``/``reference`` → :class:`~repro.workloads.scenario.Outcome`,
plus a workload-specific ``error`` metric and failure predicate).

See ``docs/experiments.md`` for the full protocol, ``docs/architecture.md``
for where each module sits in the system, and ``docs/workloads.md`` for the
scenario gallery.
"""
from .adaptive import (
    AdaptiveCell,
    AdaptiveResult,
    AdaptiveSpec,
    CliffEvaluation,
    CliffResult,
    find_cliff,
    run_adaptive_sweep,
)
from .cache import (
    CacheStats,
    ReferenceCache,
    ReferenceKey,
    reference_key,
    solver_fingerprint,
)
from .engine import (
    NonFiniteStateError,
    PointFailure,
    PointResult,
    ReferenceResult,
    SweepResult,
    checkpoint_signature,
    gather_references,
    nonfinite_variables,
    run_sweep,
)
from .journal import CheckpointMismatchError, SweepJournal, atomic_pickle
from .spec import PolicySpec, SweepPoint, SweepSpec, format_label, resolve_format

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "PolicySpec",
    "PointResult",
    "PointFailure",
    "NonFiniteStateError",
    "nonfinite_variables",
    "ReferenceResult",
    "SweepResult",
    "run_sweep",
    "gather_references",
    # crash-safe checkpoint/resume
    "SweepJournal",
    "CheckpointMismatchError",
    "checkpoint_signature",
    "atomic_pickle",
    "resolve_format",
    "format_label",
    "ReferenceCache",
    "ReferenceKey",
    "CacheStats",
    "reference_key",
    "solver_fingerprint",
    # adaptive cliff search
    "AdaptiveCell",
    "AdaptiveSpec",
    "AdaptiveResult",
    "CliffEvaluation",
    "CliffResult",
    "find_cliff",
    "run_adaptive_sweep",
]
