"""Adaptive precision-cliff search: O(log n) bisection of the mantissa axis.

A fixed-grid sweep answers "how does the error grow as mantissa bits
shrink" with one run per grid point.  Most experimental questions only need
the *cliff* — the smallest mantissa width at which a workload still passes
its failure predicate (an error threshold, or a physics invariant such as
cellular's "the detonation still propagates and the EOS still converges").
Because pass/fail is monotone in the mantissa width for these workloads,
the cliff can be located by bisection with at most ``ceil(log2(n)) + 1``
runs over an ``n``-point grid instead of ``n`` runs.

Two entry points:

* :func:`find_cliff` — bisect one (workload, policy) pair.  Accepts a
  registry name or a workload instance; reuses the
  :class:`~repro.experiments.cache.ReferenceCache` for the full-precision
  reference.
* :func:`run_adaptive_sweep` — drive :func:`find_cliff` across a
  workload × policy grid (:class:`AdaptiveSpec`) through the engine's one
  grid driver, :func:`~repro.experiments.engine.run_grid`: the same
  deterministic ordering, sharding (:meth:`AdaptiveSpec.shard` /
  :meth:`AdaptiveResult.merge`), reference cache, failure isolation and
  checkpoint journal (one entry per resolved cell) as
  :func:`~repro.experiments.engine.run_sweep`.

Everything a bisection evaluates is a pure function of (workload config,
policy, mantissa bits), so serial and process backends — and any shard
partition — produce bitwise-identical cliff results.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.fpformat import FPFormat
from ..core.quantize import RoundingMode
from ..core.report import format_table
from ..core.runtime import RaptorRuntime
from ..workloads.registry import (
    UnknownWorkloadError,
    canonical_name,
    create_workload,
    get_workload_class,
)
from ..workloads.scenario import Outcome, scenario_protocol_errors
from .cache import ReferenceCache, reference_key
from .engine import (
    GridResult,
    Label,
    NonFiniteStateError,
    PointFailure,
    ReferenceResult,
    _build_prefix,
    _exception_failure,
    _isolated,
    _prefix_kwargs,
    nonfinite_variables,
    run_grid,
    run_reference,
)
# unused here: perfbench/bench_trace.py's trace targets resolve these two names in this module
from .engine import gather_references, run_tasks  # noqa: F401
from .spec import GridSpec, PolicySpec, validate_alias_keyed_mapping, validate_fault_tolerance

__all__ = [
    "AdaptiveCell",
    "AdaptiveSpec",
    "AdaptiveResult",
    "CliffEvaluation",
    "CliffResult",
    "default_policy_for",
    "find_cliff",
    "run_adaptive_sweep",
]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
@dataclass
class CliffEvaluation:
    """One bisection probe: a full workload run at one mantissa width.

    Under ``on_error="collect"`` a probe that raises (or blows up to
    non-finite state) becomes a *failed* evaluation — ``passed=False``,
    ``error=inf`` — carrying the structured
    :class:`~repro.experiments.engine.PointFailure` in ``failure``, so the
    bisection continues instead of aborting the whole cell.  Treating a
    crash as "past the cliff" is sound for the same monotonicity reason the
    bisection itself is: solver failures set in *below* the precision
    cliff, not above it.
    """

    man_bits: int
    error: float
    passed: bool
    truncated_fraction: float
    info: Dict[str, float] = field(default_factory=dict)
    failure: Optional[PointFailure] = None

    def __setstate__(self, state) -> None:
        # evaluations pickled before the fault-tolerance layer
        self.__dict__.update(state)
        self.__dict__.setdefault("failure", None)


@dataclass
class CliffResult:
    """Outcome of one (workload, policy) cliff search."""

    workload: str
    policy: PolicySpec
    exp_bits: int
    min_man_bits: int
    max_man_bits: int
    threshold: Optional[float]
    #: smallest mantissa width in range that passes the failure predicate,
    #: or ``None`` when even ``max_man_bits`` fails
    cliff_man_bits: Optional[int]
    #: probes in evaluation order (the bisection trace)
    evaluations: List[CliffEvaluation]
    #: global cell index in the adaptive grid (0 for standalone searches)
    index: int = 0

    @property
    def found(self) -> bool:
        return self.cliff_man_bits is not None

    @property
    def n_runs(self) -> int:
        return len(self.evaluations)

    @property
    def grid_points(self) -> int:
        """Size of the fixed grid the bisection replaces."""
        return self.max_man_bits - self.min_man_bits + 1

    @property
    def last_failing_bits(self) -> Optional[int]:
        """The widest mantissa observed to fail, or ``None`` when every
        probe passed (the cliff sits at or below ``min_man_bits``)."""
        failing = [e.man_bits for e in self.evaluations if not e.passed]
        return max(failing) if failing else None

    @property
    def probe_failures(self) -> List[PointFailure]:
        """Structured failures of probes that raised or blew up (collect
        mode only; empty for a clean search)."""
        return [e.failure for e in self.evaluations if e.failure is not None]

    def describe(self) -> str:
        where = f"m{self.cliff_man_bits}" if self.found else "not found in range"
        return (
            f"{self.workload} / {self.policy.describe()}: cliff {where} "
            f"({self.n_runs} runs vs {self.grid_points}-point grid)"
        )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "policy": self.policy.describe(),
            "exp_bits": self.exp_bits,
            "min_man_bits": self.min_man_bits,
            "max_man_bits": self.max_man_bits,
            "threshold": self.threshold,
            "cliff_man_bits": self.cliff_man_bits,
            "n_runs": self.n_runs,
            "grid_points": self.grid_points,
            "evaluations": [
                {
                    "man_bits": e.man_bits,
                    "error": e.error,
                    "passed": e.passed,
                    "truncated_fraction": e.truncated_fraction,
                    **({"failure": e.failure.to_dict()} if e.failure is not None else {}),
                }
                for e in self.evaluations
            ],
        }


# ---------------------------------------------------------------------------
# the bisection core
# ---------------------------------------------------------------------------
def bisect_cliff(
    evaluate: Callable[[int], CliffEvaluation],
    min_man_bits: int,
    max_man_bits: int,
) -> Tuple[Optional[int], List[CliffEvaluation]]:
    """Locate the smallest passing mantissa width in
    ``[min_man_bits, max_man_bits]`` assuming pass/fail is monotone.

    Probes ``max_man_bits`` first (1 run); if it fails there is no cliff in
    range.  Otherwise a standard bisection with a virtual failing bound at
    ``min_man_bits - 1`` needs ``ceil(log2(n))`` more probes for an
    ``n``-point range — ``ceil(log2(n)) + 1`` total, the engine-level
    guarantee the tests pin down.
    """
    if min_man_bits < 1:
        raise ValueError("min_man_bits must be >= 1")
    if max_man_bits < min_man_bits:
        raise ValueError("max_man_bits must be >= min_man_bits")
    evaluations: List[CliffEvaluation] = []

    def probe(bits: int) -> CliffEvaluation:
        evaluation = evaluate(bits)
        evaluations.append(evaluation)
        return evaluation

    if not probe(max_man_bits).passed:
        return None, evaluations
    lo, hi = min_man_bits - 1, max_man_bits  # invariant: fail(lo), pass(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid).passed:
            hi = mid
        else:
            lo = mid
    return hi, evaluations


def max_bisection_runs(min_man_bits: int, max_man_bits: int) -> int:
    """The run-count guarantee of :func:`bisect_cliff`:
    ``ceil(log2(n)) + 1`` for an ``n``-point mantissa range."""
    n = max_man_bits - min_man_bits + 1
    return (math.ceil(math.log2(n)) if n > 1 else 0) + 1


# ---------------------------------------------------------------------------
# single-cell search
# ---------------------------------------------------------------------------
def default_policy_for(workload) -> PolicySpec:
    """A global policy over the workload's own ``default_modules`` — the
    policy that actually exercises this scenario's truncation targets
    (hydro / eos / advection+diffusion).  A policy that misses them would
    truncate nothing and make every probe pass vacuously."""
    cls = get_workload_class(workload) if isinstance(workload, str) else type(workload)
    modules = tuple(getattr(cls, "default_modules", ())) or None
    return PolicySpec(kind="global", modules=modules)


def _evaluate_bits(
    workload,
    policy: PolicySpec,
    reference: Outcome,
    man_bits: int,
    exp_bits: int,
    rounding: str,
    threshold: Optional[float],
    plane: str = "auto",
    count_ops: bool = True,
    check_finite: bool = False,
    prefix=None,
) -> CliffEvaluation:
    runtime = RaptorRuntime(f"{workload.name}-cliff-m{man_bits}")
    built = policy.build(
        FPFormat(exp_bits, man_bits), runtime,
        rounding=rounding, plane=plane, count_ops=count_ops,
    )
    outcome = workload.run(policy=built, runtime=runtime, **_prefix_kwargs(prefix))
    if check_finite:
        bad = nonfinite_variables(outcome.state)
        if bad:
            raise NonFiniteStateError(
                f"non-finite values in final state variable(s) {bad} at "
                f"t={outcome.time:g} — the m{man_bits} probe blew up"
            )
    evaluate = getattr(workload, "evaluate", None)
    if evaluate is not None:
        error, passed = evaluate(outcome, reference, threshold=threshold)
    else:
        # duck-typed scenario without the combined-evaluation shortcut
        error = float(workload.error(outcome, reference))
        passed = bool(workload.acceptable(outcome, reference, threshold=threshold))
    return CliffEvaluation(
        man_bits=man_bits,
        error=error,
        passed=passed,
        truncated_fraction=runtime.ops.truncated_fraction,
        info=dict(outcome.info),
    )


def find_cliff(
    workload,
    policy: Optional[PolicySpec] = None,
    *,
    config_kwargs: Optional[Mapping[str, object]] = None,
    min_man_bits: int = 2,
    max_man_bits: int = 52,
    exp_bits: int = 11,
    threshold: Optional[float] = None,
    rounding: str = RoundingMode.NEAREST_EVEN,
    cache: Union[ReferenceCache, str, None] = None,
    reference: Optional[Outcome] = None,
    index: int = 0,
    plane: str = "auto",
    count_ops: bool = True,
    on_error: str = "raise",
    prefix=None,
) -> CliffResult:
    """Bisect the mantissa axis of one (workload, policy) pair.

    ``workload`` is a registry name (then ``config_kwargs`` parameterise its
    ``config_class``) or a ready-made workload instance.  The failure
    predicate is the workload's :meth:`~repro.workloads.scenario.Scenario.acceptable`
    — an error threshold for the compressible and bubble scenarios, the
    detonation invariant for cellular — with ``threshold`` overriding the
    class default.  The full-precision ``reference`` is taken from the
    argument, from ``cache`` (a :class:`ReferenceCache` or a directory
    path), or computed on the spot (non-counting, so fused unless
    ``plane="instrumented"``; ``plane`` likewise selects the plane of every
    probe's non-truncating contexts — see :mod:`repro.kernels`).  Every
    probe (and a computed reference) starts from one ``prefix``, the
    workload's ``initial_state()``, built here unless one is passed.

    ``on_error="collect"`` isolates probe failures: a probe that raises, or
    finishes with non-finite state, becomes a failed
    :class:`CliffEvaluation` carrying a structured ``failure`` record (see
    that class) and the bisection continues; a shared prefix that fails to
    build is left to the probes, so each records that failure.  With a
    computed reference, that reference's own build still raises.  The
    default ``"raise"``
    preserves today's behaviour — the first probe exception aborts the
    search.
    """
    validate_fault_tolerance(on_error, None, None)
    if isinstance(workload, str):
        obj = create_workload(workload, **dict(config_kwargs or {}))
    else:
        if config_kwargs:
            raise ValueError("pass config_kwargs only with a workload name")
        obj = workload
    problems = scenario_protocol_errors(type(obj))
    if problems:
        raise ValueError(
            f"workload {obj!r} does not implement the scenario protocol: "
            + "; ".join(problems)
        )
    pol = policy if policy is not None else default_policy_for(obj)
    declared = tuple(getattr(obj, "default_modules", ()))
    if declared and pol.modules is not None and not set(declared) & set(pol.modules):
        # a policy restricted to modules this scenario never consults
        # truncates nothing: every probe passes trivially and the reported
        # "cliff" would sit vacuously at min_man_bits
        warnings.warn(
            f"policy {pol.describe()!r} does not cover any truncation target "
            f"of workload {obj.name!r} (default_modules={declared}); every "
            "probe will run untruncated and the reported cliff is vacuous",
            RuntimeWarning,
            stacklevel=2,
        )

    collect = on_error == "collect"
    if prefix is None:
        try:
            prefix = _build_prefix(obj)
        except Exception:
            if not collect:
                raise
            # every probe retries the build inside its own isolation and
            # records the failure, as it would without a shared prefix
            prefix = None
    if reference is None:
        ref_cache = cache if isinstance(cache, ReferenceCache) else (
            ReferenceCache(cache) if cache is not None else None
        )
        key = None
        if ref_cache is not None:
            if isinstance(workload, str):
                key = reference_key(workload, config_kwargs)
            else:
                # a ready-made instance: key its live config directly; only
                # registered workloads are cacheable (the registry name is
                # part of the content address)
                try:
                    key = reference_key(obj.name, config=getattr(obj, "config", None))
                except UnknownWorkloadError:
                    key = None
        if key is not None:
            reference = ref_cache.get(key)
            if reference is None:
                reference = run_reference(obj, plane=plane, prefix=prefix).detach()
                ref_cache.put(key, reference)
        else:
            reference = run_reference(obj, plane=plane, prefix=prefix).detach()

    def evaluate(bits: int) -> CliffEvaluation:
        if not collect:
            return _evaluate_bits(
                obj, pol, reference, bits, exp_bits, rounding, threshold,
                plane=plane, count_ops=count_ops, prefix=prefix,
            )
        probe_started = time.perf_counter()
        try:
            return _evaluate_bits(
                obj, pol, reference, bits, exp_bits, rounding, threshold,
                plane=plane, count_ops=count_ops, check_finite=True, prefix=prefix,
            )
        except Exception as exc:
            # a crashing/blowing-up probe counts as a failed width; the
            # bisection's monotonicity assumption covers it (failures set
            # in below the cliff) and the record keeps the evidence
            return CliffEvaluation(
                man_bits=bits,
                error=float("inf"),
                passed=False,
                truncated_fraction=0.0,
                failure=_exception_failure(
                    exc,
                    (index, obj.name, f"e{exp_bits}m{bits}", pol.describe()),
                    time.perf_counter() - probe_started,
                ),
            )

    cliff, evaluations = bisect_cliff(evaluate, min_man_bits, max_man_bits)
    return CliffResult(
        workload=obj.name,
        policy=pol,
        exp_bits=exp_bits,
        min_man_bits=min_man_bits,
        max_man_bits=max_man_bits,
        threshold=threshold,
        cliff_man_bits=cliff,
        evaluations=evaluations,
        index=index,
    )


# ---------------------------------------------------------------------------
# the adaptive grid
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptiveCell:
    """One cell of the adaptive grid, in deterministic enumeration order."""

    index: int
    workload: str
    policy: PolicySpec

    def describe(self) -> str:
        return f"{self.workload} / {self.policy.describe()}"


@dataclass
class AdaptiveSpec(GridSpec):
    """Declarative cliff search: workloads × policies, one bisection each.

    Mirrors :class:`~repro.experiments.spec.SweepSpec` — registry-name
    workloads, alias-aware per-workload configs, serial/process backends,
    cache directory, and deterministic ``shard(i, n)`` partitions, all from
    the shared :class:`~repro.experiments.spec.GridSpec` — but the
    format axis is replaced by a mantissa *range* that each cell bisects.
    ``policies=None`` (the default) gives every workload one global policy
    over its own ``default_modules`` (hydro for compressible, eos for
    cellular, advection+diffusion for bubble) — a fixed policy list that
    misses a workload's modules would truncate nothing and report a
    meaningless cliff at ``min_man_bits``.  ``thresholds`` overrides the
    per-workload failure threshold (keyed alias-aware, like
    ``workload_configs``); ``threshold`` is a global override applied to
    every workload without a specific entry.
    """

    workloads: Sequence[str] = ("sedov",)
    policies: Optional[Sequence[PolicySpec]] = None
    min_man_bits: int = 2
    max_man_bits: int = 52
    exp_bits: int = 11
    threshold: Optional[float] = None
    thresholds: Mapping[str, float] = field(default_factory=dict)
    workload_configs: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    rounding: str = RoundingMode.NEAREST_EVEN
    #: kernel plane of non-truncating contexts (references + untruncated
    #: probe modules); same semantics as :attr:`SweepSpec.plane`
    plane: str = "auto"
    #: record op/mem counters in the probes (default).  ``False`` builds
    #: non-counting probe policies, routing truncated probe contexts onto
    #: the fused truncating context under ``plane="auto"`` —
    #: bit-identical pass/fail decisions, much faster bisections, but
    #: ``truncated_fraction`` reads zero in the evaluations.
    count_probe_ops: bool = True
    backend: str = "serial"
    max_workers: Optional[int] = None
    cache_dir: Optional[str] = None
    shard_index: int = 0
    shard_count: int = 1
    #: ``"collect"`` isolates failures (probe-level inside each cell, plus
    #: cell/reference-level into :attr:`AdaptiveResult.failures`) instead of
    #: aborting the grid; same semantics as :attr:`SweepSpec.on_error`
    on_error: str = "raise"
    #: per-*cell* deadline in seconds on the process backend (a cell is one
    #: full bisection of up to ``ceil(log2 n)+1`` runs, so size it
    #: accordingly); ``None`` disables it
    point_timeout: Optional[float] = None
    #: fresh-pool rebuilds for transiently crashing cells; same semantics
    #: as :attr:`SweepSpec.retries`
    retries: Optional[int] = None

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the spec before execution (fail fast, not in a worker)."""
        if self.policies is not None and not self.policies:
            raise ValueError(
                "AdaptiveSpec needs at least one policy "
                "(or policies=None for per-workload defaults)"
            )
        if self.min_man_bits < 1:
            raise ValueError("min_man_bits must be >= 1")
        if self.max_man_bits < self.min_man_bits:
            raise ValueError("max_man_bits must be >= min_man_bits")
        if self.exp_bits < 2:
            raise ValueError("exp_bits must be >= 2")
        seen = self._validate_grid("AdaptiveSpec")
        validate_alias_keyed_mapping(self.thresholds, seen, "thresholds")

    # ------------------------------------------------------------------
    def policies_for(self, workload: str) -> Tuple[PolicySpec, ...]:
        """The policies of one workload's cells: the spec's explicit list,
        or — with ``policies=None`` — one global policy over the
        workload's own ``default_modules``."""
        if self.policies is not None:
            return tuple(self.policies)
        return (default_policy_for(workload),)

    def full_cells(self) -> Tuple[AdaptiveCell, ...]:
        """The complete workload × policy grid (ignoring sharding)."""
        cells = []
        index = 0
        for workload in self.workloads:
            for policy in self.policies_for(workload):
                cells.append(AdaptiveCell(index=index, workload=workload, policy=policy))
                index += 1
        return tuple(cells)

    full_units = full_cells
    #: this spec's slice of the grid (see :meth:`GridSpec.units`)
    cells = GridSpec.units

    def _axis_signature(self) -> tuple:
        return (
            self.min_man_bits,
            self.max_man_bits,
            self.exp_bits,
            self.threshold,
            tuple(sorted((canonical_name(k), v) for k, v in self.thresholds.items())),
            self.rounding,
            self.plane,
            self.count_probe_ops,
        )

    def failure_label(self, cell: AdaptiveCell) -> Label:
        bits = f"e{self.exp_bits}m[{self.min_man_bits},{self.max_man_bits}]"
        return (cell.index, cell.workload, bits, cell.policy.describe())

    def threshold_for(self, workload: str) -> Optional[float]:
        """The failure threshold of one workload: its ``thresholds`` entry
        (alias-aware), else the global ``threshold``, else ``None`` (the
        workload class default applies)."""
        target = canonical_name(workload)
        for name, value in self.thresholds.items():
            if canonical_name(name) == target:
                return value
        return self.threshold


# ---------------------------------------------------------------------------
# cell task (module-level so it pickles under every start method)
# ---------------------------------------------------------------------------
@dataclass
class _CliffTask:
    cell: AdaptiveCell
    label: Label
    config_kwargs: Dict[str, object]
    min_man_bits: int
    max_man_bits: int
    exp_bits: int
    threshold: Optional[float]
    rounding: str
    reference_state: dict
    reference_time: float
    reference_kind: str
    plane: str = "auto"
    count_ops: bool = True
    on_error: str = "raise"
    #: the workload's ``initial_state()`` (None: find_cliff builds it)
    prefix: object = None


def _execute_cliff(task: _CliffTask):
    # probe-level errors are already isolated inside find_cliff; what the
    # isolation records here is cell-level (workload construction, a broken
    # evaluate(), an injected cell fault)
    return _isolated(task, "cell", task.cell.index, _run_cliff_task)


def _run_cliff_task(task: _CliffTask) -> CliffResult:
    cell = task.cell
    workload = create_workload(cell.workload, **task.config_kwargs)
    reference = Outcome(
        workload=cell.workload,
        state=task.reference_state,
        time=task.reference_time,
        kind=task.reference_kind,
    )
    return find_cliff(
        workload,
        cell.policy,
        min_man_bits=task.min_man_bits,
        max_man_bits=task.max_man_bits,
        exp_bits=task.exp_bits,
        threshold=task.threshold,
        rounding=task.rounding,
        reference=reference,
        index=cell.index,
        plane=task.plane,
        count_ops=task.count_ops,
        on_error=task.on_error,
        prefix=task.prefix,
    )


# ---------------------------------------------------------------------------
# the grid driver
# ---------------------------------------------------------------------------
@dataclass
class AdaptiveResult(GridResult):
    """All cliff searches of an adaptive grid, in cell order."""

    _items = "cliffs"
    _unit = "cell"

    spec: AdaptiveSpec
    cliffs: List[CliffResult]
    references: Dict[str, ReferenceResult]

    def select(self, workload: Optional[str] = None) -> List[CliffResult]:
        return [c for c in self.cliffs if workload is None or c.workload == workload]

    @property
    def total_runs(self) -> int:
        return sum(c.n_runs for c in self.cliffs)

    def table(self) -> str:
        rows = []
        for c in self.cliffs:
            at_cliff = next(
                (e for e in c.evaluations if e.man_bits == c.cliff_man_bits), None
            )
            rows.append(
                [
                    c.workload,
                    c.policy.describe(),
                    f"[{c.min_man_bits}, {c.max_man_bits}]",
                    f"m{c.cliff_man_bits}" if c.found else "none",
                    f"{at_cliff.error:.3e}" if at_cliff is not None else "n/a",
                    str(c.n_runs),
                    str(c.grid_points),
                ]
            )
        return format_table(
            ["workload", "policy", "bits range", "cliff", "err@cliff", "runs", "grid"],
            rows,
        ) + self._failure_table()

    def to_dict(self) -> dict:
        return {
            "workloads": list(self.spec.workloads),
            "policies": (
                [p.describe() for p in self.spec.policies]
                if self.spec.policies is not None
                else sorted({c.policy.describe() for c in self.cliffs})
            ),
            "bits_range": [self.spec.min_man_bits, self.spec.max_man_bits],
            "exp_bits": self.spec.exp_bits,
            "plane": self.spec.plane,
            "backend": self.spec.backend,
            "shard": [self.spec.shard_index, self.spec.shard_count],
            "cache": self.cache_stats,
            "elapsed_seconds": self.elapsed_seconds,
            "total_runs": self.total_runs,
            "cliffs": [c.to_dict() for c in self.cliffs],
            "failures": [f.to_dict() for f in self.failures],
        }


def run_adaptive_sweep(
    spec: AdaptiveSpec,
    cache: Union[ReferenceCache, str, None] = None,
    checkpoint: Union[str, Path, None] = None,
) -> AdaptiveResult:
    """Run one cliff search per (workload, policy) cell of ``spec``.

    Phase 1 resolves the full-precision references exactly like
    :func:`~repro.experiments.engine.run_sweep` (cache-aware, zero
    reference tasks when warm).  Phase 2 fans the independent bisections
    out over the chosen backend; results come back in deterministic cell
    order (the shard's slice when the spec is sharded).  ``checkpoint``
    names a journal directory, as for ``run_sweep``: each resolved cell is
    journaled, and a rerun of the same spec executes only the cells the
    journal lacks, bitwise identical to an uninterrupted run.
    """

    def make_task(cell: AdaptiveCell, reference: ReferenceResult, prefix) -> _CliffTask:
        return _CliffTask(
            cell=cell,
            label=spec.failure_label(cell),
            config_kwargs=spec.config_kwargs(cell.workload),
            min_man_bits=spec.min_man_bits,
            max_man_bits=spec.max_man_bits,
            exp_bits=spec.exp_bits,
            threshold=spec.threshold_for(cell.workload),
            rounding=spec.rounding,
            reference_state=reference.state,
            reference_time=reference.time,
            reference_kind=getattr(reference, "kind", "compressible"),
            plane=spec.plane,
            count_ops=spec.count_probe_ops,
            on_error=spec.on_error,
            prefix=prefix,
        )

    return run_grid(spec, AdaptiveResult, _execute_cliff, make_task, cache, checkpoint)
