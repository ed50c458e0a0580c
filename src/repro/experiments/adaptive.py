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
  workload × policy grid (:class:`AdaptiveSpec`), fanning the independent
  cells out over :mod:`repro.parallel.executor` with the same
  deterministic-ordering, sharding (:meth:`AdaptiveSpec.shard` /
  :meth:`AdaptiveResult.merge`) and reference-cache guarantees as
  :func:`~repro.experiments.engine.run_sweep`.

Everything a bisection evaluates is a pure function of (workload config,
policy, mantissa bits), so serial and process backends — and any shard
partition — produce bitwise-identical cliff results.
"""
from __future__ import annotations

import math
import pickle
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.fpformat import FPFormat
from ..core.quantize import RoundingMode
from ..core.report import format_table
from ..core.runtime import RaptorRuntime
from ..parallel.executor import TaskFault, run_tasks
from ..testing.faults import maybe_inject
from ..workloads.registry import (
    UnknownWorkloadError,
    canonical_name,
    create_workload,
    get_workload_class,
)
from ..workloads.scenario import Outcome, scenario_protocol_errors
from .cache import ReferenceCache, reference_key
from .engine import (
    NonFiniteStateError,
    PointFailure,
    ReferenceResult,
    _exception_failure,
    _fault_failure,
    _build_prefix,
    _prefix_kwargs,
    _prefix_source,
    _resolve_cache,
    gather_references,
    nonfinite_variables,
    run_reference,
)
from .journal import atomic_pickle
from .spec import (
    PolicySpec,
    config_kwargs_for,
    validate_alias_keyed_mapping,
    validate_config_overrides,
    validate_fault_tolerance,
    validate_workload_list,
)

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
    path), or computed on the spot (on the fused fast kernel plane unless
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
                    index=index,
                    workload=obj.name,
                    format_name=f"e{exp_bits}m{bits}",
                    policy=pol.describe(),
                    seconds=time.perf_counter() - probe_started,
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
class AdaptiveSpec:
    """Declarative cliff search: workloads × policies, one bisection each.

    Mirrors :class:`~repro.experiments.spec.SweepSpec` — registry-name
    workloads, alias-aware per-workload configs, serial/process backends,
    cache directory, and deterministic ``shard(i, n)`` partitions — but the
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
    #: the fused truncating plane under ``plane="fast"|"auto"`` —
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

    def __setstate__(self, state) -> None:
        # specs pickled before the fault-tolerance fields existed
        self.__dict__.update(state)
        for name, default in (("on_error", "raise"), ("point_timeout", None), ("retries", None)):
            self.__dict__.setdefault(name, default)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the spec before execution (fail fast, not in a worker)."""
        from ..kernels import validate_plane

        validate_plane(self.plane)
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
        if self.rounding not in RoundingMode.ALL:
            raise ValueError(f"unknown rounding mode {self.rounding!r}")
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not (0 <= self.shard_index < self.shard_count):
            raise ValueError(
                f"shard_index must be in [0, {self.shard_count}), got {self.shard_index}"
            )
        validate_fault_tolerance(self.on_error, self.point_timeout, self.retries)
        seen = validate_workload_list(self.workloads, "AdaptiveSpec")
        validate_alias_keyed_mapping(self.workload_configs, seen, "workload_configs")
        validate_alias_keyed_mapping(self.thresholds, seen, "thresholds")
        validate_config_overrides(self.workload_configs)

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

    def cells(self) -> Tuple[AdaptiveCell, ...]:
        """This spec's slice of the grid (strided partition, global indices
        preserved — the same scheme as :meth:`SweepSpec.points`)."""
        grid = self.full_cells()
        if self.shard_count == 1:
            return grid
        return tuple(c for c in grid if c.index % self.shard_count == self.shard_index)

    def shard(self, index: int, count: int) -> "AdaptiveSpec":
        """The ``index``-th of ``count`` deterministic grid partitions."""
        if count < 1:
            raise ValueError("shard count must be >= 1")
        if not (0 <= index < count):
            raise ValueError(f"shard index must be in [0, {count}), got {index}")
        if (self.shard_index, self.shard_count) != (0, 1):
            raise ValueError("spec is already sharded; shard the unsharded base spec")
        return replace(self, shard_index=index, shard_count=count)

    def unsharded(self) -> "AdaptiveSpec":
        if (self.shard_index, self.shard_count) == (0, 1):
            return self
        return replace(self, shard_index=0, shard_count=1)

    def config_kwargs(self, workload: str) -> Dict[str, object]:
        return config_kwargs_for(self.workload_configs, workload)

    def threshold_for(self, workload: str) -> Optional[float]:
        """The failure threshold of one workload: its ``thresholds`` entry
        (alias-aware), else the global ``threshold``, else ``None`` (the
        workload class default applies)."""
        target = canonical_name(workload)
        for name, value in self.thresholds.items():
            if canonical_name(name) == target:
                return value
        return self.threshold

    def with_backend(self, backend: str, max_workers: Optional[int] = None) -> "AdaptiveSpec":
        return replace(self, backend=backend, max_workers=max_workers)


# ---------------------------------------------------------------------------
# cell task (module-level so it pickles under every start method)
# ---------------------------------------------------------------------------
@dataclass
class _CliffTask:
    cell: AdaptiveCell
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
    cell = task.cell
    if task.on_error != "collect":
        maybe_inject("cell", cell.index)
        return _run_cliff_task(task)
    started = time.perf_counter()
    try:
        maybe_inject("cell", cell.index)
        return _run_cliff_task(task)
    except Exception as exc:
        # probe-level errors are already isolated inside find_cliff; what
        # lands here is cell-level (workload construction, a broken
        # evaluate(), an injected cell fault) — record it and move on
        return _exception_failure(
            exc,
            index=cell.index,
            workload=cell.workload,
            format_name=f"e{task.exp_bits}m[{task.min_man_bits},{task.max_man_bits}]",
            policy=cell.policy.describe(),
            seconds=time.perf_counter() - started,
        )


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
class AdaptiveResult:
    """All cliff searches of an adaptive grid, in cell order."""

    spec: AdaptiveSpec
    cliffs: List[CliffResult]
    references: Dict[str, ReferenceResult]
    cache_stats: Optional[Dict[str, int]] = None
    #: failed cells (and references, ``index=-1``) of an
    #: ``on_error="collect"`` grid, in cell order; always empty in raise mode
    failures: List[PointFailure] = field(default_factory=list)

    def __setstate__(self, state) -> None:
        # results pickled before the fault-tolerance layer
        self.__dict__.update(state)
        self.__dict__.setdefault("failures", [])

    def __len__(self) -> int:
        return len(self.cliffs)

    def __iter__(self):
        return iter(self.cliffs)

    def select(self, workload: Optional[str] = None) -> List[CliffResult]:
        return [c for c in self.cliffs if workload is None or c.workload == workload]

    def select_failures(
        self, workload: Optional[str] = None, kind: Optional[str] = None
    ) -> List[PointFailure]:
        return [
            f
            for f in self.failures
            if (workload is None or f.workload == workload)
            and (kind is None or f.kind == kind)
        ]

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
        text = format_table(
            ["workload", "policy", "bits range", "cliff", "err@cliff", "runs", "grid"],
            rows,
        )
        if self.failures:
            failure_rows = [
                [
                    str(f.index),
                    f.workload,
                    f.policy,
                    f.kind,
                    f.exc_type or "-",
                    f.message[:60],
                ]
                for f in self.failures
            ]
            text += "\n\nfailed cells:\n" + format_table(
                ["index", "workload", "policy", "kind", "error", "message"], failure_rows
            )
        return text

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
            "total_runs": self.total_runs,
            "cliffs": [c.to_dict() for c in self.cliffs],
            "failures": [f.to_dict() for f in self.failures],
        }

    # -- shard persistence + recombination ------------------------------
    def save(self, path) -> Path:
        """Pickle the full result atomically (tempfile + rename; same
        caveats as :meth:`SweepResult.save`: only load files you produced
        yourself)."""
        return atomic_pickle(self, path)

    @classmethod
    def load(cls, path) -> "AdaptiveResult":
        with open(Path(path), "rb") as fh:
            result = pickle.load(fh)
        if not isinstance(result, cls):
            raise TypeError(
                f"{path} does not contain an AdaptiveResult (got {type(result).__name__})"
            )
        return result

    @staticmethod
    def _merge_signature(spec: AdaptiveSpec) -> tuple:
        base = spec.unsharded()
        return (
            base.full_cells(),
            base.min_man_bits,
            base.max_man_bits,
            base.exp_bits,
            base.threshold,
            tuple(sorted((canonical_name(k), v) for k, v in base.thresholds.items())),
            base.rounding,
            base.plane,
            base.count_probe_ops,
            tuple((w, sorted(base.config_kwargs(w).items())) for w in base.workloads),
        )

    @classmethod
    def merge(cls, *results: "AdaptiveResult") -> "AdaptiveResult":
        """Recombine shard results into the unsharded grid result —
        bit-identical to a serial unsharded run, like
        :meth:`SweepResult.merge`."""
        if len(results) == 1 and not isinstance(results[0], cls):
            results = tuple(results[0])
        if not results:
            raise ValueError("merge needs at least one AdaptiveResult")
        signature = cls._merge_signature(results[0].spec)
        for other in results[1:]:
            if cls._merge_signature(other.spec) != signature:
                raise ValueError(
                    "cannot merge results from different adaptive searches "
                    "(grid, bits range, thresholds, rounding or configs disagree)"
                )
        merged: Dict[int, CliffResult] = {}
        merged_failures: Dict[int, PointFailure] = {}
        reference_failures: List[PointFailure] = []
        references: Dict[str, ReferenceResult] = {}
        for result in results:
            for cliff in result.cliffs:
                if cliff.index in merged or cliff.index in merged_failures:
                    raise ValueError(f"cell index {cliff.index} appears in more than one shard")
                merged[cliff.index] = cliff
            for failure in result.failures:
                if failure.index < 0:
                    if not any(
                        f.failure_key() == failure.failure_key() for f in reference_failures
                    ):
                        reference_failures.append(failure)
                    continue
                if failure.index in merged or failure.index in merged_failures:
                    raise ValueError(
                        f"cell index {failure.index} appears in more than one shard"
                    )
                merged_failures[failure.index] = failure
            for name, ref in result.references.items():
                references.setdefault(name, ref)
        base = results[0].spec.unsharded()
        expected = [c.index for c in base.full_cells()]
        # a failed cell still covers its grid cell (same rule as SweepResult)
        missing = sorted(set(expected) - set(merged) - set(merged_failures))
        if missing:
            raise ValueError(
                f"merged shards do not cover the full grid; missing cell "
                f"indices {missing} — run the remaining shard(s) first"
            )
        stats_list = [r.cache_stats for r in results if r.cache_stats is not None]
        cache_stats = None
        if stats_list:
            cache_stats = {
                key: sum(stats.get(key, 0) for stats in stats_list)
                for key in sorted({key for stats in stats_list for key in stats})
            }
        return cls(
            spec=base,
            cliffs=[merged[index] for index in expected if index in merged],
            references=references,
            cache_stats=cache_stats,
            failures=reference_failures
            + [merged_failures[index] for index in expected if index in merged_failures],
        )


def run_adaptive_sweep(
    spec: AdaptiveSpec, cache: Union[ReferenceCache, str, None] = None
) -> AdaptiveResult:
    """Run one cliff search per (workload, policy) cell of ``spec``.

    Phase 1 resolves the full-precision references exactly like
    :func:`~repro.experiments.engine.run_sweep` (cache-aware, zero
    reference tasks when warm).  Phase 2 fans the independent bisections
    out over the chosen backend; results come back in deterministic cell
    order (the shard's slice when the spec is sharded).
    """
    spec.validate()
    cells = spec.cells()
    collect = spec.on_error == "collect"
    ref_cache = _resolve_cache(spec, cache)
    stats_before = ref_cache.stats.to_dict() if ref_cache is not None else None

    needed = list(dict.fromkeys(cell.workload for cell in cells))
    # one binary64 prefix per workload for this call (see run_sweep)
    prefix_for = _prefix_source(spec.config_kwargs, spec.on_error)
    gathered = gather_references(
        needed,
        spec.config_kwargs,
        cache=ref_cache,
        backend=spec.backend,
        max_workers=spec.max_workers,
        plane=spec.plane,
        on_error=spec.on_error,
        timeout=spec.point_timeout,
        retries=spec.retries,
        prefix_for=prefix_for,
    )
    references: Dict[str, ReferenceResult] = {}
    ref_failures: Dict[str, PointFailure] = {}
    for name, ref in gathered.items():
        if isinstance(ref, PointFailure):
            ref_failures[name] = ref
        else:
            references[name] = ref

    failures: Dict[int, PointFailure] = {}
    todo = []
    for cell in cells:
        if cell.workload in ref_failures:
            ref_failure = ref_failures[cell.workload]
            failures[cell.index] = PointFailure(
                index=cell.index,
                workload=cell.workload,
                format_name=f"e{spec.exp_bits}m[{spec.min_man_bits},{spec.max_man_bits}]",
                policy=cell.policy.describe(),
                kind="reference",
                exc_type=ref_failure.exc_type,
                message=f"reference failed [{ref_failure.kind}]: {ref_failure.message}",
            )
        else:
            todo.append(cell)

    tasks = [
        _CliffTask(
            cell=cell,
            config_kwargs=spec.config_kwargs(cell.workload),
            min_man_bits=spec.min_man_bits,
            max_man_bits=spec.max_man_bits,
            exp_bits=spec.exp_bits,
            threshold=spec.threshold_for(cell.workload),
            rounding=spec.rounding,
            reference_state=references[cell.workload].state,
            reference_time=references[cell.workload].time,
            reference_kind=getattr(references[cell.workload], "kind", "compressible"),
            plane=spec.plane,
            count_ops=spec.count_probe_ops,
            on_error=spec.on_error,
            prefix=prefix_for(cell.workload),
        )
        for cell in todo
    ]
    outcomes = run_tasks(
        _execute_cliff,
        tasks,
        backend=spec.backend,
        max_workers=spec.max_workers,
        timeout=spec.point_timeout,
        retries=spec.retries,
        collect=collect,
    )
    cliffs: Dict[int, CliffResult] = {}
    for cell, outcome in zip(todo, outcomes):
        if isinstance(outcome, TaskFault):
            outcome = _fault_failure(
                outcome,
                index=cell.index,
                workload=cell.workload,
                format_name=f"e{spec.exp_bits}m[{spec.min_man_bits},{spec.max_man_bits}]",
                policy=cell.policy.describe(),
            )
        if isinstance(outcome, PointFailure):
            failures[cell.index] = outcome
        else:
            cliffs[cell.index] = outcome
    cache_stats = None
    if ref_cache is not None:
        after = ref_cache.stats.to_dict()
        cache_stats = {key: after[key] - stats_before[key] for key in after}
    return AdaptiveResult(
        spec=spec,
        cliffs=[cliffs[c.index] for c in cells if c.index in cliffs],
        references=references,
        cache_stats=cache_stats,
        failures=[f for f in ref_failures.values()]
        + [failures[c.index] for c in cells if c.index in failures],
    )
