"""The precision-sweep engine: ``SweepSpec`` → ``SweepResult``.

The engine expands a :class:`~repro.experiments.spec.SweepSpec` into a grid
of sweep points (workload × policy × format), runs one full-precision
reference per workload, executes every point against that reference, and
rolls the per-point operation / memory counters up into a single profile.

Execution goes through :mod:`repro.parallel.executor`; because each point is
a pure function of its task description, the serial and process-pool
backends produce identical results point for point, and results always come
back in grid order.

Two scale features sit on top of that core loop:

* **Reference caching** — ``run_sweep(spec, cache=...)`` (or
  ``spec.cache_dir``) consults :mod:`repro.experiments.cache` before
  launching reference tasks; a warm cache launches zero of them.
* **Sharding** — ``spec.shard(i, n)`` runs a deterministic slice of the
  grid, and :meth:`SweepResult.merge` reassembles shard outputs (points,
  references, and counter roll-ups) bit-identically to the unsharded run.
"""
from __future__ import annotations

import hashlib
import inspect
import pickle
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.fpformat import FPFormat
from ..core.report import format_table
from ..core.runtime import RaptorRuntime
from ..io.sfocu import compare
from ..kernels import reference_plane
from ..parallel.executor import TaskFault, run_tasks
from ..testing.faults import maybe_inject
from ..workloads.base import CompressibleWorkload
from ..workloads.registry import create_workload
from ..workloads.scenario import Outcome
from .cache import ReferenceCache, reference_key
from .journal import SweepJournal, atomic_pickle
from .spec import PolicySpec, SweepPoint, SweepSpec, format_label

__all__ = [
    "NonFiniteStateError",
    "PointFailure",
    "PointResult",
    "ReferenceResult",
    "SweepResult",
    "checkpoint_signature",
    "run_reference",
    "run_sweep",
    "gather_references",
]

#: every scenario returns the unified :class:`~repro.workloads.scenario.Outcome`;
#: a detached outcome *is* the reference record the cache and the result carry
ReferenceResult = Outcome


# ---------------------------------------------------------------------------
# task payloads (picklable; shipped to worker processes)
# ---------------------------------------------------------------------------
@dataclass
class _ReferenceTask:
    workload: str
    config_kwargs: Dict[str, object]
    plane: str = "auto"
    on_error: str = "raise"
    #: the workload's ``initial_state()`` (None: the run builds its own)
    prefix: object = None


@dataclass
class _PointTask:
    point: SweepPoint
    config_kwargs: Dict[str, object]
    variables: Tuple[str, ...]
    rounding: str
    reference_state: Dict[str, np.ndarray]
    reference_time: float
    keep_state: bool
    plane: str = "auto"
    count_ops: bool = True
    on_error: str = "raise"
    #: the workload's ``initial_state()`` (None: the run builds its own)
    prefix: object = None


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------
class NonFiniteStateError(RuntimeError):
    """A truncated run produced NaN/Inf in its final state (blow-up).

    Only raised under ``on_error="collect"`` — the default raise mode keeps
    today's behaviour of letting non-finite values flow into the error
    norms, so default-path results stay bit-for-bit unchanged.
    """


def nonfinite_variables(state: Mapping[str, np.ndarray]) -> List[str]:
    """Names of state variables containing NaN/Inf, in state order."""
    return [
        name
        for name, values in state.items()
        if not np.isfinite(np.asarray(values)).all()
    ]


@dataclass
class PointFailure:
    """Structured, picklable record of one failed unit of sweep work.

    ``kind`` taxonomy:

    * ``"exception"``    — the point raised (solver error, bad config, …);
    * ``"blowup"``       — the run finished but its state is non-finite;
    * ``"timeout"``      — the point exceeded ``point_timeout`` and its
      hung worker was killed;
    * ``"worker-crash"`` — the worker process died (SIGKILL/OOM) and kept
      dying on retry;
    * ``"reference"``    — the point never ran because its workload's
      reference failed (the reference's own failure is recorded with
      ``index=-1``).

    ``index`` is the global sweep-point index (``-1`` for a reference
    failure itself; the adaptive engine stores cell indices).  Equality for
    bitwise result comparison goes through :meth:`failure_key`, which —
    like ``PointResult.metrics_key`` — excludes the machine-dependent
    ``seconds``.
    """

    index: int
    workload: str
    format_name: str
    policy: str
    kind: str
    exc_type: str = ""
    message: str = ""
    traceback: str = ""
    #: wall-clock seconds until the failure surfaced; machine-dependent,
    #: hence excluded from :meth:`failure_key`
    seconds: float = 0.0
    #: fresh-pool retries the task consumed before being declared failed
    retries: int = 0

    def failure_key(self) -> tuple:
        """Everything that must match across backends and resume runs."""
        return (
            self.index,
            self.workload,
            self.format_name,
            self.policy,
            self.kind,
            self.exc_type,
            self.message,
        )

    def describe(self) -> str:
        what = f"{self.exc_type}: {self.message}" if self.exc_type else self.message
        return (
            f"point {self.index} ({self.workload} @ {self.format_name} / "
            f"{self.policy}) failed [{self.kind}] {what}"
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "workload": self.workload,
            "format": self.format_name,
            "policy": self.policy,
            "kind": self.kind,
            "exc_type": self.exc_type,
            "message": self.message,
            "seconds": self.seconds,
            "retries": self.retries,
        }


def _exception_failure(
    exc: BaseException,
    *,
    index: int,
    workload: str,
    format_name: str,
    policy: str,
    seconds: float,
) -> PointFailure:
    kind = "blowup" if isinstance(exc, NonFiniteStateError) else "exception"
    return PointFailure(
        index=index,
        workload=workload,
        format_name=format_name,
        policy=policy,
        kind=kind,
        exc_type=type(exc).__name__,
        message=str(exc),
        traceback=traceback.format_exc(),
        seconds=seconds,
    )


def _fault_failure(
    fault: TaskFault, *, index: int, workload: str, format_name: str, policy: str
) -> PointFailure:
    """Translate an executor-level :class:`TaskFault` sentinel (timeout,
    deterministic worker crash) into the engine's failure record."""
    return PointFailure(
        index=index,
        workload=workload,
        format_name=format_name,
        policy=policy,
        kind=fault.kind,
        exc_type="",
        message=fault.message,
        seconds=fault.elapsed,
        retries=fault.retries,
    )


def _reference_failure_for_point(point: SweepPoint, ref_failure: PointFailure) -> PointFailure:
    """The failure recorded for a point whose workload reference failed."""
    return PointFailure(
        index=point.index,
        workload=point.workload,
        format_name=point.format_name,
        policy=point.policy.describe(),
        kind="reference",
        exc_type=ref_failure.exc_type,
        message=f"reference failed [{ref_failure.kind}]: {ref_failure.message}",
    )


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
@dataclass
class PointResult:
    """Error metrics and counter roll-up of one sweep point."""

    index: int
    workload: str
    format_name: str
    fmt: FPFormat
    policy: str
    errors: Dict[str, Dict[str, float]]
    #: the workload's own scalar error metric (sfocu L1 for compressible,
    #: detonation-front deviation for cellular, interface deviation for
    #: bubble) — comparable within a workload, not across kinds
    scalar_error: float
    truncated_fraction: float
    ops: Dict[str, int]
    mem: Dict[str, int]
    module_ops: Dict[str, Dict[str, int]]
    info: Dict[str, float]
    runtime_snapshot: dict = field(repr=False)
    #: wall-clock seconds this point took in its worker (run + comparison);
    #: machine-dependent, hence deliberately *not* part of :meth:`metrics_key`
    seconds: float = 0.0
    state: Optional[Dict[str, np.ndarray]] = field(default=None, repr=False)

    def l1(self, variable: str = "dens") -> float:
        return self.errors[variable]["l1"]

    def linf(self, variable: str = "dens") -> float:
        return self.errors[variable]["linf"]

    @property
    def giga_ops(self) -> Tuple[float, float]:
        """(truncated, full) scalar-operation counts in units of 1e9."""
        return self.ops["truncated"] / 1e9, self.ops["full"] / 1e9

    def metrics_key(self) -> tuple:
        """Everything that must match bit-for-bit across backends."""
        return (
            self.index,
            self.workload,
            self.format_name,
            self.policy,
            tuple(sorted((v, tuple(sorted(norms.items()))) for v, norms in self.errors.items())),
            self.scalar_error,
            self.truncated_fraction,
            tuple(sorted(self.ops.items())),
            tuple(sorted(self.mem.items())),
            tuple(
                (module, tuple(sorted(counters.items())))
                for module, counters in sorted(self.module_ops.items())
            ),
            tuple(sorted(self.info.items())),
        )


@dataclass
class SweepResult:
    """All points of a sweep, in grid order, plus per-workload references.

    For a sharded spec the points are that shard's slice of the grid (global
    indices preserved); :meth:`merge` recombines shard results into the
    result of the unsharded sweep.
    """

    spec: SweepSpec
    points: List[PointResult]
    references: Dict[str, ReferenceResult]
    #: reference-cache counters of this run ({"hits": ..., "misses": ...,
    #: "stores": ..., "invalidations": ..., "evictions": ...}); None when
    #: the run was uncached
    cache_stats: Optional[Dict[str, int]] = None
    #: wall-clock seconds of the ``run_sweep`` call that produced this
    #: result.  :meth:`merge` *sums* shard values, so for a merged result
    #: this is the aggregate compute time across shards, not the elapsed
    #: time of any one host.
    elapsed_seconds: float = 0.0
    #: failed points of an ``on_error="collect"`` sweep, in grid order;
    #: always empty in raise mode (the sweep would have raised instead)
    failures: List[PointFailure] = field(default_factory=list)

    def __setstate__(self, state) -> None:
        # results pickled before the fault-tolerance layer carry no
        # failures field; default it so old shard files keep loading
        self.__dict__.update(state)
        self.__dict__.setdefault("failures", [])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    @property
    def total_point_seconds(self) -> float:
        """Summed per-point worker wall-clock (references excluded)."""
        return float(sum(p.seconds for p in self.points))

    def __iter__(self):
        return iter(self.points)

    def select(
        self,
        workload: Optional[str] = None,
        fmt: Optional[str] = None,
        policy: Optional[str] = None,
    ) -> List[PointResult]:
        """Points matching the given workload name / format label / policy
        description (all optional)."""
        out = []
        for p in self.points:
            if workload is not None and p.workload != workload:
                continue
            if fmt is not None and p.format_name != fmt:
                continue
            if policy is not None and p.policy != policy:
                continue
            out.append(p)
        return out

    def select_failures(
        self,
        workload: Optional[str] = None,
        fmt: Optional[str] = None,
        policy: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[PointFailure]:
        """Failures matching the given workload / format label / policy
        description / failure kind (all optional)."""
        out = []
        for f in self.failures:
            if workload is not None and f.workload != workload:
                continue
            if fmt is not None and f.format_name != fmt:
                continue
            if policy is not None and f.policy != policy:
                continue
            if kind is not None and f.kind != kind:
                continue
            out.append(f)
        return out

    def rollup(self) -> RaptorRuntime:
        """Merged op/mem counters over all points (references excluded)."""
        total = RaptorRuntime("sweep-rollup")
        for p in self.points:
            total.merge_snapshot(p.runtime_snapshot)
        return total

    def table(self, variable: str = "dens") -> str:
        """Human-readable summary table of the sweep."""
        rows = []
        for p in self.points:
            rows.append(
                [
                    p.workload,
                    p.policy,
                    p.format_name,
                    f"{p.l1(variable):.3e}" if variable in p.errors else "n/a",
                    f"{p.scalar_error:.3e}",
                    f"{p.truncated_fraction:.1%}",
                    f"{p.giga_ops[0]:.4f}",
                    f"{p.giga_ops[1]:.4f}",
                ]
            )
        text = format_table(
            [
                "workload",
                "policy",
                "format",
                f"L1({variable})",
                "scalar err",
                "trunc ops",
                "Gops trunc",
                "Gops full",
            ],
            rows,
        )
        if self.failures:
            failure_rows = [
                [
                    str(f.index),
                    f.workload,
                    f.policy,
                    f.format_name,
                    f.kind,
                    f.exc_type or "-",
                    f.message[:60],
                ]
                for f in self.failures
            ]
            text += "\n\nfailed points:\n" + format_table(
                ["index", "workload", "policy", "format", "kind", "error", "message"],
                failure_rows,
            )
        return text

    def to_dict(self) -> dict:
        """JSON-serialisable summary (states and snapshots omitted)."""
        return {
            "workloads": list(self.spec.workloads),
            "formats": [format_label(f) for f in self.spec.resolved_formats()],
            "policies": [p.describe() for p in self.spec.policies],
            "plane": self.spec.plane,
            "backend": self.spec.backend,
            "shard": [self.spec.shard_index, self.spec.shard_count],
            "cache": self.cache_stats,
            "elapsed_seconds": self.elapsed_seconds,
            "points": [
                {
                    "index": p.index,
                    "workload": p.workload,
                    "format": p.format_name,
                    "policy": p.policy,
                    "errors": p.errors,
                    "scalar_error": p.scalar_error,
                    "truncated_fraction": p.truncated_fraction,
                    "ops": p.ops,
                    "mem": p.mem,
                    "info": p.info,
                    "seconds": p.seconds,
                }
                for p in self.points
            ],
            "failures": [f.to_dict() for f in self.failures],
        }

    # ------------------------------------------------------------------
    # shard persistence + recombination
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Persist the full result (points, references, snapshots) to disk.

        The format is a pickle of the result object — everything in a
        :class:`SweepResult` is picklable by construction because it
        crosses process boundaries during parallel execution.  Only load
        files you produced yourself (pickle executes code on load).

        The write is atomic (tempfile + rename, the reference cache's
        discipline): a crash mid-save leaves either the previous file or
        the new one, never a torn pickle that :meth:`load` chokes on.
        """
        return atomic_pickle(self, path)

    @classmethod
    def load(cls, path) -> "SweepResult":
        """Load a result written by :meth:`save`."""
        with open(Path(path), "rb") as fh:
            result = pickle.load(fh)
        if not isinstance(result, cls):
            raise TypeError(f"{path} does not contain a SweepResult (got {type(result).__name__})")
        return result

    @staticmethod
    def _merge_signature(spec: SweepSpec) -> tuple:
        """What must agree across shards for a merge to be meaningful: the
        full grid, the error protocol, and the per-workload configs.
        Backend and worker count deliberately excluded — metrics are
        backend-independent, so shards may run on heterogeneous hosts."""
        base = spec.unsharded()
        return (
            base.full_grid(),
            base.variables,
            base.rounding,
            # the kernel plane changes which contexts feed the counters, so
            # shards of one sweep must agree on it (states would match, the
            # merged counter roll-up would not)
            base.plane,
            # non-counting points carry zeroed counters, so shards of one
            # sweep must also agree on whether points count at all
            base.count_point_ops,
            tuple((w, sorted(base.config_kwargs(w).items())) for w in base.workloads),
        )

    @classmethod
    def merge(cls, *results: "SweepResult") -> "SweepResult":
        """Recombine shard results into the unsharded sweep result.

        Accepts the shard results in any order (pass them unpacked or as a
        single iterable).  Requires that all shards came from the same base
        spec, that no global point index appears twice, and that the union
        covers the full grid — so the merged result is bit-identical
        (points, per-workload references, and the :meth:`rollup` counters,
        which :meth:`~repro.core.runtime.RaptorRuntime.merge_snapshot`
        accumulates from the per-point snapshots) to a serial unsharded
        run.  Cache statistics are summed across shards.
        """
        if len(results) == 1 and not isinstance(results[0], cls):
            results = tuple(results[0])
        if not results:
            raise ValueError("merge needs at least one SweepResult")
        signature = cls._merge_signature(results[0].spec)
        for other in results[1:]:
            if cls._merge_signature(other.spec) != signature:
                raise ValueError(
                    "cannot merge results from different sweeps (grid, variables, "
                    "rounding or workload configs disagree)"
                )

        merged_points: Dict[int, PointResult] = {}
        merged_failures: Dict[int, PointFailure] = {}
        reference_failures: List[PointFailure] = []
        references: Dict[str, ReferenceResult] = {}
        for result in results:
            for point in result.points:
                if point.index in merged_points or point.index in merged_failures:
                    raise ValueError(
                        f"point index {point.index} appears in more than one shard"
                    )
                merged_points[point.index] = point
            for failure in result.failures:
                if failure.index < 0:
                    # a reference failure is not a grid point; shards of the
                    # same workload may each record one — keep the first
                    if not any(
                        f.failure_key() == failure.failure_key() for f in reference_failures
                    ):
                        reference_failures.append(failure)
                    continue
                if failure.index in merged_points or failure.index in merged_failures:
                    raise ValueError(
                        f"point index {failure.index} appears in more than one shard"
                    )
                merged_failures[failure.index] = failure
            for name, ref in result.references.items():
                references.setdefault(name, ref)

        base = results[0].spec.unsharded()
        expected = [p.index for p in base.full_grid()]
        # a failed point still covers its grid cell — merge must not demand
        # that some other shard recompute it
        missing = sorted(set(expected) - set(merged_points) - set(merged_failures))
        if missing:
            raise ValueError(
                f"merged shards do not cover the full grid; missing point "
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
            points=[merged_points[index] for index in expected if index in merged_points],
            references=references,
            cache_stats=cache_stats,
            elapsed_seconds=float(sum(r.elapsed_seconds for r in results)),
            failures=reference_failures
            + [merged_failures[index] for index in expected if index in merged_failures],
        )


# ---------------------------------------------------------------------------
# the shared binary64 prefix
# ---------------------------------------------------------------------------
def _build_prefix(workload):
    """``workload.initial_state()``: the policy-independent binary64 start
    of every run, or None for a scenario without one."""
    initial_state = getattr(workload, "initial_state", None)
    return initial_state() if initial_state is not None else None


def _prefix_kwargs(prefix) -> dict:
    """The ``run()`` keyword handing over ``prefix``; empty without one, so
    scenarios that build their own state are called unchanged."""
    return {} if prefix is None else {"prefix": prefix}


def _prefix_source(config_kwargs_fn, on_error: str = "raise"):
    """``name -> prefix``, building each workload's prefix on first request
    and at most once per source.

    Every sweep call makes its own source and drops it on return: a memo
    outliving the call would let repeated in-process sweeps skip builds
    that a single sweep pays every time.  Under ``on_error="collect"`` a
    build that raises yields a :class:`PointFailure` (``index=-1``), which
    the callers route down the failed-reference path.
    """
    built: Dict[str, object] = {}

    def prefix_for(name: str):
        if name not in built:
            started = time.perf_counter()
            try:
                built[name] = _build_prefix(create_workload(name, **config_kwargs_fn(name)))
            except Exception as exc:
                if on_error != "collect":
                    raise
                built[name] = _exception_failure(
                    exc,
                    index=-1,
                    workload=name,
                    format_name="-",
                    policy="-",
                    seconds=time.perf_counter() - started,
                )
        return built[name]

    return prefix_for


# ---------------------------------------------------------------------------
# task execution (module-level so tasks pickle under every start method)
# ---------------------------------------------------------------------------
def run_reference(workload, plane: str = "auto", prefix=None) -> Outcome:
    """Execute a workload's full-precision reference on the requested
    kernel plane (``"auto"`` resolves to the fused fast plane).  The
    substitution is free for the engine because it never consumes
    reference counters — point metrics come exclusively from the point
    runs, and references are compared by state; a fast-plane reference
    simply freezes zeroed counters into its detached snapshot.

    Duck-typed scenarios whose ``reference()`` predates kernel planes are
    executed unchanged on the instrumented plane.  Only an explicit
    ``plane`` parameter opts in — a bare ``**kwargs`` signature (the old
    protocol default forwarded kwargs straight into ``run``) must not
    receive the keyword.  ``prefix`` (see :func:`_build_prefix`) is passed
    through to ``run()``.
    """
    resolved = reference_plane(plane)
    try:
        parameters = inspect.signature(workload.reference).parameters
    except (TypeError, ValueError):
        parameters = {}
    if "plane" in parameters:
        return workload.reference(plane=resolved, **_prefix_kwargs(prefix))
    return workload.reference(**_prefix_kwargs(prefix))


def _execute_reference(task: _ReferenceTask):
    if task.on_error != "collect":
        maybe_inject("reference", task.workload)
        return _run_reference_task(task)
    started = time.perf_counter()
    try:
        maybe_inject("reference", task.workload)
        return _run_reference_task(task)
    except Exception as exc:
        return _exception_failure(
            exc,
            index=-1,
            workload=task.workload,
            format_name="-",
            policy="-",
            seconds=time.perf_counter() - started,
        )


def _run_reference_task(task: _ReferenceTask) -> ReferenceResult:
    workload = create_workload(task.workload, **task.config_kwargs)
    outcome = run_reference(workload, plane=task.plane, prefix=task.prefix).detach()
    # key the result by the name the spec used (possibly an alias), so the
    # engine's reference lookup matches its points
    outcome.workload = task.workload
    return outcome


def _execute_point(task: _PointTask):
    started = time.perf_counter()
    if task.on_error != "collect":
        maybe_inject("point", task.point.index)
        return _run_point_task(task, started)
    point = task.point
    try:
        maybe_inject("point", point.index)
        return _run_point_task(task, started, check_finite=True)
    except Exception as exc:
        return _exception_failure(
            exc,
            index=point.index,
            workload=point.workload,
            format_name=point.format_name,
            policy=point.policy.describe(),
            seconds=time.perf_counter() - started,
        )


def _run_point_task(task: _PointTask, started: float, check_finite: bool = False) -> PointResult:
    point = task.point
    workload = create_workload(point.workload, **task.config_kwargs)
    runtime = RaptorRuntime(f"{point.workload}-{point.format_name}-{point.policy.describe()}")
    policy = point.policy.build(
        point.fmt, runtime, rounding=task.rounding, plane=task.plane, count_ops=task.count_ops
    )
    run = workload.run(policy=policy, runtime=runtime, **_prefix_kwargs(task.prefix))
    if check_finite:
        # collect mode reports a blow-up as a structured failure instead of
        # letting NaN/Inf flow into the error norms downstream
        bad = nonfinite_variables(run.state)
        if bad:
            raise NonFiniteStateError(
                f"non-finite values in final state variable(s) {bad} at "
                f"t={run.time:g} — the truncated run blew up"
            )

    reference = Outcome(
        workload=point.workload,
        state=task.reference_state,
        time=task.reference_time,
        kind=getattr(workload, "kind", "compressible"),
    )
    report = compare(run.checkpoint, reference.checkpoint, list(task.variables))
    errors = {
        name: {
            "l1": report[name].l1,
            "l2": report[name].l2,
            "linf": report[name].linf,
        }
        for name in task.variables
    }
    # the compressible scalar error is the L1 of error_variable — already in
    # the report when that variable was requested, so skip the second
    # covering-grid comparison (only when error() is not overridden)
    error_variable = getattr(workload, "error_variable", None)
    if (
        error_variable in errors
        and type(workload).error is CompressibleWorkload.error
    ):
        scalar_error = errors[error_variable]["l1"]
    else:
        scalar_error = float(workload.error(run, reference))

    # the snapshot is the single source of the counters; PointResult's
    # ops/mem/module_ops fields alias into it so they cannot desynchronize
    snapshot = runtime.snapshot()
    return PointResult(
        index=point.index,
        workload=point.workload,
        format_name=point.format_name,
        fmt=point.fmt,
        policy=point.policy.describe(),
        errors=errors,
        scalar_error=scalar_error,
        truncated_fraction=runtime.ops.truncated_fraction,
        ops=snapshot["ops"],
        mem=snapshot["mem"],
        module_ops=snapshot["modules"],
        info=dict(run.info),
        runtime_snapshot=snapshot,
        seconds=time.perf_counter() - started,
        state=(
            {name: np.asarray(run.checkpoint[name]) for name in run.checkpoint.variables()}
            if task.keep_state
            else None
        ),
    )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
def _resolve_cache(
    spec, cache: Union[ReferenceCache, str, None]
) -> Optional[ReferenceCache]:
    """The cache to use for a sweep: an explicit object, a directory given
    by path (argument or ``spec.cache_dir``), or none."""
    if isinstance(cache, ReferenceCache):
        return cache
    directory = cache if cache is not None else spec.cache_dir
    if directory is None:
        return None
    return ReferenceCache(directory)


def checkpoint_signature(spec: SweepSpec) -> str:
    """Identity of a sweep for checkpoint/resume purposes.

    Built on the shard-merge signature (grid, error protocol, plane,
    counting mode, workload configs) plus the fields that change what a
    journaled :class:`PointResult` *contains* (``keep_states``) or which
    points this spec runs (the shard slice).  Backend, worker count,
    timeout and retry settings are deliberately excluded: results are
    backend-independent, so a sweep may be resumed on a different backend
    or with different fault-tolerance settings and still complete
    bit-identically.
    """
    payload = (
        SweepResult._merge_signature(spec),
        spec.keep_states,
        spec.shard_index,
        spec.shard_count,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def gather_references(
    names: Sequence[str],
    config_kwargs_fn,
    cache: Optional[ReferenceCache] = None,
    backend: str = "serial",
    max_workers: Optional[int] = None,
    plane: str = "auto",
    on_error: str = "raise",
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    prefix_for=None,
    known: Optional[Mapping[str, ReferenceResult]] = None,
) -> Dict[str, Union[ReferenceResult, PointFailure]]:
    """Phase 1 of every experiment: one full-precision reference per
    workload, served from ``cache`` when possible and computed on the
    execution backend otherwise — by default on the fused fast plane
    (``plane="auto"``; see :func:`run_reference`), which is bit-identical
    and several times faster than the counting reference path.  Shared by
    :func:`run_sweep` and the adaptive cliff search
    (:mod:`repro.experiments.adaptive`).

    ``known`` maps names to references fixed beforehand (a resumed sweep's
    journal); they are used as given and never cached.  ``prefix_for`` (a
    :func:`_prefix_source`) builds the prefix of every name, which computed
    references start from and the caller's runs reuse; without it
    references build their own.

    With ``on_error="collect"`` a failing reference or prefix maps its
    workload name to a :class:`PointFailure` (``index=-1``) instead of
    raising — a failed prefix also when the reference was at hand; failed
    references are never cached."""
    references: Dict[str, Union[ReferenceResult, PointFailure]] = {}
    keys: Dict[str, str] = {}
    missing = []
    for name in names:
        ref = (known or {}).get(name)
        if ref is None and cache is not None:
            keys[name] = reference_key(name, config_kwargs_fn(name))
            ref = cache.get(keys[name])
        if ref is None:
            missing.append(name)
        else:
            references[name] = ref

    prefixes = {name: prefix_for(name) for name in names} if prefix_for is not None else {}
    for name, prefix in prefixes.items():
        if isinstance(prefix, PointFailure):
            references[name] = prefix
    reference_tasks = [
        _ReferenceTask(
            workload=name,
            config_kwargs=config_kwargs_fn(name),
            plane=plane,
            on_error=on_error,
            prefix=prefixes.get(name),
        )
        for name in missing
        if name not in references
    ]
    outcomes = run_tasks(
        _execute_reference,
        reference_tasks,
        backend=backend,
        max_workers=max_workers,
        timeout=timeout,
        retries=retries,
        collect=(on_error == "collect"),
    )
    for task, ref in zip(reference_tasks, outcomes):
        if isinstance(ref, TaskFault):
            ref = _fault_failure(
                ref, index=-1, workload=task.workload, format_name="-", policy="-"
            )
        if isinstance(ref, PointFailure):
            references[task.workload] = ref
            continue
        references[ref.workload] = ref
        if cache is not None:
            cache.put(keys[ref.workload], ref)
    return references


def run_sweep(
    spec: SweepSpec,
    cache: Union[ReferenceCache, str, None] = None,
    checkpoint: Union[str, Path, None] = None,
) -> SweepResult:
    """Execute a precision sweep described by ``spec``.

    Phase 1 obtains the full-precision reference of every workload — from
    ``cache`` when one is given (a :class:`~repro.experiments.cache.ReferenceCache`
    or a directory path; ``spec.cache_dir`` is the declarative spelling) and
    by running reference tasks otherwise; with a warm cache zero reference
    tasks launch.  Phase 2 fans the sweep points out over the chosen
    backend, comparing each truncated run against its workload's reference.
    Results come back in the deterministic grid order of
    :meth:`SweepSpec.points` (the shard's slice when the spec is sharded).

    ``checkpoint`` names a journal directory making the sweep crash-safe:
    every completed point (and failure, in collect mode) is persisted with
    atomic write-then-rename as soon as it resolves.  Rerunning with the
    same spec and checkpoint loads the journal, runs only the missing
    points, and returns a result bitwise identical to an uninterrupted run
    (the same guarantee class as shard/merge).  A journal written by a
    different spec (grid, plane, configs, …) is rejected with
    :class:`~repro.experiments.journal.CheckpointMismatchError`.

    Fault tolerance is configured on the spec: ``on_error="collect"``
    isolates per-point failures into :attr:`SweepResult.failures`;
    ``point_timeout`` bounds each point on the process backend;
    ``retries`` bounds fresh-pool rebuilds for transient worker crashes.
    """
    spec.validate()
    started = time.perf_counter()
    points = spec.points()
    collect = spec.on_error == "collect"

    journal: Optional[SweepJournal] = None
    done: Dict[int, Union[PointResult, PointFailure]] = {}
    journal_refs: Dict[str, ReferenceResult] = {}
    if checkpoint is not None:
        journal = SweepJournal(checkpoint)
        journal.open(checkpoint_signature(spec), total_points=len(points))
        done = journal.load_points()
        journal_refs = journal.load_references()

    ref_cache = _resolve_cache(spec, cache)
    # cache stats reported on the result are *this run's* delta, so a cache
    # object shared across sweeps still yields per-run hit/miss numbers
    stats_before = ref_cache.stats.to_dict() if ref_cache is not None else None

    # a sharded spec may not touch every workload of the base spec; only
    # the workloads actually present in this slice need references.  On
    # resume, journaled references take priority — the very arrays the
    # journaled points were compared against — so a resumed run never
    # recomputes (or re-fetches) what the interrupted run already fixed.
    needed = list(dict.fromkeys(point.workload for point in points))
    journaled = {name: ref for name, ref in journal_refs.items() if name in needed}
    references: Dict[str, ReferenceResult] = dict(journaled)
    pending = {point.workload for point in points if point.index not in done}
    # each workload's binary64 prefix is built here, once for this call; a
    # workload with nothing left to run builds none
    prefix_for = _prefix_source(spec.config_kwargs, spec.on_error)
    gathered = gather_references(
        [name for name in needed if name not in journaled or name in pending],
        spec.config_kwargs,
        cache=ref_cache,
        backend=spec.backend,
        max_workers=spec.max_workers,
        plane=spec.plane,
        on_error=spec.on_error,
        timeout=spec.point_timeout,
        retries=spec.retries,
        prefix_for=prefix_for,
        known=journaled,
    )
    ref_failures: Dict[str, PointFailure] = {}
    for name, ref in gathered.items():
        if isinstance(ref, PointFailure):
            ref_failures[name] = ref
        elif name not in journaled:
            references[name] = ref
            if journal is not None:
                journal.record_reference(name, ref)

    failures: Dict[int, PointFailure] = {
        index: obj for index, obj in done.items() if isinstance(obj, PointFailure)
    }
    completed: Dict[int, PointResult] = {
        index: obj for index, obj in done.items() if isinstance(obj, PointResult)
    }
    todo = []
    for point in points:
        if point.index in done:
            continue
        if point.workload in ref_failures:
            failure = _reference_failure_for_point(point, ref_failures[point.workload])
            failures[point.index] = failure
            if journal is not None:
                journal.record_point(point.index, failure)
        else:
            todo.append(point)

    # every task carries its workload's reference arrays and prefix; at the
    # sizes these experiments use re-pickling both per point is cheaper
    # than coordinating a per-worker cache.  A reference is tens to hundreds
    # of KB.  A pickled prefix is ~100-260 KB for the compressible grids at
    # benchmark size (a round trip costs ~0.5-1.4 ms, a rebuild 10-30 ms),
    # ~50 KB for the spun-up bubble and a few KB for cellular.  Revisit if
    # sweeps move to large grids (see ROADMAP: sharding/caching)
    point_tasks = [
        _PointTask(
            point=point,
            config_kwargs=spec.config_kwargs(point.workload),
            variables=spec.variables_for(point.workload),
            rounding=spec.rounding,
            reference_state=references[point.workload].state,
            reference_time=references[point.workload].time,
            keep_state=spec.keep_states,
            plane=spec.plane,
            count_ops=spec.count_point_ops,
            on_error=spec.on_error,
            prefix=prefix_for(point.workload),
        )
        for point in todo
    ]

    def _coerce(point: SweepPoint, value):
        if isinstance(value, TaskFault):
            return _fault_failure(
                value,
                index=point.index,
                workload=point.workload,
                format_name=point.format_name,
                policy=point.policy.describe(),
            )
        return value

    def on_result(pos: int, value) -> None:
        # fires as each point resolves, before map() returns — the journal
        # entry is on disk even if this process dies mid-sweep
        if journal is not None:
            journal.record_point(todo[pos].index, _coerce(todo[pos], value))

    results = run_tasks(
        _execute_point,
        point_tasks,
        backend=spec.backend,
        max_workers=spec.max_workers,
        timeout=spec.point_timeout,
        retries=spec.retries,
        collect=collect,
        on_result=on_result if journal is not None else None,
    )
    for pos, value in enumerate(results):
        value = _coerce(todo[pos], value)
        if isinstance(value, PointFailure):
            failures[todo[pos].index] = value
        else:
            completed[todo[pos].index] = value

    cache_stats = None
    if ref_cache is not None:
        after = ref_cache.stats.to_dict()
        cache_stats = {key: after[key] - stats_before[key] for key in after}
    return SweepResult(
        spec=spec,
        points=[completed[p.index] for p in points if p.index in completed],
        references=references,
        cache_stats=cache_stats,
        elapsed_seconds=time.perf_counter() - started,
        failures=[f for f in ref_failures.values()]
        + [failures[p.index] for p in points if p.index in failures],
    )
