"""Task execution for the precision-sweep engine.

Sweep points are embarrassingly parallel: each one runs an independent
simulation and returns a picklable result.  :func:`run_tasks` is the one
entry point: it maps a function over tasks either in-process
(``backend="serial"``) or over a
:class:`concurrent.futures.ProcessPoolExecutor` (``backend="process"``),
and returns results in task order either way, so a sweep produces the same
:class:`~repro.experiments.SweepResult` regardless of the backend or the
number of workers — the property the engine's tests pin down.  This
backend-independence is also what makes sweep *sharding* free-form: shards
of one grid may run on different hosts with different backends and still
merge bit-identically (see ``docs/architecture.md``).

The process path runs in *waves*: a pool is built for the unresolved
tasks, their results are gathered in task order, and a fault ends the wave
and starts the next one in a fresh pool.  It degrades gracefully: a pool
that fails to start (restricted sandboxes, missing semaphores — at
construction or at the first ``submit``, where CPython starts the workers)
or a payload that will not pickle sends the remaining tasks down the one
serial fallback with a warning instead of failing the sweep.  A worker
killed abruptly (crash, OOM) is retried in a fresh pool rather than rerun
in the parent; completed results sitting in the broken pool's futures are
salvaged, never recomputed.  A task that deterministically kills fresh
pools is surfaced as :class:`~concurrent.futures.process.BrokenProcessPool`
— or, in *collect* mode, recorded as a :class:`TaskFault` sentinel so the
rest of the batch still completes.

On top of that sits the fault-tolerance surface used by
``SweepSpec(point_timeout=..., retries=..., on_error="collect")``:

* ``timeout`` — a per-task deadline enforced with
  ``future.result(timeout=...)`` while waiting on the frontier task (the
  first task still unresolved).  On expiry the hung workers are killed
  (they cannot be cancelled — the task is already running), completed
  results are salvaged, and the next wave runs the remaining tasks.
* ``retries`` — how many fresh-pool rebuilds a crashing frontier task is
  granted before the crash is treated as deterministic (``None`` means 1),
  with exponential backoff between rebuilds.  Retries only ever apply to
  *transient* executor failures (a broken pool); a task that raises an
  ordinary exception is never rerun — deterministic solver errors must
  surface, not multiply.
* ``collect`` — instead of raising, resolve timed-out and
  deterministically-crashing tasks to :class:`TaskFault` records.  To
  attribute a crash to the right task when several suspects share a pool,
  once the frontier task has used up its crash budget the remaining waves
  hold one task each, in a single-worker pool, where "the pool broke"
  convicts that task exactly.
* ``on_result`` — a callback fired exactly once per task, as each result
  resolves (completion, salvage, serial fallback or fault).  The
  checkpoint journal hangs off this: a result is on disk even if the
  parent dies before ``run_tasks`` returns.

``RAPTOR_MAX_WORKERS=n`` caps process-pool workers when the caller does
not pass ``max_workers`` (lets CI and shared hosts bound the fan-out of
sweeps and adaptive cliff searches without touching every call site).
"""
from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

__all__ = ["TaskFault", "TaskTimeoutError", "run_tasks", "validate_backend"]

T = TypeVar("T")
R = TypeVar("R")

#: the execution backends :func:`run_tasks` accepts
_BACKENDS = ("serial", "process")

#: environment cap on process-pool workers (applies only when the caller
#: does not pass ``max_workers`` explicitly)
_MAX_WORKERS_ENV = "RAPTOR_MAX_WORKERS"

#: payload-won't-pickle errors: CPython reports these as PicklingError,
#: TypeError ("cannot pickle '_thread.lock'") or AttributeError ("Can't
#: pickle local object") depending on the object
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


@dataclass(frozen=True)
class TaskFault:
    """Executor-level failure sentinel returned in *collect* mode.

    Stands in the result list for a task the executor could not complete:
    a hung task killed at its ``timeout`` deadline, or a task that kept
    breaking fresh pools.  Callers translate these into their own failure
    records (the sweep engine turns them into ``PointFailure``); the
    executor deliberately knows nothing about task semantics.
    """

    kind: str  # "timeout" | "worker-crash"
    index: int  # position in the submitted task list
    message: str
    elapsed: float = 0.0
    retries: int = 0


class TaskTimeoutError(TimeoutError):
    """A task exceeded its deadline (raise mode); the hung worker was killed."""

    def __init__(self, index: int, elapsed: float, timeout: float) -> None:
        super().__init__(
            f"task {index} exceeded its {timeout:g}s timeout "
            f"(waited {elapsed:.1f}s); hung worker(s) killed"
        )
        self.index = index
        self.elapsed = elapsed
        self.timeout = timeout


def validate_backend(backend, max_workers: Optional[int] = None) -> None:
    """Reject an unknown backend name or a worker cap below one — the
    execution settings every spec checks before it builds anything."""
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(_BACKENDS)}")
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1 (or None), got {max_workers!r}")


def _env_worker_cap() -> Optional[int]:
    """The RAPTOR_MAX_WORKERS cap, or ``None`` when unset or unusable."""
    raw = os.environ.get(_MAX_WORKERS_ENV)
    if raw is None:
        return None
    try:
        cap = int(raw.strip())
    except ValueError:
        warnings.warn(
            f"ignoring non-integer {_MAX_WORKERS_ENV}={raw!r}", RuntimeWarning, stacklevel=3
        )
        return None
    return cap if cap >= 1 else None


def _backoff_sleep(attempt: int) -> None:
    """Exponential backoff before rebuilding a pool: 0.1s, 0.2s, 0.4s, ...
    capped at 2s — enough for a transient resource squeeze (OOM-killer
    pressure, fork storms) to pass, short enough not to dominate a sweep."""
    time.sleep(min(0.1 * (2 ** max(attempt - 1, 0)), 2.0))


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL the pool's workers.  A *hung* task cannot be cancelled — it
    is already running — so reclaiming the worker is the only way to
    enforce a deadline."""
    for proc in list(getattr(pool, "_processes", {}).values() or []):
        try:
            proc.kill()
        except Exception:
            pass


def _salvage(
    futures: Dict[int, Future],
    resolved: Dict[int, object],
    resolve: Callable[[int, object], None],
    skip: Optional[int] = None,
) -> int:
    """Harvest results that completed before the pool broke or timed out,
    so the next wave only reruns genuinely unfinished tasks.  Futures that
    completed *with an exception* are left pending: rerun, the task
    re-raises deterministically on the normal gather path."""
    salvaged = 0
    for pos, future in futures.items():
        if pos in resolved or pos == skip or not future.done() or future.cancelled():
            continue
        if future.exception(timeout=0) is not None:
            continue
        resolve(pos, future.result(timeout=0))
        salvaged += 1
    return salvaged


def _run_pool(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    workers: int,
    timeout: Optional[float],
    allowed: int,
    collect: bool,
    resolved: Dict[int, object],
    resolve: Callable[[int, object], None],
) -> None:
    """The process path: waves of pools until every task is resolved."""

    def run_serially(positions: List[int], exc: BaseException) -> None:
        warnings.warn(
            f"process pool unavailable ({type(exc).__name__}: {exc}); "
            f"running {len(positions)} remaining task(s) serially",
            RuntimeWarning,
            stacklevel=4,
        )
        for pos in positions:
            resolve(pos, fn(tasks[pos]))

    crashes: Dict[int, int] = {}  # frontier position -> broken-pool rounds
    isolating = False
    while len(resolved) < len(tasks):
        pending = [pos for pos in range(len(tasks)) if pos not in resolved]
        wave = pending[:1] if isolating else pending
        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=min(workers, len(wave)))
            futures = {wave[0]: pool.submit(fn, tasks[wave[0]])}
        except (OSError, ValueError, RuntimeError) as exc:
            # the pool failed to start (no /dev/shm, no fork, no semaphores):
            # the one serial fallback finishes the remaining tasks
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            run_serially(pending, exc)
            return
        try:
            for later in wave[1:]:
                futures[later] = pool.submit(fn, tasks[later])
            for pos in wave:
                waited_from = time.monotonic()
                resolve(pos, futures[pos].result(timeout=timeout))
        except FutureTimeoutError:
            if futures[pos].done():
                # the task itself raised a TimeoutError — an ordinary task
                # error, not a hang
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            elapsed = time.monotonic() - waited_from
            _kill_workers(pool)
            salvaged = _salvage(futures, resolved, resolve, skip=pos)
            pool.shutdown(wait=False, cancel_futures=True)
            if not collect:
                raise TaskTimeoutError(pos, elapsed, timeout) from None
            resolve(
                pos,
                TaskFault(
                    kind="timeout",
                    index=pos,
                    message=(
                        f"exceeded the {timeout:g}s point timeout "
                        f"(waited {elapsed:.1f}s); hung worker(s) killed"
                    ),
                    elapsed=elapsed,
                    retries=crashes.get(pos, 0),
                ),
            )
            warnings.warn(
                f"task {pos} exceeded its {timeout:g}s timeout; killed hung "
                f"worker(s), salvaged {salvaged} completed result(s), retrying "
                f"{len(tasks) - len(resolved)} remaining task(s) in a fresh pool",
                RuntimeWarning,
                stacklevel=3,
            )
        except _PICKLE_ERRORS as exc:
            # the payload would not pickle — a plain programming problem,
            # safe to finish serially.  A TypeError / AttributeError raised
            # inside fn lands here too; the serial rerun re-raises it
            # unchanged, so correctness is preserved at the cost of the rerun.
            pool.shutdown(wait=False, cancel_futures=True)
            run_serially([p for p in wave if p not in resolved], exc)
        except BrokenProcessPool as exc:
            # A worker died (crash, OOM kill).  Never rerun the suspect task
            # in the parent process — whatever killed the worker would then
            # kill the whole run.  Salvage what completed, then retry the
            # rest in a fresh pool; a frontier task that keeps breaking
            # fresh pools without progress is treated as deterministic.
            salvaged = _salvage(futures, resolved, resolve)
            pool.shutdown(wait=False)
            pending = [p for p in pending if p not in resolved]
            frontier = pending[0]
            rounds = crashes[frontier] = crashes.get(frontier, 0) + 1
            if rounds <= allowed:
                warnings.warn(
                    f"process pool broke ({exc}); salvaged {salvaged} completed "
                    f"result(s), retrying {len(pending)} remaining task(s) in a "
                    "fresh pool",
                    RuntimeWarning,
                    stacklevel=3,
                )
                _backoff_sleep(rounds)
            elif not collect:
                raise
            elif isolating:
                # alone in its pool: the crash is this task's
                resolve(
                    frontier,
                    TaskFault(
                        kind="worker-crash",
                        index=frontier,
                        message=(
                            f"worker died ({exc}) in {rounds} consecutive "
                            "pool(s); treating the crash as deterministic"
                        ),
                        retries=rounds - 1,
                    ),
                )
            else:
                # several suspects shared the pool: run one task per pool
                # from here on, so the next crash (or hang) is attributed
                # to the right task exactly
                isolating = True
                warnings.warn(
                    f"repeated pool crashes with no progress; isolating the "
                    f"remaining {len(pending)} task(s) in single-worker pools "
                    "to attribute the fault",
                    RuntimeWarning,
                    stacklevel=3,
                )
        except BaseException:
            # a task exception (raise mode) or an on_result failure is
            # propagating: abandon the pool without waiting
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown()


def run_tasks(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    backend: str = "serial",
    max_workers: Optional[int] = None,
    *,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    collect: bool = False,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List[R]:
    """Map ``fn`` over ``tasks`` on ``backend`` (``"serial"`` or
    ``"process"``), returning results in task order.

    ``max_workers`` caps the process pool (``None``: ``RAPTOR_MAX_WORKERS``,
    else the CPU count).  ``timeout`` / ``retries`` / ``collect`` /
    ``on_result`` are the fault-tolerance surface described in the module
    docstring.  The serial backend honours ``on_result`` and warns that it
    cannot enforce ``timeout``; a process run that would use one worker and
    has no deadline runs in-process too.
    """
    validate_backend(backend, max_workers)
    resolved: Dict[int, object] = {}

    def resolve(pos: int, value: object) -> None:
        resolved[pos] = value
        if on_result is not None:
            on_result(pos, value)

    workers = 1
    if backend == "process" and tasks:
        workers = min(max_workers or _env_worker_cap() or os.cpu_count() or 1, len(tasks))
    if backend == "process" and (workers > 1 or timeout is not None):
        allowed = 1 if retries is None else retries
        _run_pool(fn, tasks, workers, timeout, allowed, collect, resolved, resolve)
    else:
        if backend == "serial" and timeout is not None and tasks:
            warnings.warn(
                "the serial backend cannot enforce a point timeout (the task "
                "runs in this process; there is no worker to kill) — running "
                "without a deadline; use backend='process' to enforce it",
                RuntimeWarning,
                stacklevel=2,
            )
        for pos, task in enumerate(tasks):
            resolve(pos, fn(task))
    return [resolved[pos] for pos in range(len(tasks))]
