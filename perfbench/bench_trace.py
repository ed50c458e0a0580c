"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public entry points of each ``repro`` layer from the
benchmark's own files; the library itself is not modified.  Each wrapper is
patched in wherever its caller looks the name up: ``quantize`` is imported
by name into ``repro.core.opmode``, ``invert_energy`` into
``repro.workloads.cellular``, ``run_tasks`` into the engine, and so on.

A span is ``(name, start, end, parent)``.  A span's self time is its
duration minus the time of its direct child spans.  Spans of hot leaf
layers are folded into per-name totals as they close: a counting sweep
makes millions of ``quantize`` calls, and keeping each one would cost more
memory than the run.  All other spans are also kept in a list, which
:func:`write_spans` writes out once at the end.

Re-entrant spans of one name (a ``_record`` that calls a runtime
``record_*``) count as one call; their self times add up without double
counting.

Patches apply to the current process only.  Pool workers forked while a
patch is active would inherit it, so process-backend passes install only
the parent-side targets (:data:`ENGINE_TARGETS`).
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    """Span stack plus per-name aggregates for one traced pass."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.workspaces = []
        self.runtimes = []
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------------
    def wrap(self, name, fn, hot=False, count=None):
        """``fn`` inside a span called ``name``.  ``count(tracer, args,
        result)`` adds layer counts after each call."""
        stack = self._stack
        self_s, total_s, calls, spans = self.self_s, self.total_s, self.calls, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if parent is None:
                    total_s[name] += duration
                    calls[name] += 1
                else:
                    parent[1] += duration
                    if parent[0] != name:
                        total_s[name] += duration
                        calls[name] += 1
                if not hot:
                    spans.append((name, start, end, parent[0] if parent else None))
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def register(self, sink, fn):
        """Wrap the ``__init__`` ``fn`` so each new instance lands in ``sink``."""

        def __init__(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            sink.append(obj)

        __init__.__wrapped__ = fn
        return __init__

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every ``(module, attribute path, span name, options)``
        target for the duration of the block.  A target whose options name
        a ``register`` sink records new instances instead of a span."""
        try:
            for module_name, path, name, options in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if "register" in options:
                    wrapper = self.register(getattr(self, options["register"]), original)
                else:
                    wrapper = self.wrap(name, original, **options)
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def harvest(self) -> None:
        """Fold the registered workspaces' hit/miss counters and the
        registered runtimes' op/byte counters into ``counts``, then drop
        the references (workspaces hold megabytes of scratch)."""
        for ws in self.workspaces:
            self.counts["kernels.scratch.hits"] += ws.hits
            self.counts["kernels.scratch.misses"] += ws.misses
        self.workspaces.clear()
        for rt in self.runtimes:
            self.counts["core.ops.truncated"] += rt.ops.truncated
            self.counts["core.ops.full"] += rt.ops.full
            self.counts["core.mem.bytes"] += rt.mem.truncated + rt.mem.full
        self.runtimes.clear()


# ---------------------------------------------------------------------------
# layer counts taken from call arguments and results
# ---------------------------------------------------------------------------
def _quantize_elems(tracer, args, result):
    tracer.counts["core.quantize.elems"] += np.size(result)


def _newton_iterations(tracer, args, result):
    tracer.counts["eos.newton.iterations"] += result.iterations


def _journal_bytes(tracer, args, result):
    tracer.counts["experiments.journal.bytes"] += len(args[1])


def _cache_bytes(tracer, args, result):
    tracer.counts["experiments.cache.bytes_written"] += Path(result).stat().st_size


def _harvest_after_run(tracer, args, result):
    tracer.harvest()


_HOT = {"hot": True}

#: layers that run wherever a workload runs: in this process on the serial
#: backend, inside the workers on the process backend
SOLVER_TARGETS = (
    ("repro.core.opmode", "quantize", "core.quantize", {"hot": True, "count": _quantize_elems}),
    ("repro.core.array", "quantize", "core.quantize", {"hot": True, "count": _quantize_elems}),
    ("repro.core.memmode", "quantize", "core.quantize", {"hot": True, "count": _quantize_elems}),
    ("repro.kernels.trunc", "quantize", "core.quantize", {"hot": True, "count": _quantize_elems}),
    ("repro.core.opmode", "TruncatedContext._record", "core.runtime.record", _HOT),
    ("repro.core.opmode", "FullPrecisionContext._record", "core.runtime.record", _HOT),
    ("repro.core.runtime", "RaptorRuntime.record_truncated_ops", "core.runtime.record", _HOT),
    ("repro.core.runtime", "RaptorRuntime.record_full_ops", "core.runtime.record", _HOT),
    ("repro.core.runtime", "RaptorRuntime.record_truncated_bytes", "core.runtime.record", _HOT),
    ("repro.core.runtime", "RaptorRuntime.record_full_bytes", "core.runtime.record", _HOT),
    ("repro.core.runtime", "RaptorRuntime.__init__", None, {"register": "runtimes"}),
    ("repro.kernels.trunc", "quantize_into", "kernels.trunc.quantize_into", _HOT),
    ("repro.kernels.bubble", "quantize_into", "kernels.trunc.quantize_into", _HOT),
    ("repro.kernels.scratch", "Workspace.__init__", None, {"register": "workspaces"}),
    ("repro.amr.grid", "AMRGrid.fill_guard_cells", "amr.guard_fill", {}),
    ("repro.amr.grid", "AMRGrid.regrid", "amr.regrid", {}),
    ("repro.hydro.solver", "HydroSolver.compute_dt", "hydro.compute_dt", {}),
    ("repro.hydro.solver", "HydroSolver.step", "hydro.step", {}),
    ("repro.incomp.solver", "BubbleSolver.advection_term", "incomp.advection", {}),
    ("repro.incomp.solver", "BubbleSolver._advect_levelset", "incomp.advection", {}),
    ("repro.incomp.solver", "BubbleSolver.diffusion_term", "incomp.diffusion", {}),
    ("repro.incomp.poisson", "PoissonSolver.solve", "incomp.poisson", {}),
    ("repro.incomp.levelset", "LevelSet.reinitialize", "incomp.reinit", {}),
    ("repro.workloads.cellular", "invert_energy", "eos.invert_energy", {"count": _newton_iterations}),
    ("repro.burn.network", "CarbonBurnNetwork.burn", "burn.burn", {}),
    ("repro.workloads.base", "CompressibleWorkload.run", "workloads.run", {"count": _harvest_after_run}),
    ("repro.workloads.cellular", "CellularWorkload.run", "workloads.run", {"count": _harvest_after_run}),
    ("repro.workloads.bubble", "BubbleWorkload.run", "workloads.run", {"count": _harvest_after_run}),
    ("repro.io.sfocu", "compare", "io.sfocu.compare", {}),
    ("repro.experiments.engine", "compare", "io.sfocu.compare", {}),
)

#: layers that always run in the calling process
ENGINE_TARGETS = (
    ("repro.experiments.engine", "gather_references", "experiments.reference", {}),
    ("repro.experiments.adaptive", "gather_references", "experiments.reference", {}),
    ("repro.experiments.engine", "run_tasks", "parallel.executor.map", {}),
    ("repro.experiments.adaptive", "run_tasks", "parallel.executor.map", {}),
    ("repro.experiments.cache", "ReferenceCache.get", "experiments.cache.get", {}),
    ("repro.experiments.cache", "ReferenceCache.put", "experiments.cache.put", {}),
    ("repro.experiments.cache", "NpzReferenceStore.write", "experiments.cache.write",
     {"count": _cache_bytes}),
    ("repro.experiments.journal", "atomic_write_bytes", "experiments.journal.write",
     {"count": _journal_bytes}),
)

ALL_TARGETS = SOLVER_TARGETS + ENGINE_TARGETS


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    tracer.harvest()
    s, total, calls, counts = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts
    hits, misses = counts["kernels.scratch.hits"], counts["kernels.scratch.misses"]
    return {
        "core.quantize_s": s["core.quantize"],
        "core.quantize.calls": calls["core.quantize"],
        "core.quantize.elems": counts["core.quantize.elems"],
        "core.runtime.record_s": s["core.runtime.record"],
        "core.runtime.record_calls": calls["core.runtime.record"],
        "core.ops.truncated": counts["core.ops.truncated"],
        "core.ops.full": counts["core.ops.full"],
        "core.mem.bytes": counts["core.mem.bytes"],
        "kernels.trunc.quantize_into_s": s["kernels.trunc.quantize_into"],
        "kernels.trunc.quantize_into.calls": calls["kernels.trunc.quantize_into"],
        "kernels.scratch.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "amr.guard_fill_s": s["amr.guard_fill"],
        "amr.regrid_s": s["amr.regrid"],
        "amr.regrids": calls["amr.regrid"],
        "hydro.compute_dt_s": s["hydro.compute_dt"],
        "hydro.flux_s": s["hydro.step"],
        "incomp.advection_s": s["incomp.advection"],
        "incomp.diffusion_s": s["incomp.diffusion"],
        "incomp.poisson_s": s["incomp.poisson"],
        "incomp.reinit_s": s["incomp.reinit"],
        "eos.invert_energy_s": s["eos.invert_energy"],
        "eos.newton.iterations": counts["eos.newton.iterations"],
        "burn.burn_s": s["burn.burn"],
        "experiments.reference_s": total["experiments.reference"],
        "workloads.run_s": total["workloads.run"],
        "workloads.runs": calls["workloads.run"],
        "experiments.cache.put_s": total["experiments.cache.put"],
        "experiments.cache.bytes_written": counts["experiments.cache.bytes_written"],
        "experiments.cache.get_s": total["experiments.cache.get"],
        "experiments.journal.write_s": total["experiments.journal.write"],
        "experiments.journal.writes": calls["experiments.journal.write"],
        "experiments.journal.bytes": counts["experiments.journal.bytes"],
        "io.sfocu.compare_s": s["io.sfocu.compare"],
    }


def write_spans(path: Path, tracers) -> None:
    """Write the kept spans of every pass as JSON lines, once, at the end."""
    with open(path, "w") as fh:
        for number, tracer in enumerate(tracers):
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"pass": number, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
