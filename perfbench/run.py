"""Benchmark of the sweep engine, end to end and per layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sweep-counted --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Each repetition sets up (spec validation, fresh cache/journal directories,
cache priming) and then times one call of ``run_sweep`` or
``run_adaptive_sweep``.  ``setup_s`` is the median import time of ``repro``
in a fresh interpreter (probed in the first three repetitions) plus the
median of the in-process set-up.

Times are reported in reference-host seconds.  The speed of a shared host
drifts by tens of percent over minutes, so every timed call is bracketed
by a fixed probe (:func:`host_seconds`, small-array numpy work shaped like
the op-by-op path, independent of ``repro``), and the run's median times
are scaled by ``HOST_REF_S / median probe seconds``.  The raw samples and
the probe samples are kept in the record line.  Repetitions continue
until ``--seconds`` have passed (at least two, after one warm-up
repetition that is checked but not timed); every figure is a median over
them.  Every repetition's output digest must equal the first one's,
and for the default seed the digest recorded in ``digests.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends the first third of the time on untraced repetitions
and the rest on traced ones, and reports the per-layer metrics (see
``bench_trace.py``); ``sweep-fast`` takes its solver and kernel layers from
a traced serial pass and its engine, executor, cache and journal layers
from a traced pass on its own process backend.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a record with the machine fingerprint, the seed, the workload's reason
and every sample; it is also written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

import bench_trace as bt
import bench_workloads as bw

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"

MIN_REPS = 2
#: repetitions whose set-up also times the import of ``repro`` in a fresh
#: interpreter (each probe costs an interpreter start)
IMPORT_SAMPLES = 3
#: share of a traced run spent on untraced repetitions (the overhead base)
UNTRACED_SHARE = 1 / 3

#: executor warnings that report a retry, a pool rebuild or a serial fallback
EXECUTOR_WARNING = re.compile(
    r"fresh pool|retry|pool unavailable|pool creation failed|isolating|would not pickle"
)

#: seconds the host probe takes on the reference host
HOST_REF_S = 0.2

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.experiments, repro.workloads; "
    "print(time.perf_counter() - t)"
)

clock = time.perf_counter


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {
        "cpu": cpu or platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def import_seconds() -> float:
    """Import time of ``repro`` in a fresh interpreter (start-up excluded)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def host_seconds() -> float:
    """Seconds a fixed amount of small-array numpy work and dictionary
    bookkeeping takes right now: the host's momentary speed."""
    import numpy as np

    started = clock()
    x = np.linspace(0.5, 1.5, 196).reshape(14, 14)
    counts = {}
    for _ in range(20_000):
        mantissa, exponent = np.frexp(np.multiply(x, 1.0000001))
        y = np.ldexp(np.round(np.ldexp(mantissa, 11)), exponent - 11)
        counts["probe"] = counts.get("probe", 0) + y.size
    return clock() - started


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Repetition:
    """One set-up plus one timed call, optionally traced."""

    def __init__(self, workload, seed, size, scratch, *, probe_import=False,
                 targets=(), backend=""):
        self.import_s = import_seconds() if probe_import else None
        prepared_at = clock()
        with warnings.catch_warnings():
            # reference priming warns about the fast plane dropping counters
            # of references, which never report counters
            warnings.simplefilter("ignore")
            self.prepared = bw.prepare(workload, seed, size, scratch, backend)
        self.prepare_s = clock() - prepared_at
        self.tracer = bt.Tracer() if targets else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            before = host_seconds()
            with self.tracer.installed(targets) if targets else contextlib.nullcontext():
                start = clock()
                self.result = self.prepared.call()
                self.wall_s = clock() - start
            self.host_s = (before + host_seconds()) / 2
        self.retries = sum(1 for w in caught if EXECUTOR_WARNING.search(str(w.message)))
        self.digest = bw.digest(self.result)

    def executor_metrics(self) -> dict:
        """Executor numbers of a traced process-backend pass: the points
        phase is the parent-side executor span outside the reference phase;
        worker time is the public ``PointResult.seconds``."""
        if self.prepared.backend != "process":
            return {"parallel.executor.overhead_s": 0.0, "parallel.executor.busy_frac": 0.0}
        points_wall = sum(end - start for name, start, end, parent in self.tracer.spans
                          if name == "parallel.executor.map" and parent != "experiments.reference")
        busy = sum(p.seconds for p in self.result.points) + sum(
            f.seconds for f in self.result.failures)
        workers = max(1, min(self.prepared.workers, len(self.result.points)))
        return {
            "parallel.executor.overhead_s": points_wall - busy / workers,
            "parallel.executor.busy_frac": busy / (workers * points_wall) if points_wall else 0.0,
        }


class Run:
    """Repetitions of one workload and seed, with the output checks."""

    def __init__(self, workload, seed, size, seconds):
        self.workload, self.seed, self.size, self.seconds = workload, seed, size, seconds
        self.scratch = OUT / f"scratch-{os.getpid()}"
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.first_digest = None
        self.recorded_digest = None
        if seed == bw.DEFAULT_SEED and size == "full" and DIGESTS.is_file():
            self.recorded_digest = json.loads(DIGESTS.read_text()).get(workload)
        self.digests = []

    def repetition(self, **kwargs) -> Repetition:
        scratch = self.scratch / f"rep{self.count}"
        self.count += 1
        try:
            rep = Repetition(self.workload, self.seed, self.size, scratch, **kwargs)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.check(rep)
        return rep

    def check(self, rep: Repetition) -> None:
        """Failure accounting and the output check of one repetition.

        Traced repetitions must reproduce the first digest too, so a
        wrapper that changed a bit would count as a failure."""
        result = rep.result
        self.attempted += bw.attempted(result) + rep.retries + 1
        self.failed += bw.failures(result) + rep.retries
        self.retries += rep.retries
        self.digests.append(rep.digest)
        if self.first_digest is None:
            self.first_digest = rep.digest
        ok = rep.digest == self.first_digest
        if self.recorded_digest is not None:
            ok = ok and rep.digest == self.recorded_digest
        if bw.is_cliff_result(result):
            ok = ok and all(c.found and c.cliff_man_bits > c.min_man_bits for c in result.cliffs)
        if not ok:
            self.failed += 1

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def median(values) -> float:
    return float(statistics.median(values))


def measure_untraced(run: Run) -> dict:
    """End-to-end metrics (``--trace 0``)."""
    deadline = clock() + run.seconds
    run.repetition()  # warm-up: lazy imports, first-touch allocations
    samples = defaultdict(list)
    while run.count <= MIN_REPS or clock() < deadline:
        rep = run.repetition(probe_import=run.count <= IMPORT_SAMPLES)
        samples["wall_s"].append(rep.wall_s)
        samples["points_per_s"].append(bw.units(rep.result) / rep.wall_s)
        samples["prepare_s"].append(rep.prepare_s)
        if rep.import_s is not None:
            samples["import_s"].append(rep.import_s)
        samples["host_s"].append(rep.host_s)
    scale = HOST_REF_S / median(samples["host_s"])
    metrics = {
        "wall_s": median(samples["wall_s"]) * scale,
        "points_per_s": median(samples["points_per_s"]) / scale,
        "setup_s": (median(samples["import_s"]) + median(samples["prepare_s"])) * scale,
    }
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, dict(samples)


def measure_traced(run: Run) -> dict:
    """Per-layer metrics (``--trace 1``)."""
    started = clock()
    run.repetition()  # warm-up
    untraced = []
    while not untraced or clock() < started + run.seconds * UNTRACED_SHARE:
        untraced.append(run.repetition().wall_s)
    traced_walls, layers, tracers = [], defaultdict(list), []
    while not traced_walls or clock() < started + run.seconds:
        if run.workload == "sweep-fast":
            solver = run.repetition(targets=bt.ALL_TARGETS, backend="serial")
            traced = run.repetition(targets=bt.ENGINE_TARGETS)
            values = bt.layer_metrics(solver.tracer)
            values.update({name: value for name, value in bt.layer_metrics(traced.tracer).items()
                           if name.startswith(("experiments.", "parallel."))})
            tracers += [solver.tracer, traced.tracer]
        else:
            traced = run.repetition(targets=bt.ALL_TARGETS)
            values = bt.layer_metrics(traced.tracer)
            tracers.append(traced.tracer)
        result = traced.result
        stats = result.cache_stats or {}
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        values["experiments.cache.hit_ratio"] = stats.get("hits", 0) / lookups if lookups else 0.0
        values["experiments.adaptive.probes"] = bw.units(result) if bw.is_cliff_result(result) else 0
        values.update(traced.executor_metrics())
        traced_walls.append(traced.wall_s)
        for name, value in values.items():
            layers[name].append(value)
    metrics = {name: median(values) for name, values in layers.items()}
    metrics["parallel.executor.retries"] = run.retries
    metrics["trace_overhead_frac"] = median(traced_walls) / median(untraced) - 1.0
    metrics["failed_frac"] = run.failed / run.attempted
    OUT.mkdir(exist_ok=True)
    bt.write_spans(OUT / f"{run.workload}-seed{run.seed}-spans.jsonl", tracers)
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced_walls}


def declared(trace: int):
    """Units of the metrics ``BENCHMARK.json`` declares for this mode, and
    the reason of each workload."""
    spec = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return units, {w["name"]: w["why"] for w in spec["workloads"]}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    units, why = declared(args.trace)
    run = Run(args.workload, args.seed, args.size, args.seconds)
    try:
        measure = measure_traced if args.trace else measure_untraced
        metrics, samples = measure(run)
    finally:
        run.close()
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with {BENCHMARK.name}")
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "fingerprint": fingerprint(),
        "repetitions": run.count,
        "digests": run.digests,
        "recorded_digest": run.recorded_digest,
        "failed_frac": run.failed / run.attempted,
        "samples": samples,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, printed as one table."""
    print(f"{'workload':<15} {'metric':<14} {'value':>12}  unit")
    correct = True
    for workload in bw.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--size", args.size],
            capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        *_, record, result = done.stdout.strip().splitlines()
        result, record = json.loads(result), json.loads(record)
        correct = correct and result["correct"]
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows.append(("failed_frac", record["failed_frac"], "ratio"))
        for name, value, unit in rows:
            print(f"{workload:<15} {name:<14} {value:>12.4f}  {unit}")
    print("outputs correct" if correct else "OUTPUT CHECK FAILED")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*bw.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="problem size; 'toy' is for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"no repro sources under {SRC} (or no {BENCHMARK.name}); run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
