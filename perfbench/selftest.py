"""Self-test of the benchmark at toy sizes.

Usage, from the root of the repository::

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, each in its own process,
and checks that

* the result line has exactly the contract's keys and reports no failure;
* every metric ``BENCHMARK.json`` declares for the mode appears, with its
  unit, and every name uses only ``[A-Za-z0-9_.-]``;
* the per-layer metrics of the layers a workload bypasses read zero, and
  those of the layers it loads do not;
* the output digests agree across repetitions and across the two runs, so
  tracing changes no bits.

Exits with 0 when every check passes.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

_INCOMP = ("incomp.advection_s", "incomp.diffusion_s", "incomp.poisson_s", "incomp.reinit_s")
_EOS = ("eos.invert_energy_s", "eos.newton.iterations", "burn.burn_s")
_AMR = ("amr.guard_fill_s", "amr.regrid_s", "amr.regrids", "hydro.compute_dt_s", "hydro.flux_s")
_JOURNAL = ("experiments.journal.write_s", "experiments.journal.writes", "experiments.journal.bytes")
_EXECUTOR = ("parallel.executor.overhead_s", "parallel.executor.busy_frac")

#: per-layer metrics that must read zero on a workload (its bypassed layers)
PREDICTED_ZERO = {
    "sweep-counted": ("kernels.trunc.quantize_into_s", *_INCOMP, *_EOS, "experiments.cache.put_s",
                      "experiments.cache.get_s", *_JOURNAL, *_EXECUTOR,
                      "experiments.adaptive.probes"),
    "sweep-fast": ("core.runtime.record_calls", "core.ops.truncated", "core.ops.full",
                   "core.mem.bytes", *_INCOMP, *_EOS, "experiments.adaptive.probes"),
    "cliff-search": ("kernels.trunc.quantize_into_s", *_AMR, "experiments.cache.put_s", *_JOURNAL,
                     *_EXECUTOR),
}

#: per-layer metrics that must not read zero (the layers it loads)
PREDICTED_NONZERO = {
    "sweep-counted": ("core.quantize_s", "core.runtime.record_s", "core.ops.truncated",
                      "core.mem.bytes", *_AMR[:2], "hydro.flux_s", "workloads.runs"),
    "sweep-fast": ("kernels.trunc.quantize_into_s", "kernels.scratch.hit_ratio", *_AMR[:2],
                   "hydro.flux_s", "experiments.reference_s", "experiments.cache.put_s",
                   "experiments.cache.bytes_written", *_JOURNAL, "parallel.executor.busy_frac"),
    "cliff-search": (*_INCOMP[:3], *_EOS, "core.quantize_s", "experiments.cache.get_s",
                     "experiments.cache.hit_ratio", "experiments.adaptive.probes"),
}

#: self-time metrics compared when checking where a workload spends its time
SELF_TIMES = ("core.quantize_s", "core.runtime.record_s", "kernels.trunc.quantize_into_s",
              "amr.guard_fill_s", "amr.regrid_s", "hydro.compute_dt_s", "hydro.flux_s",
              *_INCOMP, "eos.invert_energy_s", "burn.burn_s", "io.sfocu.compare_s")


def run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}")
    *_, record, result = done.stdout.strip().splitlines()
    return json.loads(record), json.loads(result)


def check_result(result, declared, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, metric in metrics.items():
        if not NAME.match(name):
            problems.append(f"{label}: bad metric name {name!r}")
        if metric.get("unit") != declared.get(name):
            problems.append(f"{label}: {name} has unit {metric.get('unit')!r}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{label}: {name} is not a number")
    return problems


def check_layers(workload, values):
    problems = [f"{workload}: {name} = {values[name]} on a bypassed layer"
                for name in PREDICTED_ZERO[workload] if values[name] != 0]
    problems += [f"{workload}: {name} reads zero on a loaded layer"
                 for name in PREDICTED_NONZERO[workload] if values[name] == 0]
    if workload == "cliff-search" and values["experiments.reference_s"] > 0.05 * values["workloads.run_s"]:
        problems.append("cliff-search: references were computed inside the timed call")
    if workload == "sweep-counted":
        counting = values["core.quantize_s"] + values["core.runtime.record_s"]
        others = [values[name] for name in SELF_TIMES
                  if name not in ("core.quantize_s", "core.runtime.record_s")]
        if counting <= max(others):
            problems.append("sweep-counted: quantize + counter bookkeeping is not the largest "
                            "self time")
    return problems


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    problems = []
    for section in ("end_to_end", "per_layer"):
        problems += [f"bad metric name {m['name']!r}" for m in spec[section] if not NAME.match(m["name"])]
    declared = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            record, result = run(workload, trace)
            problems += check_result(result, declared[trace], label)
            digests += record["digests"]
            if trace:
                problems += check_layers(workload, {n: m["value"] for n, m in result["metrics"].items()})
            print(f"{label}: {record['repetitions']} repetitions, digest {record['digests'][0]}")
        if len(set(digests)) != 1:
            problems.append(f"{workload}: digests differ across repetitions and runs: {digests}")
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
