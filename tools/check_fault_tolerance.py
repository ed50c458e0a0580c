"""CI chaos check: the sweep engine survives injected faults and resumes
killed sweeps and cliff searches bitwise-identically.

Three phases, all built on the deterministic fault injector
(:mod:`repro.testing.faults`).  Phases A and B run a small
Kelvin–Helmholtz sweep over the four standard formats (one point per
format):

**Phase A — failure isolation.**  Runs the sweep on the process backend in
``on_error="collect"`` mode with three injected faults: point 1 raises,
point 2 hangs (bounded by ``point_timeout``), point 3 SIGKILLs its worker
on every attempt.  The sweep must complete with exactly those three
:class:`PointFailure` records — kinds ``exception`` / ``timeout`` /
``worker-crash`` respectively — and the healthy point 0 (plus the
reference) must be **bitwise identical** to a fault-free serial run.

**Phase B — crash-safe resume.**  Launches the same sweep as a *child
process* with ``checkpoint=<dir>`` and a one-shot hang at point 2; once the
journal shows points 0 and 1 committed, the child is SIGKILLed mid-sweep.
Rerunning the sweep against the journal must execute only the missing
points and reassemble a result bitwise identical to the uninterrupted
serial run — per-point ``metrics_key``, state arrays, reference state and
rollup counters all included.  A spec that disagrees with the journal
(different ``t_end`` here) must be rejected with
:class:`CheckpointMismatchError`.

**Phase C — crash-safe cliff-search resume.**  Launches a checkpointed
cellular cliff search over two cells (two EOS policies) on the process
backend as a child process, with a one-shot hang at cell 1; once the
journal shows cell 0 committed, the child's whole process group is
SIGKILLed.  Rerunning the search against the journal must execute only
cell 1 and reassemble a result bitwise identical to an uninterrupted
serial run — every cliff, every probe evaluation, failure records and the
reference state.

    PYTHONPATH=src python tools/check_fault_tolerance.py
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: the CI smoke KH configuration (tests/experiments FAST grid)
KH_CONFIG = dict(
    nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
    t_end=0.005, rk_stages=1,
)
FORMATS = ["fp64", "fp32", "bf16", "fp16"]
#: generous per-point bound: a healthy FAST point takes ~2s, the injected
#: hang sleeps for minutes — 30s separates them cleanly even on slow CI
POINT_TIMEOUT = 30.0


def build_spec(**overrides):
    from repro.experiments import PolicySpec, SweepSpec

    base = dict(
        workloads=["kelvin-helmholtz"],
        formats=FORMATS,
        policies=[PolicySpec.everywhere(modules=("hydro",))],
        workload_configs={"kelvin-helmholtz": dict(KH_CONFIG)},
        keep_states=True,
    )
    base.update(overrides)
    return SweepSpec(**base)


def diff_results(label: str, resumed, clean) -> list:
    """Bitwise comparison of two sweep results (metrics, states, rollup)."""
    failures = []
    a_keys = [p.metrics_key() for p in resumed.points]
    b_keys = [p.metrics_key() for p in clean.points]
    if a_keys != b_keys:
        failures.append(f"{label}: per-point metrics_key sequences differ")
    clean_points = {p.index: p for p in clean.points}
    for point in resumed.points:
        other = clean_points.get(point.index)
        if other is None:
            failures.append(f"{label}: point {point.index} missing from the clean run")
            continue
        for var in sorted(point.state or {}):
            a, b = point.state[var], other.state[var]
            if not np.array_equal(a, b):
                failures.append(
                    f"{label}: point {point.index} state {var!r}: "
                    f"{int(np.sum(a != b))}/{a.size} cells differ"
                )
    for name, ref in resumed.references.items():
        other = clean.references.get(name)
        if other is None:
            failures.append(f"{label}: reference {name!r} missing from the clean run")
            continue
        for var in sorted(ref.state):
            a, b = ref.state[var], other.state[var]
            if not np.array_equal(a, b):
                failures.append(
                    f"{label}: reference {name!r} state {var!r}: "
                    f"{int(np.sum(a != b))}/{a.size} cells differ"
                )
    a_roll, b_roll = resumed.rollup(), clean.rollup()
    if (a_roll.ops, a_roll.mem) != (b_roll.ops, b_roll.mem):
        failures.append(f"{label}: rollup op/byte counters differ")
    return failures


def phase_a() -> list:
    """Chaos sweep: raise@1, hang@2, kill@3 under collect mode."""
    from repro.experiments import run_sweep
    from repro.testing import Fault, FaultPlan

    clean = run_sweep(build_spec())

    marker_dir = tempfile.mkdtemp(prefix="raptor-chaos-markers-")
    plan = FaultPlan(
        faults=(
            Fault("point", 1, "raise", times=None),
            Fault("point", 2, "hang", times=None, seconds=600.0),
            Fault("point", 3, "kill", times=None),
        ),
        marker_dir=marker_dir,
    )
    with plan.installed():
        chaos = run_sweep(
            build_spec(
                backend="process",
                max_workers=2,
                on_error="collect",
                point_timeout=POINT_TIMEOUT,
            )
        )

    failures = []
    kinds = {f.index: f.kind for f in chaos.failures}
    expected = {1: "exception", 2: "timeout", 3: "worker-crash"}
    if kinds != expected:
        failures.append(f"phase A: failure map {kinds} != expected {expected}")
    if len(chaos.failures) != len(expected):
        failures.append(
            f"phase A: {len(chaos.failures)} failure records for "
            f"{len(expected)} injected faults (duplicates?)"
        )
    if [p.index for p in chaos.points] != [0]:
        failures.append(
            "phase A: healthy-point indices "
            f"{[p.index for p in chaos.points]} != [0]"
        )
    healthy = type(clean)(
        spec=chaos.spec,
        points=chaos.points,
        references=chaos.references,
    )
    clean_view = type(clean)(
        spec=clean.spec,
        points=[p for p in clean.points if p.index == 0],
        references=clean.references,
    )
    failures.extend(diff_results("phase A (healthy point vs clean serial)",
                                 healthy, clean_view))
    return failures


def run_phase_b_child(journal_dir: str) -> None:
    """Child entry point: checkpointed sweep that hangs (once) at point 2."""
    from repro.experiments import run_sweep

    run_sweep(build_spec(), checkpoint=journal_dir)


def phase_b() -> list:
    """Kill a checkpointed sweep mid-flight, resume, diff against clean."""
    from repro.experiments import (
        CheckpointMismatchError,
        SweepJournal,
        run_sweep,
    )
    from repro.testing import Fault, FaultPlan

    failures = []
    journal_dir = tempfile.mkdtemp(prefix="raptor-chaos-journal-")
    marker_dir = tempfile.mkdtemp(prefix="raptor-chaos-markers-")
    plan = FaultPlan(
        faults=(Fault("point", 2, "hang", times=1, seconds=600.0),),
        marker_dir=marker_dir,
    )
    env = dict(os.environ)
    env["RAPTOR_FAULT_PLAN"] = plan.to_json()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--phase-b-child", journal_dir],
        env=env,
    )
    journal = SweepJournal(journal_dir)
    deadline = time.monotonic() + 300.0
    try:
        while time.monotonic() < deadline:
            if {0, 1} <= set(journal.completed_indices()):
                break
            if child.poll() is not None:
                failures.append(
                    f"phase B: child exited early (code {child.returncode}) "
                    "before hanging at point 2"
                )
                return failures
            time.sleep(0.2)
        else:
            failures.append("phase B: journal never reached points {0, 1}")
            return failures
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.wait(timeout=30)

    done = set(journal.completed_indices())
    if not ({0, 1} <= done) or done & {2, 3} == {2, 3}:
        failures.append(f"phase B: unexpected journaled indices {sorted(done)}")

    resumed = run_sweep(build_spec(), checkpoint=journal_dir)
    clean = run_sweep(build_spec())
    if len(resumed.points) != len(clean.points):
        failures.append(
            f"phase B: resumed sweep has {len(resumed.points)} points, "
            f"clean has {len(clean.points)}"
        )
    if resumed.failures:
        failures.append(f"phase B: resumed sweep recorded failures: {resumed.failures}")
    failures.extend(diff_results("phase B (resumed vs clean serial)", resumed, clean))

    mismatched = build_spec(
        workload_configs={"kelvin-helmholtz": dict(KH_CONFIG, t_end=0.01)}
    )
    try:
        run_sweep(mismatched, checkpoint=journal_dir)
        failures.append("phase B: mismatched spec was not rejected by the journal")
    except CheckpointMismatchError:
        pass
    return failures


def build_cliff_spec(**overrides):
    from repro.experiments import AdaptiveSpec, PolicySpec

    base = dict(
        workloads=["cellular"],
        policies=[PolicySpec.module("eos"), PolicySpec.everywhere(modules=("eos",))],
        min_man_bits=8,
        max_man_bits=48,
        workload_configs={"cellular": dict(n_cells=32, n_steps=8)},
    )
    base.update(overrides)
    return AdaptiveSpec(**base)


def diff_cliff_results(label: str, resumed, clean) -> list:
    """Bitwise comparison of two cliff-search results."""
    failures = []
    if [repr(c.to_dict()) for c in resumed.cliffs] != [repr(c.to_dict()) for c in clean.cliffs]:
        failures.append(f"{label}: cliffs or their probe evaluations differ")
    if [f.failure_key() for f in resumed.failures] != [f.failure_key() for f in clean.failures]:
        failures.append(f"{label}: failure records differ")
    for name, ref in clean.references.items():
        other = resumed.references.get(name)
        if other is None or any(
            not np.array_equal(ref.state[var], other.state[var]) for var in ref.state
        ):
            failures.append(f"{label}: reference {name!r} missing or different")
    return failures


def run_phase_c_child(journal_dir: str) -> None:
    """Child entry point: checkpointed cliff search that hangs (once) at cell 1."""
    from repro.experiments import run_adaptive_sweep

    run_adaptive_sweep(build_cliff_spec(backend="process", max_workers=2), checkpoint=journal_dir)


def phase_c() -> list:
    """Kill a checkpointed process-backend cliff search after its first
    journaled cell, resume, diff against a clean serial run."""
    from repro.experiments import SweepJournal, run_adaptive_sweep
    from repro.testing import Fault, FaultPlan

    failures = []
    journal_dir = tempfile.mkdtemp(prefix="raptor-chaos-cliff-journal-")
    marker_dir = tempfile.mkdtemp(prefix="raptor-chaos-markers-")
    plan = FaultPlan(
        faults=(Fault("cell", 1, "hang", times=1, seconds=600.0),),
        marker_dir=marker_dir,
    )
    env = dict(os.environ, RAPTOR_FAULT_PLAN=plan.to_json())
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--phase-c-child", journal_dir],
        env=env,
        start_new_session=True,  # lets SIGKILL reap the hung pool worker too
    )
    journal = SweepJournal(journal_dir)
    deadline = time.monotonic() + 300.0
    try:
        while time.monotonic() < deadline:
            if 0 in journal.completed_indices():
                break
            if child.poll() is not None:
                failures.append(
                    f"phase C: child exited early (code {child.returncode}) "
                    "before hanging at cell 1"
                )
                return failures
            time.sleep(0.2)
        else:
            failures.append("phase C: journal never reached cell 0")
            return failures
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait(timeout=30)

    if journal.completed_indices() != [0]:
        failures.append(f"phase C: unexpected journaled cells {journal.completed_indices()}")
    resumed = run_adaptive_sweep(
        build_cliff_spec(backend="process", max_workers=2), checkpoint=journal_dir
    )
    clean = run_adaptive_sweep(build_cliff_spec())
    if len(resumed.cliffs) != 2 or resumed.failures:
        failures.append(
            f"phase C: resumed search has {len(resumed.cliffs)} cliffs and "
            f"{len(resumed.failures)} failures, expected 2 and 0"
        )
    failures.extend(diff_cliff_results("phase C (resumed vs clean serial)", resumed, clean))
    return failures


def main() -> int:
    if len(sys.argv) >= 3 and sys.argv[1] == "--phase-b-child":
        run_phase_b_child(sys.argv[2])
        return 0
    if len(sys.argv) >= 3 and sys.argv[1] == "--phase-c-child":
        run_phase_c_child(sys.argv[2])
        return 0

    failures = phase_a()
    failures.extend(phase_b())
    failures.extend(phase_c())
    if failures:
        print("FAIL: fault-tolerance contract violated")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        "OK: chaos sweep isolated raise/hang/SIGKILL into exception/timeout/"
        "worker-crash failures with the healthy point bitwise identical to a "
        "fault-free serial run; a SIGKILLed checkpointed sweep resumed "
        "bitwise-identically and a mismatched spec was rejected; a SIGKILLed "
        "checkpointed cliff search resumed bitwise-identically"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
