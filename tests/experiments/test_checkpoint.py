"""Crash-safe checkpoint/resume: the journal and its bitwise-resume pin.

The headline guarantee: SIGKILL a checkpointed sweep at any instant, rerun
the same spec against the same journal, and the assembled result is
**bitwise identical** to an uninterrupted run — per-point ``metrics_key``,
rollup counters and cache-stats semantics included.  A journal written by a
different spec must be rejected, corrupt entries must heal by recompute,
and a complete journal must resume without running anything.
"""
import os
import signal
import subprocess
import sys
import time
import types

import pytest

from repro.experiments import (
    AdaptiveSpec,
    CheckpointMismatchError,
    PolicySpec,
    SweepJournal,
    SweepResult,
    SweepSpec,
    atomic_pickle,
    checkpoint_signature,
    run_adaptive_sweep,
    run_sweep,
)
from repro.experiments import adaptive, engine
from repro.experiments.journal import atomic_write_bytes
from repro.testing import Fault, FaultInjected, FaultPlan

CELLULAR = dict(n_cells=16, n_steps=4)


def _spec(**overrides) -> SweepSpec:
    base = dict(
        workloads=["cellular"],
        formats=["e11m46", "e11m20", "e11m10"],
        policies=[PolicySpec.module("eos")],
        workload_configs={"cellular": dict(CELLULAR)},
    )
    base.update(overrides)
    return SweepSpec(**base)


def _assert_bitwise_equal(resumed: SweepResult, clean: SweepResult) -> None:
    assert [p.metrics_key() for p in resumed.points] == [
        p.metrics_key() for p in clean.points
    ]
    assert not resumed.failures and not clean.failures
    a, b = resumed.rollup(), clean.rollup()
    assert (a.ops, a.mem) == (b.ops, b.mem)
    assert resumed.cache_stats == clean.cache_stats


# ---------------------------------------------------------------------------
# the journal itself
# ---------------------------------------------------------------------------
class TestJournal:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "x.bin"
        atomic_write_bytes(path, b"first")
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    def test_point_and_reference_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.open("sig", total_points=4)
        journal.record_point(3, {"value": 1})
        ref = types.SimpleNamespace(workload="kelvin-helmholtz")
        journal.record_reference("kelvin-helmholtz", ref)
        assert journal.completed_indices() == [3]
        assert journal.load_points() == {3: {"value": 1}}
        assert set(journal.load_references()) == {"kelvin-helmholtz"}

    def test_reopen_same_signature_ok_different_rejected(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.open("sig-a", total_points=2)
        SweepJournal(tmp_path).open("sig-a", total_points=2)
        with pytest.raises(CheckpointMismatchError):
            SweepJournal(tmp_path).open("sig-b", total_points=2)

    def test_corrupt_entry_heals_by_recompute(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.open("sig", total_points=2)
        journal.record_point(0, {"value": 1})
        (tmp_path / "point-000001.pkl").write_bytes(b"torn mid-write")
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint point"):
            points = journal.load_points()
        assert points == {0: {"value": 1}}
        assert not (tmp_path / "point-000001.pkl").exists()

    def test_unreadable_metadata_is_a_mismatch(self, tmp_path):
        (tmp_path / "journal.json").write_text("{not json")
        with pytest.raises(CheckpointMismatchError, match="unreadable"):
            SweepJournal(tmp_path).open("sig", total_points=1)


class TestCheckpointSignature:
    def test_execution_knobs_do_not_change_identity(self):
        base = checkpoint_signature(_spec())
        assert checkpoint_signature(_spec(backend="process", max_workers=4)) == base
        assert checkpoint_signature(
            _spec(on_error="collect", point_timeout=9.0, retries=2)
        ) == base

    def test_grid_and_slice_do_change_identity(self):
        base = checkpoint_signature(_spec())
        assert checkpoint_signature(_spec(formats=["e11m46"])) != base
        assert checkpoint_signature(_spec(keep_states=True)) != base
        assert checkpoint_signature(_spec().shard(0, 2)) != base


# ---------------------------------------------------------------------------
# resume semantics
# ---------------------------------------------------------------------------
class TestResume:
    def test_interrupted_collect_sweep_resumes_bitwise(self, tmp_path):
        """A raising point interrupts a raise-mode checkpointed sweep; the
        journal keeps the completed prefix and resume fills in the rest."""
        journal_dir = tmp_path / "journal"
        plan = FaultPlan(
            faults=(Fault("point", 1, "raise", times=1),),
            marker_dir=str(tmp_path / "markers"),
        )
        with plan.installed():
            with pytest.raises(FaultInjected):
                run_sweep(_spec(), checkpoint=journal_dir)
        done = set(SweepJournal(journal_dir).completed_indices())
        assert 0 in done and 1 not in done

        resumed = run_sweep(_spec(), checkpoint=journal_dir)
        _assert_bitwise_equal(resumed, run_sweep(_spec()))

    def test_complete_journal_reruns_nothing(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first = run_sweep(_spec(), checkpoint=journal_dir)
        # any recomputation would now fire this deterministic fault
        plan = FaultPlan(
            faults=(
                Fault("point", 0, "raise", times=None),
                Fault("point", 1, "raise", times=None),
                Fault("point", 2, "raise", times=None),
                Fault("reference", "cellular", "raise", times=None),
            )
        )
        with plan.installed():
            resumed = run_sweep(_spec(), checkpoint=journal_dir)
        _assert_bitwise_equal(resumed, first)

    def test_collected_failures_are_journaled_and_survive_resume(self, tmp_path):
        journal_dir = tmp_path / "journal"
        plan = FaultPlan(
            faults=(Fault("point", 1, "raise", times=1),),
            marker_dir=str(tmp_path / "markers"),
        )
        with plan.installed():
            first = run_sweep(_spec(on_error="collect"), checkpoint=journal_dir)
        assert [f.index for f in first.failures] == [1]
        # the fault's one firing is spent: a rerun could only succeed at
        # point 1 — unless the journaled failure is (correctly) replayed
        resumed = run_sweep(_spec(on_error="collect"), checkpoint=journal_dir)
        assert [f.index for f in resumed.failures] == [1]
        assert resumed.failures[0].failure_key() == first.failures[0].failure_key()
        assert [p.metrics_key() for p in resumed.points] == [
            p.metrics_key() for p in first.points
        ]

    def test_mismatched_spec_rejected(self, tmp_path):
        journal_dir = tmp_path / "journal"
        run_sweep(_spec(), checkpoint=journal_dir)
        with pytest.raises(CheckpointMismatchError):
            run_sweep(_spec(formats=["e11m46"]), checkpoint=journal_dir)

    def test_corrupt_point_entry_recomputed_on_resume(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first = run_sweep(_spec(), checkpoint=journal_dir)
        (journal_dir / "point-000001.pkl").write_bytes(b"torn by a crash")
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint point"):
            resumed = run_sweep(_spec(), checkpoint=journal_dir)
        _assert_bitwise_equal(resumed, first)


def _adaptive_spec(**overrides) -> AdaptiveSpec:
    base = dict(
        workloads=["cellular"],
        policies=[PolicySpec.module("eos"), PolicySpec.everywhere(modules=("eos",))],
        min_man_bits=8,
        max_man_bits=40,
        workload_configs={"cellular": dict(CELLULAR)},
        on_error="collect",
    )
    base.update(overrides)
    return AdaptiveSpec(**base)


def _cliff_signature(result) -> tuple:
    """Everything of a cliff-search result that must survive a resume
    bitwise: each cliff with its evaluations, probe failures and the
    result's failure records."""
    return (
        [repr(c.to_dict()) for c in result.cliffs],
        [[f.failure_key() for f in c.probe_failures] for c in result.cliffs],
        [f.failure_key() for f in result.failures],
    )


@pytest.fixture
def launched_cells(monkeypatch):
    """Cell indices handed to the executor, spied on ``engine.run_tasks``."""
    launched = []
    original = engine.run_tasks

    def spy(fn, tasks, **kwargs):
        if fn is adaptive._execute_cliff:
            launched.extend(task.cell.index for task in tasks)
        return original(fn, tasks, **kwargs)

    monkeypatch.setattr(engine, "run_tasks", spy)
    return launched


class TestAdaptiveResume:
    def test_missing_cell_is_rerun_alone_and_bitwise(self, tmp_path, launched_cells):
        journal_dir = tmp_path / "journal"
        first = run_adaptive_sweep(_adaptive_spec(), checkpoint=journal_dir)
        assert SweepJournal(journal_dir).completed_indices() == [0, 1]
        (journal_dir / "point-000001.pkl").unlink()

        launched_cells.clear()
        resumed = run_adaptive_sweep(_adaptive_spec(), checkpoint=journal_dir)
        assert launched_cells == [1]
        clean = run_adaptive_sweep(_adaptive_spec())
        assert _cliff_signature(resumed) == _cliff_signature(clean)
        assert _cliff_signature(first) == _cliff_signature(clean)

    def test_complete_journal_launches_no_cells(self, tmp_path, launched_cells):
        journal_dir = tmp_path / "journal"
        first = run_adaptive_sweep(_adaptive_spec(), checkpoint=journal_dir)
        assert launched_cells == [0, 1]
        launched_cells.clear()
        resumed = run_adaptive_sweep(_adaptive_spec(), checkpoint=journal_dir)
        assert launched_cells == []
        assert _cliff_signature(resumed) == _cliff_signature(first)

    def test_changed_bits_range_rejected(self, tmp_path):
        journal_dir = tmp_path / "journal"
        run_adaptive_sweep(_adaptive_spec(), checkpoint=journal_dir)
        with pytest.raises(CheckpointMismatchError):
            run_adaptive_sweep(_adaptive_spec(max_man_bits=39), checkpoint=journal_dir)

    def test_sweep_journal_rejected_by_cliff_search(self, tmp_path):
        journal_dir = tmp_path / "journal"
        run_sweep(_spec(formats=["e11m46"]), checkpoint=journal_dir)
        with pytest.raises(CheckpointMismatchError):
            run_adaptive_sweep(_adaptive_spec(), checkpoint=journal_dir)


CHILD_SCRIPT = """
import sys
from repro.experiments import PolicySpec, SweepSpec, run_sweep

spec = SweepSpec(
    workloads=["cellular"],
    formats=["e11m46", "e11m20", "e11m10"],
    policies=[PolicySpec.module("eos")],
    workload_configs={"cellular": dict(n_cells=16, n_steps=4)},
    backend="process",
    max_workers=2,
)
run_sweep(spec, checkpoint=sys.argv[1])
"""


class TestKilledSweepResumes:
    def test_sigkilled_process_backend_sweep_resumes_bitwise(self, tmp_path):
        """The acceptance pin: SIGKILL a checkpointed process-backend sweep
        mid-flight, rerun, and the result is bitwise identical to an
        uninterrupted run (the resume may even switch backends)."""
        journal_dir = tmp_path / "journal"
        plan = FaultPlan(
            faults=(Fault("point", 2, "hang", times=1, seconds=600.0),),
            marker_dir=str(tmp_path / "markers"),
        )
        env = dict(os.environ, RAPTOR_FAULT_PLAN=plan.to_json())
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), os.path.abspath("src")) if p
        )
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, str(journal_dir)],
            env=env,
            start_new_session=True,  # lets SIGKILL reap the pool workers too
        )
        journal = SweepJournal(journal_dir)
        deadline = time.monotonic() + 120.0
        try:
            while time.monotonic() < deadline:
                if {0, 1} <= set(journal.completed_indices()):
                    break
                assert child.poll() is None, "child finished before hanging at point 2"
                time.sleep(0.1)
            else:
                pytest.fail("journal never reached points {0, 1}")
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(timeout=30)

        assert 2 not in set(journal.completed_indices())
        resumed = run_sweep(_spec(backend="process", max_workers=2),
                            checkpoint=journal_dir)
        _assert_bitwise_equal(resumed, run_sweep(_spec()))


# ---------------------------------------------------------------------------
# atomic result persistence (SweepResult.save / AdaptiveResult.save)
# ---------------------------------------------------------------------------
class TestAtomicSave:
    def test_save_is_atomic_and_loadable(self, tmp_path):
        result = run_sweep(_spec(formats=["e11m46"]))
        out = tmp_path / "result.pkl"
        result.save(out)
        result.save(out)  # overwrite via rename, not truncate-then-write
        loaded = SweepResult.load(out)
        assert [p.metrics_key() for p in loaded.points] == [
            p.metrics_key() for p in result.points
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["result.pkl"]

    def test_atomic_pickle_failure_leaves_no_debris(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("cannot pickle this")

        with pytest.raises(RuntimeError):
            atomic_pickle(Unpicklable(), tmp_path / "x.pkl")
        assert list(tmp_path.iterdir()) == []
