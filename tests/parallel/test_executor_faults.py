"""Executor fault paths, driven by the deterministic injector.

Everything the fault-tolerance layer promises at the executor level is
pinned here: transient worker kills salvage completed results and lose
nothing, deterministic crashers surface after exactly the granted rebuild
budget, hangs are bounded by ``timeout`` and attributed to the right task,
unpicklable payloads fall back to the serial path with identical results,
and the ``on_result`` callback fires exactly once per task through all of
it.
"""
import os
import pickle
import threading
import warnings

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.parallel import executor
from repro.parallel.executor import TaskFault, TaskTimeoutError, run_tasks
from repro.testing import (
    Fault,
    FaultInjected,
    FaultPlan,
    clear_fault_plan,
    current_fault_plan,
    maybe_inject,
)


def _square(x):
    maybe_inject("task", x)
    return x * x


def _second_times_three(pair):
    return pair[1] * 3


def _raise_timeout(x):
    raise TimeoutError(f"task {x} raised its own TimeoutError")


# ---------------------------------------------------------------------------
# the injector itself
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_plan_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            faults=(
                Fault("point", 3, "raise", times=None, message="boom"),
                Fault("cell", "kh", "hang", times=2, seconds=1.5),
            ),
            marker_dir=str(tmp_path),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_bounded_fault_requires_marker_dir(self):
        with pytest.raises(ValueError, match="marker_dir"):
            FaultPlan(faults=(Fault("point", 0, "raise", times=1),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Fault("point", 0, "explode")
        with pytest.raises(ValueError, match="times"):
            Fault("point", 0, "raise", times=0)

    def test_times_counts_firings_via_markers(self, tmp_path):
        plan = FaultPlan(
            faults=(Fault("site", 7, "raise", times=2),), marker_dir=str(tmp_path)
        )
        with plan.installed():
            for _ in range(2):
                with pytest.raises(FaultInjected):
                    maybe_inject("site", 7)
            maybe_inject("site", 7)  # budget exhausted: no-op
        # one persistent marker per firing (that persistence is what lets a
        # SIGKILLed claimant still count)
        assert len(list(tmp_path.iterdir())) == 2

    def test_unbounded_fault_always_fires(self, tmp_path):
        plan = FaultPlan(faults=(Fault("site", "x", "raise", times=None),))
        with plan.installed():
            for _ in range(3):
                with pytest.raises(FaultInjected):
                    maybe_inject("site", "x")

    def test_site_and_key_must_match(self, tmp_path):
        plan = FaultPlan(faults=(Fault("point", 1, "raise", times=None),))
        with plan.installed():
            maybe_inject("reference", 1)
            maybe_inject("point", 2)
            with pytest.raises(FaultInjected):
                maybe_inject("point", 1)

    def test_integer_and_string_keys_alias(self, tmp_path):
        plan = FaultPlan(faults=(Fault("point", "4", "raise", times=None),))
        with plan.installed():
            with pytest.raises(FaultInjected):
                maybe_inject("point", 4)

    def test_installed_restores_previous_plan(self):
        clear_fault_plan()
        outer = FaultPlan(faults=(Fault("a", 1, "raise", times=None),))
        inner = FaultPlan(faults=(Fault("b", 2, "raise", times=None),))
        with outer.installed():
            with inner.installed():
                assert current_fault_plan() == inner
            assert current_fault_plan() == outer
        assert current_fault_plan() is None

    def test_no_plan_is_a_cheap_noop(self):
        clear_fault_plan()
        assert current_fault_plan() is None
        maybe_inject("point", 0)  # must not raise


# ---------------------------------------------------------------------------
# process-backend fault paths
# ---------------------------------------------------------------------------
class TestProcessBackendFaults:
    def test_transient_kill_salvages_and_loses_nothing(self, tmp_path):
        """A worker SIGKILLed once mid-batch: the batch still completes,
        completed results are salvaged (not recomputed), and ``on_result``
        fires exactly once per task."""
        plan = FaultPlan(
            faults=(Fault("task", 2, "kill", times=1),), marker_dir=str(tmp_path)
        )
        seen = []
        with plan.installed(), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_tasks(
                _square, list(range(6)), backend="process", max_workers=2,
                on_result=lambda pos, value: seen.append(pos),
            )
        assert out == [0, 1, 4, 9, 16, 25]
        assert sorted(seen) == list(range(6)), "on_result must fire exactly once per task"
        broke = [str(w.message) for w in caught if "process pool broke" in str(w.message)]
        assert len(broke) == 1 and "salvaged" in broke[0]

    def test_deterministic_kill_raises_after_two_zero_progress_rounds(self, tmp_path):
        plan = FaultPlan(faults=(Fault("task", 1, "kill", times=None),))
        with plan.installed(), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BrokenProcessPool):
                run_tasks(_square, [0, 1, 2], backend="process", max_workers=2)
        retries = [w for w in caught if "fresh pool" in str(w.message)]
        assert len(retries) == 1, "default budget is one rebuild, then surface the crash"

    def test_retries_budget_grants_extra_rebuilds(self, tmp_path):
        plan = FaultPlan(faults=(Fault("task", 0, "kill", times=None),))
        with plan.installed(), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BrokenProcessPool):
                run_tasks(_square, [0, 1], backend="process", max_workers=2, retries=3)
        retries = [w for w in caught if "fresh pool" in str(w.message)]
        assert len(retries) == 3

    def test_collect_mode_attributes_hang_and_crash_exactly(self, tmp_path):
        """The isolation endgame: with a hang and a killer sharing the pool,
        collect mode convicts each one individually instead of smearing the
        crash over the whole frontier."""
        plan = FaultPlan(
            faults=(
                Fault("task", 1, "hang", times=None, seconds=60.0),
                Fault("task", 2, "kill", times=None),
            )
        )
        with plan.installed(), warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            out = run_tasks(
                _square, [0, 1, 2, 3], backend="process", max_workers=2,
                timeout=3.0, collect=True,
            )
        assert out[0] == 0 and out[3] == 9
        assert isinstance(out[1], TaskFault) and out[1].kind == "timeout"
        assert out[1].index == 1 and out[1].elapsed >= 3.0
        assert isinstance(out[2], TaskFault) and out[2].kind == "worker-crash"
        assert out[2].index == 2

    def test_timeout_raise_mode(self, tmp_path):
        plan = FaultPlan(faults=(Fault("task", 0, "hang", times=None, seconds=60.0),))
        with plan.installed(), warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            with pytest.raises(TaskTimeoutError) as excinfo:
                run_tasks(_square, [0, 1], backend="process", max_workers=2, timeout=2.0)
        assert excinfo.value.index == 0
        assert excinfo.value.timeout == 2.0

    def test_task_raised_timeouterror_is_not_a_hang(self):
        """A task *raising* TimeoutError is an ordinary task error; the
        deadline machinery must not kill workers or rebuild the pool."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TimeoutError) as excinfo:
                run_tasks(
                    _raise_timeout, [0, 1], backend="process", max_workers=2, timeout=30.0
                )
        assert not isinstance(excinfo.value, TaskTimeoutError)
        assert "raised its own" in str(excinfo.value)
        assert not [w for w in caught if "hung worker" in str(w.message)]

    def test_unpicklable_payload_falls_back_to_serial_identically(self):
        tasks = [(threading.Lock(), 2), (None, 3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_tasks(_second_times_three, tasks, backend="process", max_workers=2)
        assert out == run_tasks(_second_times_three, tasks, backend="serial") == [6, 9]
        assert any("serially" in str(w.message) for w in caught)

    @pytest.mark.parametrize("stage", ["construction", "first submit"])
    def test_pool_that_fails_to_start_falls_back_to_serial_once(self, monkeypatch, stage):
        """CPython starts the workers at the first ``submit``, so a pool can
        fail to start there as well as in its constructor; either way the
        batch finishes serially, identically, with one warning."""

        class _Unstartable(executor.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                if stage == "construction":
                    raise OSError("no semaphores")
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                raise OSError("cannot fork")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", _Unstartable)
        seen = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_tasks(
                _square, list(range(5)), backend="process", max_workers=2,
                on_result=lambda pos, value: seen.append(pos),
            )
        assert out == run_tasks(_square, list(range(5)), backend="serial")
        assert sorted(seen) == list(range(5)), "on_result must fire exactly once per task"
        fallbacks = [str(w.message) for w in caught if "serially" in str(w.message)]
        assert len(fallbacks) == 1 and "OSError" in fallbacks[0]

    def test_collect_mode_twice_killed_task_recovers_in_isolation(self, tmp_path):
        """The frontier task breaks two pools (its whole budget), then runs
        alone in a single-worker pool, where the transient fault is gone:
        its value comes back, not a TaskFault."""
        plan = FaultPlan(
            faults=(Fault("task", 0, "kill", times=2),), marker_dir=str(tmp_path)
        )
        with plan.installed(), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_tasks(
                _square, [0, 1, 2, 3], backend="process", max_workers=2, collect=True
            )
        assert out == [0, 1, 4, 9]
        assert not any(isinstance(value, TaskFault) for value in out)
        assert len([w for w in caught if "isolating" in str(w.message)]) == 1

    def test_default_retries_is_one_rebuild(self):
        counts = []
        for retries in (None, 1):
            plan = FaultPlan(faults=(Fault("task", 0, "kill", times=None),))
            with plan.installed(), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(BrokenProcessPool):
                    run_tasks(
                        _square, [0, 1], backend="process", max_workers=2, retries=retries
                    )
            counts.append(len([w for w in caught if "fresh pool" in str(w.message)]))
        assert counts == [1, 1]

    def test_task_fault_is_picklable(self):
        fault = TaskFault(kind="timeout", index=3, message="m", elapsed=1.0, retries=2)
        assert pickle.loads(pickle.dumps(fault)) == fault


# ---------------------------------------------------------------------------
# serial backend
# ---------------------------------------------------------------------------
class TestSerialBackendFaults:
    def test_serial_timeout_warns_and_runs_without_deadline(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_tasks(_square, [0, 1, 2], backend="serial", timeout=5.0)
        assert out == [0, 1, 4]
        assert any("cannot enforce" in str(w.message) for w in caught)

    def test_serial_on_result_fires_in_order(self):
        seen = []
        out = run_tasks(
            _square, [3, 4], backend="serial",
            on_result=lambda pos, value: seen.append((pos, value)),
        )
        assert out == [9, 16]
        assert seen == [(0, 9), (1, 16)]
