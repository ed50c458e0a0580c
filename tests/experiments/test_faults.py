"""Engine-level fault tolerance: collect mode, failure records, chaos runs.

The contract under test: ``on_error="collect"`` turns every failing point
into a structured :class:`PointFailure` — exception, blow-up, timeout,
worker crash, or a failed reference — while the healthy points stay
**bitwise identical** to a fault-free run, and ``on_error="raise"`` (the
default) preserves the historical abort-on-first-error behaviour exactly.
"""
import pickle
import warnings

import numpy as np
import pytest

from repro.experiments import (
    AdaptiveSpec,
    NonFiniteStateError,
    PointFailure,
    PolicySpec,
    SweepResult,
    SweepSpec,
    find_cliff,
    nonfinite_variables,
    run_adaptive_sweep,
    run_sweep,
)
from repro.core import NoTruncationPolicy
from repro.testing import Fault, FaultInjected, FaultPlan
from repro.workloads import (
    Outcome,
    create_workload,
    get_workload_class,
    register_workload,
    unregister_workload,
)

#: the cheapest sweepable workload: a handful of reactive-Euler cells
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


@pytest.fixture(scope="module")
def clean_result():
    return run_sweep(_spec())


class TestCollectMode:
    def test_raising_point_is_collected_healthy_points_bitwise(self, clean_result, tmp_path):
        plan = FaultPlan(
            faults=(Fault("point", 1, "raise", times=None, message="solver exploded"),)
        )
        with plan.installed():
            result = run_sweep(_spec(on_error="collect"))

        assert [f.index for f in result.failures] == [1]
        failure = result.failures[0]
        assert failure.kind == "exception"
        assert failure.exc_type == "FaultInjected"
        assert "solver exploded" in failure.message
        assert failure.format_name == "e11m20"
        assert failure.policy == "module[eos]"
        assert "FaultInjected" in failure.traceback
        assert failure.seconds >= 0.0

        assert [p.index for p in result.points] == [0, 2]
        clean = {p.index: p for p in clean_result.points}
        for point in result.points:
            assert point.metrics_key() == clean[point.index].metrics_key()

    def test_default_raise_mode_propagates(self):
        plan = FaultPlan(faults=(Fault("point", 0, "raise", times=None),))
        with plan.installed():
            with pytest.raises(FaultInjected):
                run_sweep(_spec())

    def test_failure_is_picklable_and_keyed_without_noise(self):
        plan = FaultPlan(faults=(Fault("point", 2, "raise", times=None),))
        with plan.installed():
            result = run_sweep(_spec(on_error="collect"))
        failure = pickle.loads(pickle.dumps(result.failures[0]))
        # seconds / retries / traceback are machine noise, excluded from the
        # identity used by merge dedup and bitwise comparisons
        assert failure.failure_key() == result.failures[0].failure_key()
        hostile = PointFailure(**{**failure.__dict__, "seconds": 99.0, "retries": 7})
        assert hostile.failure_key() == failure.failure_key()

    def test_table_and_to_dict_report_failures(self):
        plan = FaultPlan(faults=(Fault("point", 0, "raise", times=None),))
        with plan.installed():
            result = run_sweep(_spec(on_error="collect"))
        assert "failed points:" in result.table()
        assert "FaultInjected" in result.table()
        payload = result.to_dict()
        assert payload["failures"][0]["kind"] == "exception"
        assert result.select_failures(kind="exception") == result.failures
        assert result.select_failures(workload="nope") == []

    def test_reference_failure_fails_its_points(self):
        plan = FaultPlan(faults=(Fault("reference", "cellular", "raise", times=None),))
        with plan.installed():
            result = run_sweep(_spec(on_error="collect"))
        assert result.points == []
        # one reference-level record (index -1) plus one kind="reference"
        # failure per point that needed it
        assert [f.index for f in result.failures] == [-1, 0, 1, 2]
        assert result.failures[0].exc_type == "FaultInjected"
        assert {f.kind for f in result.failures[1:]} == {"reference"}

    def test_reference_failure_raises_in_raise_mode(self):
        plan = FaultPlan(faults=(Fault("reference", "cellular", "raise", times=None),))
        with plan.installed():
            with pytest.raises(FaultInjected):
                run_sweep(_spec())


class TestBlowupDetection:
    def test_nonfinite_variables(self):
        state = {"a": np.ones(3), "b": np.array([1.0, np.nan]), "c": np.array([np.inf])}
        assert nonfinite_variables(state) == ["b", "c"]
        assert nonfinite_variables({"a": np.ones(3)}) == []

    @pytest.fixture
    def nan_producing_cellular(self):
        cls = get_workload_class("cellular")
        original = cls.run

        def bad_run(self, **kwargs):
            outcome = original(self, **kwargs)
            next(iter(outcome.state.values()))[0] = np.nan
            return outcome

        cls.run = bad_run
        try:
            yield
        finally:
            cls.run = original

    def test_collect_mode_records_blowups(self, nan_producing_cellular):
        result = run_sweep(_spec(on_error="collect"))
        assert result.points == []
        assert len(result.failures) == 3
        assert {f.kind for f in result.failures} == {"blowup"}
        assert all(f.exc_type == "NonFiniteStateError" for f in result.failures)
        assert "non-finite" in result.failures[0].message

    def test_raise_mode_keeps_historical_nan_propagation(self, nan_producing_cellular):
        """The finiteness check is collect-only: default sweeps must keep
        their historical bit-for-bit behaviour, NaN errors included."""
        result = run_sweep(_spec())
        assert len(result.points) == 3
        assert not result.failures


class TestMergeWithFailures:
    def test_shards_merge_failures_into_grid_order(self):
        spec = _spec(on_error="collect")
        plan = FaultPlan(faults=(Fault("point", 1, "raise", times=None),))
        with plan.installed():
            shards = [run_sweep(spec.shard(i, 2)) for i in range(2)]
        merged = SweepResult.merge(shards)
        assert [p.index for p in merged.points] == [0, 2]
        assert [f.index for f in merged.failures] == [1]
        clean = run_sweep(_spec())
        lookup = {p.index: p for p in clean.points}
        for point in merged.points:
            assert point.metrics_key() == lookup[point.index].metrics_key()

    def test_merge_rejects_missing_coverage(self):
        spec = _spec(on_error="collect")
        plan = FaultPlan(faults=(Fault("point", 1, "raise", times=None),))
        with plan.installed():
            shard0 = run_sweep(spec.shard(0, 2))
        with pytest.raises(ValueError):
            SweepResult.merge([shard0])


class TestSpecValidation:
    def test_fault_tolerance_fields_validated(self):
        with pytest.raises(ValueError, match="on_error"):
            _spec(on_error="ignore").validate()
        with pytest.raises(ValueError, match="point_timeout"):
            _spec(point_timeout=0.0).validate()
        with pytest.raises(ValueError, match="retries"):
            _spec(retries=-1).validate()

    def test_old_pickles_default_new_fields(self):
        spec = _spec()
        state = dict(spec.__dict__)
        for field in ("on_error", "point_timeout", "retries"):
            state.pop(field)
        revived = SweepSpec.__new__(SweepSpec)
        revived.__setstate__(state)
        assert revived.on_error == "raise"
        assert revived.point_timeout is None
        assert revived.retries is None

    def test_serial_backend_warns_about_unenforceable_timeout(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_sweep(_spec(formats=["e11m46"], point_timeout=60.0))
        assert len(result.points) == 1
        assert any("cannot enforce" in str(w.message) for w in caught)


class TestAdaptiveFaults:
    def test_find_cliff_collect_isolates_probe_failures(self):
        workload = create_workload("cellular", **CELLULAR)
        reference = workload.reference(plane="fast")
        cls = get_workload_class("cellular")
        original = cls.run

        def exploding_run(self, **kwargs):
            raise RuntimeError("probe exploded")

        cls.run = exploding_run
        try:
            result = find_cliff(
                create_workload("cellular", **CELLULAR),
                PolicySpec.module("eos"),
                min_man_bits=8,
                max_man_bits=12,
                reference=reference,
                on_error="collect",
            )
            assert result.evaluations
            assert all(not e.passed and e.error == float("inf")
                       for e in result.evaluations)
            assert len(result.probe_failures) == len(result.evaluations)
            assert all(f.kind == "exception" and "probe exploded" in f.message
                       for f in result.probe_failures)
            with pytest.raises(RuntimeError, match="probe exploded"):
                find_cliff(
                    create_workload("cellular", **CELLULAR),
                    PolicySpec.module("eos"),
                    min_man_bits=8,
                    max_man_bits=12,
                    reference=reference,
                )
        finally:
            cls.run = original

    def test_adaptive_sweep_collects_cell_failures(self):
        spec = AdaptiveSpec(
            workloads=["cellular"],
            min_man_bits=8,
            max_man_bits=12,
            workload_configs={"cellular": dict(CELLULAR)},
            on_error="collect",
        )
        plan = FaultPlan(faults=(Fault("cell", 0, "raise", times=None),))
        with plan.installed():
            result = run_adaptive_sweep(spec)
        assert result.cliffs == []
        assert len(result.failures) == 1
        assert result.failures[0].kind == "exception"
        assert result.select_failures(workload="cellular") == result.failures
        assert "failed cells:" in result.table()
        assert result.to_dict()["failures"][0]["exc_type"] == "FaultInjected"

    def test_adaptive_raise_mode_propagates(self):
        spec = AdaptiveSpec(
            workloads=["cellular"],
            min_man_bits=8,
            max_man_bits=12,
            workload_configs={"cellular": dict(CELLULAR)},
        )
        plan = FaultPlan(faults=(Fault("cell", 0, "raise", times=None),))
        with plan.installed():
            with pytest.raises(FaultInjected):
                run_adaptive_sweep(spec)

    def test_adaptive_spec_validation_and_setstate(self):
        with pytest.raises(ValueError, match="on_error"):
            AdaptiveSpec(workloads=["cellular"], on_error="ignore").validate()
        spec = AdaptiveSpec(workloads=["cellular"])
        state = dict(spec.__dict__)
        for field in ("on_error", "point_timeout", "retries"):
            state.pop(field)
        revived = AdaptiveSpec.__new__(AdaptiveSpec)
        revived.__setstate__(state)
        assert revived.on_error == "raise"
        assert revived.point_timeout is None
        assert revived.retries is None


class TestPrefixFaults:
    """A workload whose ``initial_state()`` raises takes the failed-reference
    path: one ``index=-1`` record plus a ``kind="reference"`` failure per
    point or cell that needed it."""

    @staticmethod
    def _break_prefix(monkeypatch):
        def exploding_initial_state(self):
            raise RuntimeError("prefix exploded")

        monkeypatch.setattr(get_workload_class("cellular"), "initial_state", exploding_initial_state)

    def test_collect_mode_fails_the_reference_and_its_points(self, monkeypatch):
        self._break_prefix(monkeypatch)
        result = run_sweep(_spec(on_error="collect"))
        assert result.points == [] and result.references == {}
        assert [f.index for f in result.failures] == [-1, 0, 1, 2]
        prefix_failure = result.failures[0]
        assert prefix_failure.kind == "exception"
        assert prefix_failure.exc_type == "RuntimeError"
        assert "prefix exploded" in prefix_failure.message
        assert "exploding_initial_state" in prefix_failure.traceback
        assert {f.kind for f in result.failures[1:]} == {"reference"}
        assert all("prefix exploded" in f.message for f in result.failures[1:])

    def test_collect_mode_with_a_cached_reference(self, monkeypatch, tmp_path):
        """The reference comes from the cache, yet the failed prefix still
        fails it and its points."""
        run_sweep(_spec(formats=["e11m46"]), cache=tmp_path / "refs")
        self._break_prefix(monkeypatch)
        result = run_sweep(_spec(on_error="collect"), cache=tmp_path / "refs")
        assert result.cache_stats["hits"] == 1
        assert result.points == []
        assert [f.index for f in result.failures] == [-1, 0, 1, 2]
        assert {f.kind for f in result.failures[1:]} == {"reference"}

    def test_collect_mode_on_resume_from_a_journaled_reference(self, monkeypatch, tmp_path):
        """The reference comes from an interrupted sweep's journal: only the
        point still to run fails, and the journaled points are kept."""
        clean = run_sweep(_spec(), checkpoint=tmp_path / "journal")
        (tmp_path / "journal" / "point-000002.pkl").unlink()
        self._break_prefix(monkeypatch)
        result = run_sweep(_spec(on_error="collect"), checkpoint=tmp_path / "journal")
        assert [p.metrics_key() for p in result.points] == [
            p.metrics_key() for p in clean.points[:2]
        ]
        assert [(f.index, f.kind) for f in result.failures] == [(-1, "exception"), (2, "reference")]

    def test_raise_mode_propagates(self, monkeypatch):
        self._break_prefix(monkeypatch)
        with pytest.raises(RuntimeError, match="prefix exploded"):
            run_sweep(_spec())

    def test_find_cliff_collect_leaves_the_build_to_each_probe(self, monkeypatch):
        """A direct search with a given reference: the failed build becomes
        a failure record of every probe instead of escaping the search."""
        reference = create_workload("cellular", **CELLULAR).reference()
        self._break_prefix(monkeypatch)
        search = dict(reference=reference, min_man_bits=8, max_man_bits=12)
        result = find_cliff("cellular", config_kwargs=CELLULAR, on_error="collect", **search)
        assert not result.found
        assert result.probe_failures and all(
            "prefix exploded" in f.message for f in result.probe_failures
        )
        with pytest.raises(RuntimeError, match="prefix exploded"):
            find_cliff("cellular", config_kwargs=CELLULAR, **search)

    def test_adaptive_collect_and_raise(self, monkeypatch):
        self._break_prefix(monkeypatch)
        spec = dict(
            workloads=["cellular"],
            min_man_bits=8,
            max_man_bits=12,
            workload_configs={"cellular": dict(CELLULAR)},
        )
        result = run_adaptive_sweep(AdaptiveSpec(on_error="collect", **spec))
        assert result.cliffs == []
        assert [(f.index, f.kind) for f in result.failures] == [(-1, "exception"), (0, "reference")]
        with pytest.raises(RuntimeError, match="prefix exploded"):
            run_adaptive_sweep(AdaptiveSpec(**spec))


class PrefixlessScenario:
    """A scenario by surface alone: no ``Scenario`` base, no
    ``initial_state``, and a ``run`` that accepts no ``prefix``.  Its error
    at m mantissa bits is ``2**-m - 2**-53``."""

    name = "prefixless-duck"
    config_class = None
    kind = "duck"
    error_variables = ("value",)
    default_error_variables = ("value",)
    cliff_threshold = 2.0 ** -10

    def run(self, policy=None, runtime=None):
        bits = 53
        if policy is not None and not isinstance(policy, NoTruncationPolicy):
            bits = policy.config.targets[64].man_bits
        return Outcome(
            workload=self.name,
            state={"value": np.array([2.0 ** -bits])},
            kind=self.kind,
            runtime=runtime,
        )

    def reference(self):
        return self.run()

    def error(self, outcome, reference):
        return float(abs(outcome.state["value"][0] - reference.state["value"][0]))

    def acceptable(self, outcome, reference, threshold=None):
        limit = self.cliff_threshold if threshold is None else threshold
        return self.error(outcome, reference) <= limit


class TestPrefixlessScenario:
    @pytest.fixture(autouse=True)
    def registered(self):
        register_workload(PrefixlessScenario)
        yield
        unregister_workload(PrefixlessScenario.name)

    def test_sweeps(self):
        result = run_sweep(
            SweepSpec(
                workloads=[PrefixlessScenario.name],
                formats=["e11m20", "e11m8"],
                policies=[PolicySpec(kind="global")],
            )
        )
        assert not result.failures
        assert [p.scalar_error for p in result.points] == [
            2.0 ** -20 - 2.0 ** -53, 2.0 ** -8 - 2.0 ** -53,
        ]

    def test_cliff_searches(self):
        result = run_adaptive_sweep(
            AdaptiveSpec(
                workloads=[PrefixlessScenario.name],
                policies=[PolicySpec(kind="global")],
                min_man_bits=2,
                max_man_bits=30,
            )
        )
        assert [c.cliff_man_bits for c in result.cliffs] == [10]
        assert find_cliff(
            PrefixlessScenario(), PolicySpec(kind="global"), min_man_bits=2, max_man_bits=30
        ).cliff_man_bits == 10


class TestProcessBackendChaos:
    def test_process_sweep_with_kill_and_raise(self, tmp_path):
        """A worker SIGKILL plus a raising point: the collect-mode sweep
        completes with exactly those failures, healthy points bitwise equal
        to the serial run."""
        plan = FaultPlan(
            faults=(
                Fault("point", 0, "raise", times=None),
                Fault("point", 2, "kill", times=None),
            ),
            marker_dir=str(tmp_path),
        )
        with plan.installed(), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_sweep(
                _spec(backend="process", max_workers=2, on_error="collect")
            )
        kinds = {f.index: f.kind for f in result.failures}
        assert kinds == {0: "exception", 2: "worker-crash"}
        assert [p.index for p in result.points] == [1]
        clean = run_sweep(_spec())
        assert result.points[0].metrics_key() == clean.points[1].metrics_key()
