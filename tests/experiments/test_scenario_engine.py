"""Engine coverage for the unified scenario protocol: the cellular and
bubble workloads run through ``run_sweep`` exactly like the compressible
ones — cached, sharded, and bit-identical across backends."""
import numpy as np
import pytest

from repro.experiments import (
    PolicySpec,
    ReferenceCache,
    SweepResult,
    SweepSpec,
    run_sweep,
)
from repro.incomp import BubbleConfig

CELLULAR_FAST = dict(n_cells=32, n_steps=8)
BUBBLE_FAST = dict(
    solver=BubbleConfig(
        nx=16, ny=24, xlim=(-1.0, 1.0), ylim=(-1.0, 2.0),
        reynolds=700.0, advection_scheme="upwind", reinit_interval=4,
    ),
    spin_up_time=0.04,
    truncation_time=0.06,
    snapshot_times=(0.03, 0.06),
    fixed_dt=0.004,
)
SOD_FAST = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.005, rk_stages=1)


def _cellular_spec(**overrides) -> SweepSpec:
    base = dict(
        workloads=["cellular"],
        formats=["e11m46", "e11m12"],
        policies=[PolicySpec.module("eos")],
        workload_configs={"cellular": CELLULAR_FAST},
    )
    base.update(overrides)
    return SweepSpec(**base)


def _bubble_spec(**overrides) -> SweepSpec:
    base = dict(
        workloads=["bubble"],
        formats=["fp64", "e8m4"],
        policies=[PolicySpec.everywhere(modules=("advection", "diffusion"))],
        workload_configs={"bubble": BUBBLE_FAST},
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestCellularThroughEngine:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep(_cellular_spec())

    def test_points_carry_cellular_metrics(self, result):
        wide, narrow = result.points
        assert wide.info["eos_converged"] == 1.0
        assert narrow.info["eos_converged"] == 0.0
        # default error variables of the cellular scenario
        assert set(wide.errors) == {"dens", "temp"}
        assert wide.l1("dens") < narrow.l1("dens")

    def test_reference_recorded_with_cellular_state(self, result):
        ref = result.references["cellular"]
        assert ref.kind == "cellular"
        assert "front_positions" in ref.state
        assert ref.info["detonation_propagated"] == 1.0

    def test_serial_and_process_backends_identical(self, result):
        process = run_sweep(_cellular_spec(backend="process", max_workers=2))
        for a, b in zip(result.points, process.points):
            assert a.metrics_key() == b.metrics_key()
            assert a.errors == b.errors

    def test_scalar_error_is_front_deviation(self, result):
        for p in result.points:
            assert p.scalar_error >= 0.0


class TestBubbleThroughEngine:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep(_bubble_spec())

    def test_points_carry_interface_metrics(self, result):
        fp64_point, narrow = result.points
        assert set(fp64_point.errors) == {"phi"}
        # the fp64 point is bit-identical to the reference
        assert fp64_point.scalar_error == 0.0
        assert fp64_point.l1("phi") == 0.0
        assert narrow.scalar_error > 0.0
        assert narrow.truncated_fraction > 0.0

    def test_serial_and_process_backends_identical(self, result):
        process = run_sweep(_bubble_spec(backend="process", max_workers=2))
        for a, b in zip(result.points, process.points):
            assert a.metrics_key() == b.metrics_key()
            assert a.errors == b.errors

    def test_cutoff_policy_reduces_interface_error(self, result):
        cutoff = run_sweep(
            _bubble_spec(
                formats=["e8m4"],
                policies=[PolicySpec.amr_cutoff(2, modules=("advection", "diffusion"))],
            )
        )
        everywhere_error = result.points[1].scalar_error
        assert cutoff.points[0].scalar_error <= everywhere_error + 1e-12


class TestMixedKindSweep:
    """One grid mixing all three scenario kinds, with per-workload error
    variables (variables=None) — the tentpole end to end."""

    @pytest.fixture(scope="class")
    def spec(self):
        return SweepSpec(
            workloads=["sod", "cellular", "bubble"],
            formats=["e11m40", "e11m10"],
            policies=[PolicySpec.everywhere(modules=("hydro", "eos", "advection", "diffusion"))],
            workload_configs={
                "sod": SOD_FAST,
                "cellular": CELLULAR_FAST,
                "bubble": BUBBLE_FAST,
            },
        )

    @pytest.fixture(scope="class")
    def result(self, spec):
        return run_sweep(spec)

    def test_all_seven_registered_workloads_validate(self):
        from repro.workloads import available_workloads

        spec = SweepSpec(workloads=available_workloads(), formats=["bf16"])
        spec.validate()  # all seven accepted by the sweep engine

    def test_points_in_grid_order_with_per_workload_errors(self, result):
        assert [p.workload for p in result.points] == [
            "sod", "sod", "cellular", "cellular", "bubble", "bubble",
        ]
        by_workload = {p.workload: p for p in result.points}
        assert set(by_workload["sod"].errors) == {"dens"}
        assert set(by_workload["cellular"].errors) == {"dens", "temp"}
        assert set(by_workload["bubble"].errors) == {"phi"}

    def test_references_cover_all_kinds(self, result):
        kinds = {result.references[name].kind for name in result.references}
        assert kinds == {"compressible", "cellular", "bubble"}

    def test_rollup_and_to_dict(self, result):
        import json

        rollup = result.rollup()
        assert rollup.ops.truncated > 0
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_shard_merge_bitwise_identical(self, spec, result, tmp_path):
        shards = []
        for i in range(3):
            shard_result = run_sweep(spec.shard(i, 3))
            path = shard_result.save(tmp_path / f"shard{i}.pkl")
            shards.append(SweepResult.load(path))
        merged = SweepResult.merge(*shards)
        assert len(merged) == len(result)
        for a, b in zip(result.points, merged.points):
            assert a.metrics_key() == b.metrics_key()

    def test_warm_cache_serves_all_kinds(self, spec, result, tmp_path):
        cache = ReferenceCache(tmp_path / "refs")
        cold = run_sweep(spec, cache=cache)
        assert cold.cache_stats["misses"] == 3 and cold.cache_stats["stores"] == 3
        # disk-only round trip: references come back through .npz alone
        disk_only = ReferenceCache(tmp_path / "refs", max_memory_entries=0)
        warm = run_sweep(spec, cache=disk_only)
        assert warm.cache_stats["hits"] == 3 and warm.cache_stats["misses"] == 0
        for a, b in zip(cold.points, warm.points):
            assert a.metrics_key() == b.metrics_key()


# ---------------------------------------------------------------------------
# the shared binary64 prefix
# ---------------------------------------------------------------------------
def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call is counted; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


PREFIX_CONFIGS = {
    "sod": SOD_FAST,
    "sedov": SOD_FAST,
    "cellular": CELLULAR_FAST,
    "bubble": BUBBLE_FAST,
}


def _prefix_spec(workloads=tuple(PREFIX_CONFIGS), **overrides) -> SweepSpec:
    base = dict(
        workloads=list(workloads),
        formats=["e11m50", "e11m46", "e11m42"],
        policies=[PolicySpec.everywhere(modules=("hydro", "eos", "advection", "diffusion"))],
        workload_configs={name: PREFIX_CONFIGS[name] for name in workloads},
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSharedPrefix:
    """Each workload's ``initial_state()`` is built once per sweep call and
    shipped to its reference and every point."""

    @pytest.fixture
    def counters(self, monkeypatch):
        from repro.amr.grid import AMRGrid
        from repro.workloads import get_workload_class

        return {
            "refine": _count_calls(monkeypatch, AMRGrid, "initialize_with_refinement"),
            "spin_up": _count_calls(monkeypatch, get_workload_class("bubble"), "initial_state"),
            "cellular": _count_calls(monkeypatch, get_workload_class("cellular"), "initial_state"),
        }

    def test_serial_sweep_builds_each_prefix_once(self, counters):
        result = run_sweep(_prefix_spec())
        assert len(result.points) == 12 and not result.failures
        # one refined grid per compressible workload serves its reference
        # and its three points; likewise one spin-up, one cellular column
        assert len(counters["refine"]) == 2
        assert len(counters["spin_up"]) == 1
        assert len(counters["cellular"]) == 1

    def test_runs_mutating_their_state_leave_later_points_unchanged(self, monkeypatch):
        """Points share one prefix object on the serial backend.  Each run
        evolves its own copy; a run that also scribbles in place over its
        grid or solver state must not reach the points after it.  The
        result must equal a sweep in which every run builds its own
        prefix."""
        from repro.experiments import engine
        from repro.incomp.solver import BubbleSolver
        from repro.workloads import get_workload_class

        sod = get_workload_class("sod")
        original = sod.run

        def scribbling_run(self, **kwargs):
            outcome = original(self, **kwargs)
            for block in outcome.grid.leaves.values():
                for values in block.data.values():
                    values[...] = -1.0
            return outcome

        def scribbling_step(self, *args, **kwargs):
            for values in (self.velx, self.vely, self.pres, self.levelset.phi):
                values *= 1.0 + 2.0 ** -20
            return original_step(self, *args, **kwargs)

        original_step = BubbleSolver.step
        monkeypatch.setattr(sod, "run", scribbling_run)
        monkeypatch.setattr(BubbleSolver, "step", scribbling_step)
        shared = run_sweep(_prefix_spec())
        monkeypatch.setattr(engine, "_build_prefix", lambda workload: None)
        private = run_sweep(_prefix_spec())
        assert [p.metrics_key() for p in shared.points] == [
            p.metrics_key() for p in private.points
        ]
        for name, reference in shared.references.items():
            for variable, values in reference.state.items():
                np.testing.assert_array_equal(values, private.references[name].state[variable])

    def test_no_prefix_outlives_a_sweep_call(self, counters):
        spec = _prefix_spec(workloads=["sod"], formats=["e11m42"])
        run_sweep(spec)
        assert len(counters["refine"]) == 1
        run_sweep(spec)
        assert len(counters["refine"]) == 2

    def test_resume_with_every_point_done_builds_no_prefix(self, tmp_path, monkeypatch):
        spec = _prefix_spec(workloads=["sod", "bubble"], formats=["e11m42"])
        first = run_sweep(spec, checkpoint=tmp_path / "journal")
        from repro.amr.grid import AMRGrid
        from repro.workloads import get_workload_class

        refine = _count_calls(monkeypatch, AMRGrid, "initialize_with_refinement")
        spin_up = _count_calls(monkeypatch, get_workload_class("bubble"), "initial_state")
        resumed = run_sweep(spec, checkpoint=tmp_path / "journal")
        assert refine == [] and spin_up == []
        assert [p.metrics_key() for p in resumed.points] == [
            p.metrics_key() for p in first.points
        ]

    def test_process_backend_ships_the_prefix(self, monkeypatch):
        """The parent builds each prefix once and ships it in the tasks.  A
        pool worker that built one would raise (forked workers inherit the
        guard), and the points match the serial sweep bitwise."""
        import os

        from repro.amr.grid import AMRGrid
        from repro.workloads import get_workload_class

        parent = os.getpid()
        builds = []

        def guarded(owner, name):
            original = getattr(owner, name)

            def build(*args, **kwargs):
                if os.getpid() != parent:
                    raise AssertionError(f"a pool worker called {name}")
                builds.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, build)

        spec = _prefix_spec(workloads=["sod", "bubble"], formats=["e11m46", "e11m42"])
        serial = run_sweep(spec)
        guarded(AMRGrid, "initialize_with_refinement")
        guarded(get_workload_class("bubble"), "initial_state")
        process = run_sweep(spec.with_backend("process", max_workers=2))
        assert sorted(builds) == ["initial_state", "initialize_with_refinement"]
        assert [p.metrics_key() for p in serial.points] == [
            p.metrics_key() for p in process.points
        ]
