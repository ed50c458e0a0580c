"""Tests for the precision-sweep engine and its execution backends."""
import numpy as np
import pytest

from repro.core import BF16, FP32, FP64, FPFormat
from repro.experiments import (
    AdaptiveSpec,
    PolicySpec,
    SweepSpec,
    format_label,
    resolve_format,
    run_sweep,
)
from repro.parallel.executor import run_tasks
from repro.workloads import UnknownWorkloadError

#: tiny but non-degenerate grid: 2 AMR levels, a handful of steps
FAST = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.005, rk_stages=1)


def _spec(**overrides) -> SweepSpec:
    base = dict(
        workloads=["kelvin-helmholtz"],
        formats=["fp64", "bf16"],
        policies=[PolicySpec.everywhere(modules=("hydro",))],
        workload_configs={"kelvin-helmholtz": FAST},
        variables=("dens", "velx"),
    )
    base.update(overrides)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# spec validation and grid enumeration
# ---------------------------------------------------------------------------
class TestSpec:
    def test_resolve_format_names_and_specs(self):
        assert resolve_format("fp32") is FP32
        assert resolve_format(BF16) is BF16
        assert resolve_format("e11m18") == FPFormat(11, 18)
        with pytest.raises(ValueError):
            resolve_format("fp128")
        with pytest.raises(TypeError):
            resolve_format(42)

    def test_points_enumerate_workload_policy_format(self):
        spec = _spec(
            workloads=["kelvin-helmholtz", "sedov"],
            policies=[PolicySpec.everywhere(), PolicySpec.amr_cutoff(1)],
            formats=["fp64", "fp32", "bf16"],
        )
        points = spec.points()
        assert len(points) == 2 * 2 * 3
        assert [p.index for p in points] == list(range(12))
        assert points[0].workload == "kelvin-helmholtz" and points[0].format_name == "fp64"
        assert points[3].policy.describe() == "M-1"
        assert points[6].workload == "sedov"

    def test_unknown_workload_fails_validation_with_listing(self):
        spec = _spec(workloads=["no-such-thing"], workload_configs={})
        with pytest.raises(UnknownWorkloadError) as excinfo:
            spec.validate()
        assert "sedov" in str(excinfo.value)

    def test_config_for_unlisted_workload_rejected(self):
        # 'sedov' is not in the spec's workloads list
        spec = _spec(workload_configs={"sedov": {"max_level": 2}})
        with pytest.raises(ValueError, match="not in workloads"):
            spec.validate()

    @pytest.mark.parametrize("spec_cls", [SweepSpec, AdaptiveSpec])
    @pytest.mark.parametrize(
        "settings, match",
        [
            (dict(backend="gpu"), "unknown backend"),
            (dict(backend="process", max_workers=0), "max_workers"),
        ],
    )
    def test_execution_settings_fail_validation(self, spec_cls, settings, match):
        # rejected by validate(), before any prefix or reference is built
        with pytest.raises(ValueError, match=match):
            spec_cls(workloads=["sod"], **settings).validate()

    def test_policy_spec_validation(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="bogus")
        with pytest.raises(ValueError):
            PolicySpec(kind="module")  # needs modules
        with pytest.raises(ValueError):
            PolicySpec.amr_cutoff(-1)

    def test_policy_descriptions(self):
        assert PolicySpec.everywhere().describe() == "global"
        assert PolicySpec.everywhere(("hydro",)).describe() == "global[hydro]"
        assert PolicySpec.amr_cutoff(2, ("hydro",)).describe() == "M-2[hydro]"
        assert PolicySpec.module("eos").describe() == "module[eos]"


# ---------------------------------------------------------------------------
# executor backends
# ---------------------------------------------------------------------------
def _square(x):
    return x * x


def _maybe_fail(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestBackends:
    def test_serial_preserves_order(self):
        assert run_tasks(_square, [3, 1, 2]) == [9, 1, 4]

    def test_process_pool_preserves_order(self):
        result = run_tasks(_square, list(range(10)), backend="process", max_workers=4)
        assert result == [x * x for x in range(10)]

    def test_process_pool_single_task_runs_serially(self):
        assert run_tasks(_square, [7], backend="process", max_workers=4) == [49]

    def test_task_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom"):
            run_tasks(_maybe_fail, [1, 2, 3], backend="process", max_workers=2)

    def test_unknown_backend_and_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_tasks(_square, [1, 2], backend="gpu")
        with pytest.raises(ValueError, match="max_workers"):
            run_tasks(_square, [1, 2], backend="process", max_workers=0)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
class TestRunSweep:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_sweep(_spec())

    def test_points_in_grid_order_with_metrics(self, serial_result):
        assert len(serial_result) == 2
        fp64_point, bf16_point = serial_result.points
        assert fp64_point.format_name == "fp64" and bf16_point.format_name == "bf16"
        # the FP64 point is bit-identical to the reference
        assert fp64_point.l1("dens") == 0.0
        assert fp64_point.truncated_fraction == 0.0
        # the BF16 point truncates and deviates
        assert bf16_point.l1("dens") > 0.0
        assert bf16_point.ops["truncated"] > 0
        for variable in ("dens", "velx"):
            assert set(bf16_point.errors[variable]) == {"l1", "l2", "linf"}

    def test_reference_recorded_per_workload(self, serial_result):
        ref = serial_result.references["kelvin-helmholtz"]
        assert ref.info["steps"] > 0
        assert "dens" in ref.state and np.isfinite(ref.state["dens"]).all()

    def test_select_and_table(self, serial_result):
        assert len(serial_result.select(fmt="bf16")) == 1
        assert len(serial_result.select(workload="kelvin-helmholtz")) == 2
        assert serial_result.select(policy="nope") == []
        table = serial_result.table()
        assert "bf16" in table and "kelvin-helmholtz" in table

    def test_rollup_merges_point_counters(self, serial_result):
        rollup = serial_result.rollup()
        assert rollup.ops.truncated == sum(p.ops["truncated"] for p in serial_result.points)
        assert rollup.ops.full == sum(p.ops["full"] for p in serial_result.points)
        assert rollup.mem.total == sum(
            p.mem["truncated"] + p.mem["full"] for p in serial_result.points
        )

    def test_to_dict_is_json_ready(self, serial_result):
        import json

        payload = serial_result.to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_serial_and_process_backends_identical(self, serial_result):
        process_result = run_sweep(_spec().with_backend("process", max_workers=2))
        assert len(process_result) == len(serial_result)
        for serial_point, process_point in zip(serial_result.points, process_result.points):
            assert serial_point.metrics_key() == process_point.metrics_key()
            # error metrics must match bitwise, not approximately
            assert serial_point.errors == process_point.errors

    def test_keep_states(self):
        result = run_sweep(_spec(formats=["bf16"], keep_states=True))
        state = result.points[0].state
        assert state is not None and "dens" in state

    def test_multi_workload_sweep(self):
        spec = _spec(
            workloads=["kelvin-helmholtz", "double-blast"],
            formats=["bf16"],
            workload_configs={
                "kelvin-helmholtz": FAST,
                "double-blast": dict(FAST, t_end=0.0005),
            },
        )
        result = run_sweep(spec)
        assert [p.workload for p in result.points] == ["kelvin-helmholtz", "double-blast"]
        assert set(result.references) == {"kelvin-helmholtz", "double-blast"}


class TestReviewRegressions:
    """Fixes from review: fail-fast validation, fallback classification,
    alias-aware dedup, and config gravity override."""

    def test_non_sweepable_workload_fails_validation(self):
        from repro.workloads import register_workload, unregister_workload

        class LookupOnly:
            """Registered for name lookup, no scenario surface."""

            name = "lookup-only"

        register_workload(LookupOnly)
        try:
            spec = _spec(workloads=["lookup-only"], workload_configs={})
            with pytest.raises(ValueError, match="scenario \\(sweep\\) protocol"):
                spec.validate()
        finally:
            unregister_workload("lookup-only")

    def test_every_registered_workload_is_sweepable(self):
        from repro.workloads import available_workloads, get_workload_class, is_scenario

        for name in available_workloads():
            assert is_scenario(get_workload_class(name)), name

    def test_alias_duplicates_are_rejected(self):
        spec = _spec(workloads=["kh", "kelvin-helmholtz"])
        with pytest.raises(ValueError, match="duplicate workload"):
            spec.validate()

    def test_task_oserror_propagates_without_serial_rerun(self, recwarn):
        import warnings as _warnings

        with pytest.raises(FileNotFoundError):
            with _warnings.catch_warnings():
                _warnings.simplefilter("error", RuntimeWarning)  # fallback would raise here
                run_tasks(_raise_oserror, [0, 1, 2], backend="process", max_workers=2)

    def test_explicit_gravity_overrides_magnitude(self):
        from repro.workloads import RayleighTaylorConfig

        cfg = RayleighTaylorConfig(gravity=(0.0, -0.5))
        assert cfg.gravity == (0.0, -0.5)
        assert cfg.gravity_magnitude == pytest.approx(0.5)
        default = RayleighTaylorConfig()
        assert default.gravity == (0.0, -default.gravity_magnitude)


def _raise_oserror(x):
    if x == 1:
        raise FileNotFoundError("missing data file")
    return x


class TestReviewRegressionsRound2:
    def test_typoed_config_field_fails_validation(self):
        spec = _spec(
            workloads=["sedov"],
            workload_configs={"sedov": {"max_lvl": 2}},
        )
        with pytest.raises(ValueError, match="invalid workload_configs for 'sedov'"):
            spec.validate()

    def test_explicit_zero_gravity_is_honoured(self):
        from repro.workloads import RayleighTaylorConfig

        cfg = RayleighTaylorConfig(gravity=(0.0, 0.0))
        assert cfg.gravity == (0.0, 0.0)
        assert cfg.gravity_magnitude == 0.0


class TestReviewRegressionsRound3:
    def test_sideways_gravity_rejected(self):
        from repro.workloads import RayleighTaylorConfig

        with pytest.raises(ValueError, match="straight down"):
            RayleighTaylorConfig(gravity=(0.1, 0.0))
        with pytest.raises(ValueError, match="straight down"):
            RayleighTaylorConfig(gravity=(0.0, 0.1))

    def test_transient_worker_death_retries_in_fresh_pool(self, tmp_path):
        # task 2 kills its worker the first time it runs; the retry pool
        # completes the remaining tasks without rerunning anything in the
        # parent process (max_workers=1 would short-circuit to serial)
        marker = str(tmp_path / "already-died")
        tasks = [(x, marker) for x in range(4)]
        with pytest.warns(RuntimeWarning, match="fresh pool"):
            result = run_tasks(_die_once_on_2, tasks, backend="process", max_workers=2)
        assert result == [0, 1, 2, 3]

    def test_deterministic_worker_killer_raises_instead_of_crashing_parent(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.warns(RuntimeWarning, match="fresh pool"):
            with pytest.raises(BrokenProcessPool):
                run_tasks(_always_die_on_2, list(range(4)), backend="process", max_workers=2)


def _die_once_on_2(task):
    import os

    value, marker = task
    if value == 2 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)  # abrupt worker death -> BrokenProcessPool
    return value


def _always_die_on_2(value):
    import os

    if value == 2:
        os._exit(1)
    return value


class TestVariableValidation:
    def test_typoed_variable_fails_validation(self):
        spec = _spec(variables=("density",))
        with pytest.raises(ValueError, match="unknown error variable"):
            spec.validate()

    def test_empty_variables_rejected(self):
        spec = _spec(variables=())
        with pytest.raises(ValueError, match="at least one error variable"):
            spec.validate()

    def test_variable_missing_on_one_workload_names_it(self):
        # "phi" exists on bubble but not on the compressible workloads
        spec = _spec(variables=("phi",))
        with pytest.raises(ValueError, match="variables=None"):
            spec.validate()

    def test_variables_none_uses_per_workload_defaults(self):
        spec = _spec(variables=None)
        spec.validate()
        assert spec.variables_for("kelvin-helmholtz") == ("dens",)
        assert spec.variables_for("bubble") == ("phi",)
        assert spec.variables_for("cellular") == ("dens", "temp")


class TestAliasAwareConfigs:
    def test_config_keyed_by_canonical_applies_to_alias_sweep(self):
        spec = _spec(workloads=["kh"], workload_configs={"kelvin-helmholtz": FAST})
        spec.validate()
        assert spec.config_kwargs("kh") == FAST

    def test_config_keyed_by_alias_applies_to_canonical_sweep(self):
        spec = _spec(workloads=["kelvin-helmholtz"], workload_configs={"kh": FAST})
        spec.validate()
        assert spec.config_kwargs("kelvin-helmholtz") == FAST

    def test_conflicting_alias_and_canonical_config_keys_rejected(self):
        spec = _spec(
            workloads=["kh"],
            workload_configs={"kh": FAST, "kelvin-helmholtz": dict(FAST, t_end=0.01)},
        )
        with pytest.raises(ValueError, match="both refer to workload"):
            spec.validate()
