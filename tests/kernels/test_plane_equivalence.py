"""End-to-end kernel-plane equivalence.

The acceptance contract of the ``"auto"`` plane: it is **bit-identical**
to the instrumented plane — golden-config runs match bitwise, and all
seven registered workloads produce identical ``Outcome`` states through
``run_sweep`` on either plane, on both the serial and the process backend.

``plane="auto"`` runs the compressible workloads through the full fused
pipeline (Riemann/EOS fusion + scratch workspaces + batched block
stepping), so every sweep below also covers the scratch/batched path;
``test_scratch_and_batching_are_active`` pins that the defaults were
indeed in effect.
"""
import numpy as np
import pytest

from repro.experiments import PolicySpec, SweepSpec, run_sweep
from repro.workloads import available_workloads, create_workload

#: deliberately tiny configurations — every registered workload, both kinds
#: of compressible instability, a handful of steps each
TINY_COMPRESSIBLE = dict(
    nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.004, rk_stages=1
)
TINY_CONFIGS = {
    "sod": TINY_COMPRESSIBLE,
    "sedov": TINY_COMPRESSIBLE,
    "kelvin-helmholtz": TINY_COMPRESSIBLE,
    "rayleigh-taylor": TINY_COMPRESSIBLE,
    "double-blast": TINY_COMPRESSIBLE,
    "cellular": dict(n_cells=16, n_steps=4),
    "bubble": dict(spin_up_time=0.04, truncation_time=0.04, snapshot_times=(0.04,)),
}

ALL_WORKLOADS = tuple(TINY_CONFIGS)


def _assert_states_equal(a, b, label):
    assert set(a) == set(b), label
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=f"{label}: {key}")


class TestGoldenConfigsBothPlanes:
    """The golden Sod/Sedov configurations, instrumented vs auto."""

    @pytest.mark.parametrize("workload", ["sod", "sedov"])
    def test_reference_bitwise_identical(self, workload):
        cfg = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
                   t_end=0.04 if workload == "sod" else 0.02, rk_stages=1)
        instrumented = create_workload(workload, **cfg).reference(plane="instrumented")
        fused = create_workload(workload, **cfg).reference(plane="auto")
        assert fused.time == instrumented.time
        _assert_states_equal(instrumented.state, fused.state, workload)
        # the trade: a non-counting reference records no counters
        assert instrumented.runtime.ops.full > 0
        assert fused.runtime.ops.total == 0


class TestAllWorkloadsThroughRunSweep:
    """All seven registry workloads: identical outcome states through
    run_sweep on either plane, serial and process backends."""

    def test_registry_is_fully_covered(self):
        assert set(available_workloads()) == set(ALL_WORKLOADS)

    def test_scratch_and_batching_are_active(self):
        """The ``"auto"`` sweeps in this module must exercise the fused
        flux pipeline with scratch buffers and batched block stepping —
        every solver owns a workspace and stacks its fused blocks."""
        from repro.hydro.solver import HydroSolver

        solver = HydroSolver()
        assert solver._workspace is not None

    @pytest.fixture(scope="class")
    def results(self):
        def spec(plane, backend):
            return SweepSpec(
                workloads=ALL_WORKLOADS,
                formats=("fp64", "bf16"),
                policies=(PolicySpec(kind="global"),),
                workload_configs=TINY_CONFIGS,
                plane=plane,
                backend=backend,
                max_workers=2,
                keep_states=True,
            )

        return {
            (plane, backend): run_sweep(spec(plane, backend))
            for plane in ("instrumented", "auto")
            for backend in ("serial", "process")
        }

    def test_point_states_identical_across_planes_and_backends(self, results):
        baseline = results[("instrumented", "serial")]
        for key, other in results.items():
            if key == ("instrumented", "serial"):
                continue
            for ours, theirs in zip(baseline.points, other.points):
                assert ours.index == theirs.index
                _assert_states_equal(
                    ours.state, theirs.state, f"{key}: {theirs.workload}@{theirs.format_name}"
                )

    def test_reference_states_identical_across_planes(self, results):
        baseline = results[("instrumented", "serial")].references
        for key, other in results.items():
            for name, reference in other.references.items():
                _assert_states_equal(baseline[name].state, reference.state, f"{key}: {name}")

    def test_errors_identical_across_planes(self, results):
        baseline = results[("instrumented", "serial")]
        for key, other in results.items():
            for ours, theirs in zip(baseline.points, other.points):
                assert ours.errors == theirs.errors, key
                assert ours.scalar_error == theirs.scalar_error, key

    def test_auto_plane_counters_match_instrumented(self, results):
        """plane="auto" (the default) must keep the per-point counters
        byte-identical to the instrumented plane — full-precision counters
        included: the cellular EOS sweep (the CI's own) charges every
        ``burn`` op at full precision."""
        auto = run_sweep(
            SweepSpec(
                workloads=("sod",),
                formats=("bf16",),
                policies=(PolicySpec(kind="global"),),
                workload_configs={"sod": TINY_CONFIGS["sod"]},
                plane="auto",
            )
        )
        instrumented = results[("instrumented", "serial")]
        ours = next(
            p for p in instrumented.points
            if p.workload == "sod" and p.format_name == "bf16"
        )
        theirs = auto.points[0]
        assert ours.ops == theirs.ops
        assert ours.mem == theirs.mem
        assert ours.module_ops == theirs.module_ops

        ours, theirs = (
            run_sweep(SweepSpec(
                workloads=("cellular",),
                formats=("e11m20",),
                policies=(PolicySpec(kind="module", modules=("eos",)),),
                workload_configs={"cellular": dict(n_cells=32, n_steps=8)},
                plane=plane,
            )).points[0]
            for plane in ("instrumented", "auto")
        )
        assert ours.ops == theirs.ops
        assert ours.mem == theirs.mem
        assert ours.module_ops == theirs.module_ops
        assert ours.truncated_fraction == theirs.truncated_fraction
        assert theirs.ops["full"] > 0
        assert "burn" in theirs.module_ops

    def test_timings_recorded(self, results):
        for result in results.values():
            assert result.elapsed_seconds > 0
            assert all(p.seconds > 0 for p in result.points)
            assert result.total_point_seconds == pytest.approx(
                sum(p.seconds for p in result.points)
            )

    def test_plane_disagreement_refuses_merge(self, results):
        from repro.experiments import SweepResult

        with pytest.raises(ValueError, match="cannot merge"):
            SweepResult.merge(
                results[("instrumented", "serial")], results[("auto", "serial")]
            )
