"""Integration tests for the Cellular and Bubble workloads (scenario API)."""
import warnings

import numpy as np
import pytest

from repro.core import RaptorRuntime
from repro.experiments import PolicySpec, gather_references
from repro.incomp import BubbleConfig
from repro.workloads import (
    BubbleExperimentConfig,
    BubbleWorkload,
    CellularConfig,
    CellularWorkload,
    Outcome,
    STRATEGIES,
    is_scenario,
)


@pytest.fixture(scope="module")
def cellular():
    return CellularWorkload(CellularConfig(n_cells=48, n_steps=15))


class TestCellular:
    def test_implements_scenario_protocol(self):
        assert is_scenario(CellularWorkload)

    def test_reference_run_converges_and_detonates(self, cellular):
        result = cellular.run()
        assert isinstance(result, Outcome)
        assert result.kind == "cellular"
        assert result.info["eos_converged"] == 1.0
        assert result.info["failed_newton_steps"] == 0
        assert result.info["total_newton_calls"] == 15
        assert result.info["final_burned_fraction"] > 0.01
        assert result.info["detonation_propagated"] == 1.0

    def test_front_positions_monotone(self, cellular):
        result = cellular.run()
        fronts = result.state["front_positions"]
        assert np.all(np.diff(fronts) >= -1e-9)

    def test_eos_truncation_narrow_mantissa_breaks_convergence(self, cellular):
        rt = RaptorRuntime()
        policy = cellular.eos_policy(12, runtime=rt)
        result = cellular.run(policy=policy, runtime=rt, n_steps=6)
        assert result.info["eos_converged"] == 0.0
        assert result.info["failed_newton_steps"] > 0
        assert rt.ops.truncated > 0

    def test_eos_truncation_wide_mantissa_still_converges(self, cellular):
        rt = RaptorRuntime()
        policy = cellular.eos_policy(50, runtime=rt)
        result = cellular.run(policy=policy, runtime=rt, n_steps=6)
        assert result.info["eos_converged"] == 1.0

    def test_only_eos_module_is_truncated(self, cellular):
        rt = RaptorRuntime()
        policy = cellular.eos_policy(12, runtime=rt)
        cellular.run(policy=policy, runtime=rt, n_steps=4)
        mods = rt.module_ops()
        assert mods["eos"].truncated > 0
        assert mods["eos"].full == 0
        assert mods.get("burn") is None or mods["burn"].truncated == 0

    def test_error_metric_is_relative_front_deviation(self, cellular):
        ref = cellular.reference()
        assert cellular.error(ref, ref) == 0.0
        rt = RaptorRuntime()
        truncated = cellular.run(policy=cellular.eos_policy(12, runtime=rt), runtime=rt)
        assert cellular.error(truncated, ref) >= 0.0

    def test_acceptable_is_the_physics_invariant(self, cellular):
        ref = cellular.reference()
        assert cellular.acceptable(ref, ref)
        rt = RaptorRuntime()
        broken = cellular.run(policy=cellular.eos_policy(10, runtime=rt), runtime=rt, n_steps=6)
        assert not cellular.acceptable(broken, ref)

    def test_fast_plane_reference_is_warning_free(self):
        """The burn context follows the policy's counting flags, so the
        non-counting fast-plane reference never substitutes a counting
        binary64 context (which warns)."""
        config = dict(n_cells=16, n_steps=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = CellularWorkload(CellularConfig(**config)).reference(plane="auto")
            gathered = gather_references(("cellular",), lambda name: config)
        assert ref.runtime.ops.total == 0
        np.testing.assert_array_equal(gathered["cellular"].state["temp"],
                                      ref.state["temp"])

    def test_counting_reference_counts_the_burn_network(self):
        rt = RaptorRuntime()
        CellularWorkload(CellularConfig(n_cells=16, n_steps=3)).run(runtime=rt)
        assert rt.snapshot()["modules"]["burn"]["full"] > 0


@pytest.fixture(scope="module")
def bubble_workload():
    cfg = BubbleExperimentConfig(
        solver=BubbleConfig(
            nx=20, ny=30, xlim=(-1.0, 1.0), ylim=(-1.0, 2.0),
            reynolds=700.0, advection_scheme="upwind", reinit_interval=4,
        ),
        spin_up_time=0.05,
        truncation_time=0.08,
        snapshot_times=(0.04, 0.08),
        fixed_dt=0.004,
    )
    return BubbleWorkload(cfg)


class TestBubbleStrategies:
    def test_implements_scenario_protocol(self):
        assert is_scenario(BubbleWorkload)

    def test_unknown_strategy_rejected(self, bubble_workload):
        with pytest.raises(ValueError):
            bubble_workload.run_strategy("bogus", 12)

    def test_reference_run_produces_snapshots(self, bubble_workload):
        ref = bubble_workload.run_strategy("none", 52)
        assert isinstance(ref, Outcome)
        assert ref.kind == "bubble"
        assert len(ref.state["snapshot_times"]) >= 2
        assert ref.info["fragments"] >= 1
        assert ref.info["gas_volume"] > 0
        for i in range(len(ref.state["snapshot_times"])):
            assert np.all(np.isfinite(ref.state[f"phi_snap{i}"]))
        # "phi" is the final snapshot
        last = len(ref.state["snapshot_times"]) - 1
        np.testing.assert_array_equal(ref.state["phi"], ref.state[f"phi_snap{last}"])

    def test_spun_up_state_reused_between_runs(self, bubble_workload):
        """Runs restored from one shared spin-up match a run that spins up
        itself, and leave the shared state untouched."""
        prefix = bubble_workload.initial_state()
        phi = prefix["phi"].copy()
        a = bubble_workload.run_strategy("none", 52, prefix=prefix)
        b = bubble_workload.run_strategy("everywhere", 4, prefix=prefix)
        c = bubble_workload.run_strategy("none", 52)
        assert np.array_equal(a.state["phi"], c.state["phi"])
        assert not np.array_equal(a.state["phi"], b.state["phi"])
        np.testing.assert_array_equal(prefix["phi"], phi)

    def test_runs_from_one_prefix_share_one_factorisation(self, bubble_workload, monkeypatch):
        """The prefix carries the spin-up's Poisson factorisation: runs
        from it factorise nothing, and a pickled prefix (as shipped to a
        worker) factorises once, lazily, and runs to the same bits."""
        import pickle

        import scipy.sparse.linalg as spla

        real, calls = spla.splu, []
        monkeypatch.setattr(spla, "splu", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        prefix = bubble_workload.initial_state()
        assert len(calls) == 1
        runs = [bubble_workload.run_strategy(strategy, bits, prefix=prefix)
                for strategy, bits in (("none", 52), ("everywhere", 10), ("cutoff-1", 10))]
        assert len(calls) == 1
        shipped = pickle.loads(pickle.dumps(prefix))
        again = bubble_workload.run_strategy("everywhere", 10, prefix=shipped)
        bubble_workload.run_strategy("none", 52, prefix=shipped)
        assert len(calls) == 2
        for key, values in runs[1].state.items():
            assert np.array_equal(np.asarray(again.state[key]), np.asarray(values)), key

    def test_truncation_everywhere_perturbs_interface(self, bubble_workload):
        ref = bubble_workload.run_strategy("none", 52)
        low = bubble_workload.run_strategy("everywhere", 4)
        assert low.runtime.ops.truncated > 0
        assert bubble_workload.error(low, ref) > 0.0

    def test_moderate_precision_closer_than_low_precision(self, bubble_workload):
        ref = bubble_workload.run_strategy("none", 52)
        low = bubble_workload.run_strategy("everywhere", 4)
        mid = bubble_workload.run_strategy("everywhere", 12)
        assert bubble_workload.error(mid, ref) <= bubble_workload.error(low, ref)

    def test_cutoff_strategy_closer_than_everywhere(self, bubble_workload):
        ref = bubble_workload.run_strategy("none", 52)
        everywhere = bubble_workload.run_strategy("everywhere", 4)
        cutoff = bubble_workload.run_strategy("cutoff-2", 4)
        assert bubble_workload.error(cutoff, ref) <= bubble_workload.error(everywhere, ref) + 1e-12

    def test_strategies_tuple_contents(self):
        assert STRATEGIES == ("none", "everywhere", "cutoff-1", "cutoff-2")


class TestBubblePolicyProtocol:
    """run(policy=...) maps truncation policies onto the Figure 1 strategies."""

    def test_none_policy_is_the_reference(self, bubble_workload):
        via_policy = bubble_workload.run()
        via_strategy = bubble_workload.run_strategy("none", 52)
        assert np.array_equal(via_policy.state["phi"], via_strategy.state["phi"])
        assert via_policy.metadata["strategy"] == "none"

    def test_global_policy_truncates_everywhere(self, bubble_workload):
        from repro.core.fpformat import FPFormat

        rt = RaptorRuntime()
        policy = PolicySpec.everywhere(modules=("advection", "diffusion")).build(
            FPFormat(8, 4), rt
        )
        via_policy = bubble_workload.run(policy=policy, runtime=rt)
        via_strategy = bubble_workload.run_strategy("everywhere", 4)
        assert via_policy.metadata["strategy"] == "everywhere"
        assert np.array_equal(via_policy.state["phi"], via_strategy.state["phi"])

    def test_amr_cutoff_policy_maps_to_interface_cutoff(self, bubble_workload):
        from repro.core.fpformat import FPFormat

        rt = RaptorRuntime()
        policy = PolicySpec.amr_cutoff(2, modules=("advection", "diffusion")).build(
            FPFormat(8, 4), rt
        )
        via_policy = bubble_workload.run(policy=policy, runtime=rt)
        via_strategy = bubble_workload.run_strategy("cutoff-2", 4)
        assert via_policy.metadata["strategy"] == "cutoff-2"
        assert np.array_equal(via_policy.state["phi"], via_strategy.state["phi"])

    def test_module_policy_not_covering_operators_runs_full_precision(self, bubble_workload):
        from repro.core.fpformat import FPFormat

        rt = RaptorRuntime()
        policy = PolicySpec.module("hydro").build(FPFormat(8, 4), rt)
        out = bubble_workload.run(policy=policy, runtime=rt)
        assert out.metadata["strategy"] == "none"
        ref = bubble_workload.run()
        assert np.array_equal(out.state["phi"], ref.state["phi"])

    def test_single_operator_policy_labelled_distinctly(self, bubble_workload):
        from repro.core.fpformat import FPFormat

        rt = RaptorRuntime()
        policy = PolicySpec.module("advection").build(FPFormat(8, 4), rt)
        out = bubble_workload.run(policy=policy, runtime=rt)
        # only one operator family truncated: not a Figure 1 strategy, so
        # the label records the actual coverage instead of "everywhere"
        assert out.metadata["strategy"] == "everywhere[advection]"
        mods = rt.module_ops()
        assert mods["advection"].truncated > 0
        assert mods.get("diffusion") is None or mods["diffusion"].truncated == 0
