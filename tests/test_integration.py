"""Cross-module integration tests.

These exercise the paths the benchmarks rely on end to end: policy ->
solver -> runtime counters -> sfocu errors -> co-design model, plus the
rank-independence statement of Section 3.6 on a truncated run.
"""
import numpy as np
import pytest

from repro.codesign import estimate_speedup
from repro.core import (
    FP16,
    AMRCutoffPolicy,
    GlobalPolicy,
    RaptorRuntime,
    TruncationConfig,
    profile_report,
)
from repro.io import Checkpoint, compare
from repro.workloads import SedovConfig, SedovWorkload, SodConfig, SodWorkload


@pytest.fixture(scope="module")
def sedov_pair():
    """A (reference, truncated) pair of small Sedov runs shared by tests."""
    workload = SedovWorkload(
        SedovConfig(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.015, rk_stages=1)
    )
    reference = workload.reference()
    runtime = RaptorRuntime("integration")
    policy = GlobalPolicy(TruncationConfig.mantissa(10, exp_bits=8), runtime=runtime)
    truncated = workload.run(policy=policy, runtime=runtime)
    return workload, reference, truncated


class TestEndToEndPipeline:
    def test_errors_counters_and_report(self, sedov_pair):
        _, reference, truncated = sedov_pair
        errors = truncated.errors(reference, ("dens", "velx", "pres"))
        assert all(v >= 0 for v in errors.values())
        assert errors["dens"] > 0
        assert truncated.truncated_fraction > 0.5
        text = profile_report(truncated.runtime)
        assert "hydro" in text

    def test_codesign_model_consumes_profiled_counters(self, sedov_pair):
        _, _, truncated = sedov_pair
        estimate = estimate_speedup(truncated.runtime, FP16)
        assert estimate.compute_bound > 1.0
        assert estimate.memory_bound > 1.0
        assert estimate.bound in ("compute", "memory")

    def test_checkpoint_roundtrip_preserves_sfocu_errors(self, sedov_pair, tmp_path):
        _, reference, truncated = sedov_pair
        p1 = truncated.checkpoint.save(tmp_path / "trunc.npz")
        p2 = reference.checkpoint.save(tmp_path / "ref.npz")
        report = compare(Checkpoint.load(p1), Checkpoint.load(p2), ["dens"])
        assert report.l1("dens") == pytest.approx(truncated.l1_error(reference, "dens"))

    def test_amr_cutoff_policy_on_sod_reduces_truncated_ops(self):
        workload = SodWorkload(
            SodConfig(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.02, rk_stages=1)
        )
        fractions = {}
        for cutoff in (0, 1):
            rt = RaptorRuntime()
            policy = AMRCutoffPolicy(
                TruncationConfig.mantissa(10, exp_bits=8), cutoff=cutoff, modules=["hydro"], runtime=rt
            )
            workload.run(policy=policy, runtime=rt)
            fractions[cutoff] = rt.ops.truncated_fraction
        assert fractions[1] < fractions[0]


class TestRankIndependence:
    def test_decomposition_of_truncated_run_preserves_integrals(self, sedov_pair):
        """Section 3.6: RAPTOR's op-mode and MPI do not interfere — splitting
        a truncated run's leaf blocks over any number of ranks and summing
        the per-rank partial integrals reproduces the global integral."""
        _, _, truncated = sedov_pair
        grid = truncated.grid
        reference_mass = grid.total_integral("dens")
        for n_ranks in (1, 3, 8):
            ranks = np.array_split(np.arange(grid.n_leaves), n_ranks)
            keys = grid.sorted_keys()
            partial = [sum(grid.leaves[keys[i]].integral("dens") for i in rank) for rank in ranks]
            assert len(partial) == n_ranks
            assert sum(partial) == pytest.approx(reference_mass, rel=1e-12)

    def test_level_map_and_checkpoint_shapes_consistent(self, sedov_pair):
        _, reference, truncated = sedov_pair
        assert truncated.checkpoint["dens"].shape == reference.checkpoint["dens"].shape
        lm = truncated.grid.level_map(truncated.grid.finest_level)
        assert set(np.unique(lm)).issubset({1, 2})
