"""Adaptive cliff search on the instability workloads, vs exhaustive grids.

PR 3 verified the bisection end-to-end against a real exhaustive grid only
for the cellular detonation.  These tests pin the same property — the
bisection finds exactly the cliff an exhaustive mantissa scan finds, within
the ``ceil(log2 n) + 1`` run bound — for the Kelvin–Helmholtz,
Rayleigh–Taylor and Woodward–Colella double-blast workloads, driven through
:func:`run_adaptive_sweep` (the grid driver, not just ``find_cliff``).

The configurations are deliberately tiny (two AMR levels, a handful of
steps); the thresholds were chosen so the cliff sits strictly inside the
scanned range for each workload (the exhaustive fixture re-derives and
re-asserts that at test time, so a numerics change cannot silently turn
the comparison vacuous).
"""
import pytest

from repro.core import RaptorRuntime
from repro.core.fpformat import FPFormat
from repro.experiments import AdaptiveSpec, PolicySpec, run_adaptive_sweep
from repro.experiments.adaptive import max_bisection_runs
from repro.workloads import create_workload

MIN_BITS, MAX_BITS = 8, 18

TINY = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.004, rk_stages=1)

#: per-workload failure thresholds on the sfocu L1(dens) error, placing the
#: cliff strictly inside [MIN_BITS, MAX_BITS] for the TINY configurations
THRESHOLDS = {
    "kelvin-helmholtz": 1e-5,
    "rayleigh-taylor": 1e-5,
    "double-blast": 1e-4,
}

WORKLOADS = tuple(THRESHOLDS)


@pytest.fixture(scope="module", params=WORKLOADS)
def exhaustive(request):
    """(workload name, exhaustive pass/fail profile over the bit range)."""
    name = request.param
    workload = create_workload(name, **TINY)
    reference = workload.reference(plane="auto").detach()
    policy = PolicySpec(kind="global", modules=("hydro",))
    profile = {}
    for man_bits in range(MIN_BITS, MAX_BITS + 1):
        rt = RaptorRuntime()
        outcome = workload.run(policy=policy.build(FPFormat(11, man_bits), rt), runtime=rt)
        profile[man_bits] = workload.acceptable(
            outcome, reference, threshold=THRESHOLDS[name]
        )
    return name, profile


@pytest.fixture(scope="module")
def adaptive_result():
    spec = AdaptiveSpec(
        workloads=WORKLOADS,
        policies=[PolicySpec(kind="global", modules=("hydro",))],
        min_man_bits=MIN_BITS,
        max_man_bits=MAX_BITS,
        thresholds=THRESHOLDS,
        workload_configs={name: TINY for name in WORKLOADS},
    )
    return run_adaptive_sweep(spec)


class TestInstabilityCliffs:
    def test_profile_is_monotone_with_an_interior_cliff(self, exhaustive):
        name, profile = exhaustive
        outcomes = [profile[m] for m in sorted(profile)]
        assert not outcomes[0], f"{name}: cliff below MIN_BITS, comparison vacuous"
        assert outcomes[-1], f"{name}: cliff above MAX_BITS, comparison vacuous"
        first_pass = outcomes.index(True)
        assert all(outcomes[first_pass:]) and not any(outcomes[:first_pass]), (
            f"{name}: pass/fail profile is not monotone: {profile}"
        )

    def test_bisection_matches_the_exhaustive_cliff(self, exhaustive, adaptive_result):
        name, profile = exhaustive
        expected = next(m for m in sorted(profile) if profile[m])
        cliff = next(c for c in adaptive_result.cliffs if c.workload == name)
        assert cliff.found
        assert cliff.cliff_man_bits == expected
        assert cliff.n_runs <= max_bisection_runs(MIN_BITS, MAX_BITS)
        assert cliff.last_failing_bits == expected - 1

    def test_driver_covers_every_workload_in_grid_order(self, adaptive_result):
        assert [c.workload for c in adaptive_result.cliffs] == list(WORKLOADS)
        assert adaptive_result.total_runs == sum(c.n_runs for c in adaptive_result.cliffs)
        # every cell beat its fixed grid
        for cliff in adaptive_result.cliffs:
            assert cliff.n_runs < cliff.grid_points
