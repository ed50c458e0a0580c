"""Differential bit-identity harness for the grid side
(repro.kernels.grid + the AMRGrid/HydroSolver dispatch) against the
per-block oracle of ``tests/grid_oracle.py``.

The load-bearing contracts:

* a :class:`TopologyPlan` fill over the block store is **bitwise
  identical** to the per-block reference fill across every neighbour kind
  (boundary/same/coarse/fine), every boundary condition
  (outflow/periodic/reflect/mixed) and the reflect-variable sign flips
  (the property test over random topologies lives in
  ``tests/amr/test_store.py``);
* the stacked ``compute_dt`` equals the per-block loop bit-for-bit, and
  both ride the fused ``kernels.flux`` EOS sound-speed helper (single
  source of truth for the floor/sound-speed math);
* stacked refinement estimators are element-wise identical to per-block
  evaluation and never change a regrid decision;
* ``pad_edge`` matches ``np.pad(mode="edge")`` bitwise;
* workspace discipline mirrors the fused-flux suite: steady-state zero
  allocation, poisoned buffers never leak into results, inputs are never
  written;
* every compressible workload produces bit-identical states with the
  grid side swapped for the oracle, with instrumented counters
  byte-identical either way.
"""
import copy
import pickle

import grid_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import AMRGrid
from repro.amr.refinement import (
    block_error,
    gradient_error,
    lohner_error,
    stacked_block_errors,
)
from repro.hydro.eos import GammaLawEOS
from repro.hydro.solver import HydroSolver
from repro.kernels import grid as grid_kernels
from repro.kernels.grid import pad_edge
from repro.kernels.scratch import Workspace
from repro.workloads import create_workload

VARS = ["dens", "velx", "vely", "pres"]
SIDES = ("-x", "+x", "-y", "+y")

BOUNDARIES = [
    "outflow",
    "periodic",
    "reflect",
    {"x": "periodic", "y": "reflect"},
]
BOUNDARY_IDS = ["outflow", "periodic", "reflect", "mixed"]

COMPRESSIBLE = ("sod", "sedov", "kelvin-helmholtz", "rayleigh-taylor", "double-blast")

TINY_COMPRESSIBLE = dict(
    nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.004, rk_stages=1
)

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


# ---------------------------------------------------------------------------
# grid construction helpers
# ---------------------------------------------------------------------------
def make_grid(boundary="outflow", max_level=3, n_root=2, nxb=8, nyb=8):
    return AMRGrid(
        VARS, nxb=nxb, nyb=nyb, n_root_x=n_root, n_root_y=n_root,
        max_level=max_level, boundary=boundary,
    )


def refine_nested(grid, key):
    """Refine ``key``, first refining any coarser neighbour so proper
    nesting (adjacent leaves differ by at most one level) is preserved."""
    if key not in grid.leaves or key[0] >= grid.max_level:
        return
    for side in SIDES:
        kind, info = grid.neighbor(key, side)
        if kind == "coarse":
            refine_nested(grid, info)
    if key in grid.leaves:
        grid.refine_block(key)


def random_topology(grid, seed, n_refines):
    rng = np.random.default_rng(seed)
    for _ in range(n_refines):
        keys = grid.sorted_keys()
        refine_nested(grid, keys[int(rng.integers(len(keys)))])


def fill_random(grid, seed):
    """Deterministic random interiors; dens/pres kept physical (positive)."""
    rng = np.random.default_rng(seed)
    for key in grid.sorted_keys():
        block = grid.leaves[key]
        for name in grid.variables:
            vals = rng.uniform(-2.0, 2.0, (grid.nxb, grid.nyb))
            if name in ("dens", "pres"):
                vals = np.abs(vals) + 0.1
            block.set_interior(name, vals)


def snapshot(grid):
    return {
        key: {name: grid.leaves[key].data[name].copy() for name in grid.variables}
        for key in grid.leaves
    }


def assert_snapshots_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        for name in a[key]:
            np.testing.assert_array_equal(
                a[key][name], b[key][name], err_msg=f"{key}/{name}"
            )


def store_vs_oracle_fill(grid, variables=None):
    """Fill via the topology plan, then via the per-block oracle, from the
    same state.

    Guard filling reads interiors only, so running the oracle fill second
    re-derives every guard cell from the same inputs — the two snapshots
    must agree bitwise.
    """
    grid.fill_guard_cells(variables)
    store_snap = snapshot(grid)
    grid_oracle.fill_guard_cells(grid, variables)
    return store_snap, snapshot(grid)


def nested_grid(boundary="outflow", topology_seed=0, data_seed=1):
    """A three-level grid exercising all four neighbour kinds."""
    grid = make_grid(boundary=boundary)
    for key in list(grid.sorted_keys()):
        grid.refine_block(key)
    grid.refine_block((2, 1, 1))
    fill_random(grid, data_seed)
    return grid


# ---------------------------------------------------------------------------
# topology plan: unit tests
# ---------------------------------------------------------------------------
class TestTopologyPlan:
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=BOUNDARY_IDS)
    def test_fill_bitwise_identical(self, boundary):
        grid = nested_grid(boundary=boundary)
        store_snap, oracle_snap = store_vs_oracle_fill(grid)
        assert_snapshots_equal(store_snap, oracle_snap)

    def test_plan_covers_all_neighbor_kinds(self):
        grid = nested_grid(boundary="outflow")
        counts = grid.topology_plan().kind_counts
        assert all(counts[k] > 0 for k in ("boundary", "same", "coarse", "fine"))
        assert sum(counts.values()) == 4 * grid.n_leaves

    def test_plan_lists_the_leaves_in_sorted_order(self):
        grid = nested_grid()
        plan = grid.topology_plan()
        assert plan.keys == grid.sorted_keys()
        assert list(plan.slots) == [grid.leaves[k].slot for k in plan.keys]
        assert list(plan.dx) == [grid.leaves[k].dx for k in plan.keys]
        assert list(plan.dy) == [grid.leaves[k].dy for k in plan.keys]

    def test_plan_cached_while_topology_unchanged(self):
        grid = nested_grid()
        grid.fill_guard_cells()
        plan = grid.topology_plan()
        grid.fill_guard_cells()
        assert grid.topology_plan() is plan

    def test_plan_rebuilt_after_refine(self):
        grid = nested_grid()
        plan = grid.topology_plan()
        refine_nested(grid, grid.sorted_keys()[0])
        fill_random(grid, 3)
        store_snap, oracle_snap = store_vs_oracle_fill(grid)
        assert grid.topology_plan() is not plan
        assert grid.topology_plan().epoch == grid._topology_epoch
        assert_snapshots_equal(store_snap, oracle_snap)

    def test_plan_rebuilt_after_derefine(self):
        grid = make_grid(max_level=2)
        grid.refine_block((1, 0, 0))
        fill_random(grid, 4)
        plan = grid.topology_plan()
        grid.derefine_siblings((1, 0, 0))
        fill_random(grid, 5)
        store_snap, oracle_snap = store_vs_oracle_fill(grid)
        assert grid.topology_plan() is not plan
        assert_snapshots_equal(store_snap, oracle_snap)

    def test_fill_variable_subset(self):
        grid = nested_grid()
        store_snap, oracle_snap = store_vs_oracle_fill(grid, variables=["dens"])
        assert_snapshots_equal(store_snap, oracle_snap)

    def test_unknown_variable_raises_on_both_paths(self):
        grid = nested_grid()
        with pytest.raises(KeyError):
            grid.fill_guard_cells(["nope"])
        with pytest.raises(KeyError):
            grid_oracle.fill_guard_cells(grid, ["nope"])

    def test_reflect_flips_normal_velocity_x(self):
        grid = make_grid(boundary="reflect", n_root=1, max_level=1)
        fill_random(grid, 6)
        grid.fill_guard_cells()
        data = grid.leaves[(1, 0, 0)].data
        ng = grid.ng
        interior_edge = data["velx"][ng:2 * ng, ng:-ng][::-1, :]
        np.testing.assert_array_equal(data["velx"][0:ng, ng:-ng], -interior_edge)
        # tangential velocity and scalars copy without a sign flip
        np.testing.assert_array_equal(
            data["dens"][0:ng, ng:-ng], data["dens"][ng:2 * ng, ng:-ng][::-1, :]
        )

    def test_reflect_flips_normal_velocity_y(self):
        grid = make_grid(boundary="reflect", n_root=1, max_level=1)
        fill_random(grid, 7)
        grid.fill_guard_cells()
        data = grid.leaves[(1, 0, 0)].data
        ng = grid.ng
        interior_edge = data["vely"][ng:-ng, ng:2 * ng][:, ::-1]
        np.testing.assert_array_equal(data["vely"][ng:-ng, 0:ng], -interior_edge)
        np.testing.assert_array_equal(
            data["velx"][ng:-ng, 0:ng], data["velx"][ng:-ng, ng:2 * ng][:, ::-1]
        )

    def test_corners_hold_nearest_interior_value(self):
        grid = nested_grid()
        grid.fill_guard_cells()
        ng = grid.ng
        for block in grid.blocks():
            data = block.data["dens"]
            nxe, nye = ng + grid.nxb, ng + grid.nyb
            assert np.all(data[0:ng, 0:ng] == data[ng, ng])
            assert np.all(data[nxe:, nye:] == data[nxe - 1, nye - 1])

    def test_fill_never_writes_interiors(self):
        grid = nested_grid()
        before = {
            key: {n: grid.leaves[key].interior_view(n).copy() for n in VARS}
            for key in grid.leaves
        }
        grid.fill_guard_cells()
        for key in grid.leaves:
            for name in VARS:
                np.testing.assert_array_equal(
                    grid.leaves[key].interior_view(name), before[key][name]
                )

    def test_pickle_carries_the_plan_and_refills_correctly(self):
        grid = nested_grid()
        grid.fill_guard_cells()
        clone = pickle.loads(pickle.dumps(grid))
        assert clone._plan is not None and clone._plan.epoch == grid._topology_epoch
        clone.fill_guard_cells()
        assert_snapshots_equal(snapshot(clone), snapshot(grid))

    def test_deepcopy_carries_the_plan_and_refills_correctly(self):
        grid = nested_grid()
        grid.fill_guard_cells()
        clone = copy.deepcopy(grid)
        assert clone._plan is not grid._plan and clone._plan.epoch == grid._plan.epoch
        clone.fill_guard_cells()
        assert_snapshots_equal(snapshot(clone), snapshot(grid))

    def test_single_root_periodic_wraps_to_itself(self):
        grid = make_grid(boundary="periodic", n_root=1, max_level=1)
        fill_random(grid, 8)
        store_snap, oracle_snap = store_vs_oracle_fill(grid)
        assert_snapshots_equal(store_snap, oracle_snap)


# ---------------------------------------------------------------------------
# batched compute_dt
# ---------------------------------------------------------------------------
def _workload(name, **overrides):
    cfg = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
               t_end=0.01, rk_stages=1)
    cfg.update(overrides)
    return create_workload(name, **cfg)


class TestComputeDt:
    @pytest.mark.parametrize("name", COMPRESSIBLE)
    def test_batched_vs_per_block_bitwise(self, name):
        workload = _workload(name)
        grid = workload.build_grid()
        solver = workload.build_solver()
        batched = solver.compute_dt(grid)
        reference = grid_oracle.compute_dt(solver, grid)
        assert np.float64(batched).tobytes() == np.float64(reference).tobytes()

    def test_batched_vs_per_block_after_evolution(self):
        workload = _workload("sedov")
        grid = workload.build_grid()
        solver = workload.build_solver()
        solver.evolve(grid, t_end=0.004)
        batched = solver.compute_dt(grid)
        reference = grid_oracle.compute_dt(solver, grid)
        assert np.float64(batched).tobytes() == np.float64(reference).tobytes()

    @given(refine_seed=seeds, data_seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_random_grids_bitwise(self, refine_seed, data_seed):
        grid = make_grid()
        random_topology(grid, refine_seed, 4)
        fill_random(grid, data_seed)
        solver = HydroSolver()
        batched = solver.compute_dt(grid)
        reference = grid_oracle.compute_dt(solver, grid)
        assert np.float64(batched).tobytes() == np.float64(reference).tobytes()

    def test_never_writes_grid_data(self):
        grid = _workload("sod").build_grid()
        before = snapshot(grid)
        HydroSolver().compute_dt(grid)
        assert_snapshots_equal(before, snapshot(grid))

    def test_workspace_steady_state_zero_allocations(self):
        grid = _workload("sod").build_grid()
        ws = Workspace()
        eos = GammaLawEOS()
        first = grid_kernels.compute_dt(grid, eos, 0.4, ws=ws)
        misses = ws.misses
        assert misses > 0
        for _ in range(3):
            assert grid_kernels.compute_dt(grid, eos, 0.4, ws=ws) == first
        assert ws.misses == misses
        assert ws.hits > 0

    def test_poisoned_workspace_never_leaks(self):
        grid = _workload("sod").build_grid()
        ws = Workspace()
        eos = GammaLawEOS()
        reference = grid_kernels.compute_dt(grid, eos, 0.4, ws=None)
        grid_kernels.compute_dt(grid, eos, 0.4, ws=ws)
        for buf in ws._buffers.values():
            buf.fill(np.nan)
        poisoned = grid_kernels.compute_dt(grid, eos, 0.4, ws=ws)
        assert np.float64(poisoned).tobytes() == np.float64(reference).tobytes()

    def test_without_workspace(self):
        grid = _workload("sod").build_grid()
        eos = GammaLawEOS()
        with_ws = grid_kernels.compute_dt(grid, eos, 0.4, ws=Workspace())
        without = grid_kernels.compute_dt(grid, eos, 0.4, ws=None)
        assert with_ws == without

    def test_per_block_path_pins_handrolled_formula(self):
        """The unified EOS helper must reproduce the historical expression
        ``sqrt(gamma * pres_f / dens_f)`` bit-for-bit."""
        from repro.kernels import flux

        eos = GammaLawEOS()
        rng = np.random.default_rng(11)
        dens = rng.uniform(0.1, 5.0, (8, 8))
        pres = rng.uniform(0.1, 5.0, (8, 8))
        dens_f, pres_f = eos.apply_floors(dens, pres)
        np.testing.assert_array_equal(
            flux.eos_sound_speed(dens_f, pres_f, eos.gamma),
            np.sqrt(eos.gamma * pres_f / dens_f),
        )


# ---------------------------------------------------------------------------
# stacked refinement estimators
# ---------------------------------------------------------------------------
class TestStackedEstimators:
    @given(seed=seeds, nblocks=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_lohner_stacked_bitwise(self, seed, nblocks):
        stack = np.random.default_rng(seed).uniform(-3.0, 3.0, (nblocks, 10, 9))
        batched = lohner_error(stack)
        for i in range(nblocks):
            np.testing.assert_array_equal(batched[i], lohner_error(stack[i]))

    @given(seed=seeds, nblocks=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_gradient_stacked_bitwise(self, seed, nblocks):
        stack = np.random.default_rng(seed).uniform(-3.0, 3.0, (nblocks, 9, 10))
        batched = gradient_error(stack)
        for i in range(nblocks):
            np.testing.assert_array_equal(batched[i], gradient_error(stack[i]))

    @pytest.mark.parametrize("estimator", [lohner_error, gradient_error],
                             ids=["lohner", "gradient"])
    def test_small_arrays_return_zeros(self, estimator):
        assert estimator.supports_batching
        tiny = np.ones((4, 2, 7))
        np.testing.assert_array_equal(estimator(tiny), np.zeros_like(tiny))

    @pytest.mark.parametrize("name", ["sod", "kelvin-helmholtz"])
    def test_stacked_block_errors_match_block_error(self, name):
        grid = _workload(name).build_grid()
        stacked = stacked_block_errors(grid, ["dens", "pres"], ws=Workspace())
        reference = [block_error(b, ["dens", "pres"]) for b in grid.blocks()]
        assert [float(v) for v in stacked] == reference

    def test_unbatchable_estimator_rejected(self):
        grid = nested_grid()

        def plain_2d(u):
            return np.zeros_like(u)

        with pytest.raises(ValueError):
            stacked_block_errors(grid, ["dens"], estimator=plain_2d)

    def test_regrid_falls_back_for_custom_estimator(self):
        def custom(u):  # no supports_batching attribute
            return gradient_error(u)

        store = nested_grid(data_seed=12)
        reference = nested_grid(data_seed=12)
        s1 = store.regrid(["dens"], 0.3, 0.05, estimator=custom)
        with grid_oracle.swapped():
            s2 = reference.regrid(["dens"], 0.3, 0.05, estimator=custom)
        assert set(store.leaves) == set(reference.leaves)
        assert (s1.refined, s1.derefined) == (s2.refined, s2.derefined)

    def test_regrid_decisions_identical_to_the_oracle(self):
        store = nested_grid(data_seed=13)
        reference = nested_grid(data_seed=13)
        s1 = store.regrid(["dens", "pres"], 0.25, 0.05)
        with grid_oracle.swapped():
            s2 = reference.regrid(["dens", "pres"], 0.25, 0.05)
        assert set(store.leaves) == set(reference.leaves)
        assert (s1.refined, s1.derefined) == (s2.refined, s2.derefined)
        assert_snapshots_equal(snapshot(store), snapshot(reference))

    def test_workspace_steady_state(self):
        grid = nested_grid()
        ws = Workspace()
        first = stacked_block_errors(grid, VARS, ws=ws)
        misses = ws.misses
        again = stacked_block_errors(grid, VARS, ws=ws)
        np.testing.assert_array_equal(first, again)
        assert ws.misses == misses

    def test_poisoned_workspace_never_leaks(self):
        grid = nested_grid()
        ws = Workspace()
        reference = stacked_block_errors(grid, VARS, ws=None)
        stacked_block_errors(grid, VARS, ws=ws)
        for buf in ws._buffers.values():
            buf.fill(np.nan)
        poisoned = stacked_block_errors(grid, VARS, ws=ws)
        np.testing.assert_array_equal(poisoned, reference)


# ---------------------------------------------------------------------------
# pad_edge (bubble-solver paddings)
# ---------------------------------------------------------------------------
class TestPadEdge:
    @given(nx=st.integers(2, 16), ny=st.integers(2, 16),
           n=st.integers(1, 4), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_np_pad(self, nx, ny, n, seed):
        arr = np.random.default_rng(seed).uniform(-5.0, 5.0, (nx, ny))
        expected = np.pad(arr, n, mode="edge")
        np.testing.assert_array_equal(pad_edge(arr, n), expected)
        np.testing.assert_array_equal(pad_edge(arr, n, ws=Workspace()), expected)

    def test_workspace_buffer_reused(self):
        ws = Workspace()
        a = np.ones((6, 6))
        first = pad_edge(a, 2, ws=ws, key=("pad", "a"))
        second = pad_edge(a + 1, 2, ws=ws, key=("pad", "a"))
        assert second is first  # same scratch buffer
        assert ws.misses == 1 and ws.hits == 1

    def test_distinct_keys_distinct_buffers(self):
        ws = Workspace()
        a = np.ones((6, 6))
        pa = pad_edge(a, 1, ws=ws, key=("pad", "a"))
        pb = pad_edge(a, 1, ws=ws, key=("pad", "b"))
        assert pa is not pb
        np.testing.assert_array_equal(pa, pb)

    def test_never_writes_input(self):
        arr = np.arange(36, dtype=np.float64).reshape(6, 6)
        before = arr.copy()
        pad_edge(arr, 3, ws=Workspace())
        np.testing.assert_array_equal(arr, before)


# ---------------------------------------------------------------------------
# whole-workload differential runs against the oracle
# ---------------------------------------------------------------------------
def _assert_states_equal(a, b, label):
    assert set(a) == set(b), label
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=f"{label}: {key}")


class TestOracleRuns:
    def test_swap_routes_through_the_oracle(self, monkeypatch):
        calls = []
        monkeypatch.setattr(grid_oracle, "fill_block_guards",
                            lambda grid, block, name: calls.append(name))
        grid = make_grid(n_root=1, max_level=1)
        with grid_oracle.swapped():
            grid.fill_guard_cells(["dens"])
        assert calls == ["dens"]
        assert AMRGrid.fill_guard_cells is not grid_oracle.fill_guard_cells

    @pytest.mark.parametrize("name", COMPRESSIBLE)
    def test_workload_bitwise_against_oracle(self, name):
        store = create_workload(name, **TINY_COMPRESSIBLE).reference(plane="auto")
        with grid_oracle.swapped():
            oracle = create_workload(name, **TINY_COMPRESSIBLE).reference(plane="auto")
        assert store.time == oracle.time
        assert store.info == oracle.info
        _assert_states_equal(store.state, oracle.state, name)

    def test_instrumented_counters_byte_identical_against_oracle(self):
        """The grid side is context-free, so swapping it for the oracle
        must not move a single instrumented counter."""
        store = create_workload("sod", **TINY_COMPRESSIBLE).reference(plane="instrumented")
        with grid_oracle.swapped():
            oracle = create_workload("sod", **TINY_COMPRESSIBLE).reference(plane="instrumented")
        assert store.runtime.ops.full == oracle.runtime.ops.full
        assert store.runtime.ops.total == oracle.runtime.ops.total
        _assert_states_equal(store.state, oracle.state, "sod instrumented")
