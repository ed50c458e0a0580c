"""The AMR block store: every leaf lives in one ``unk`` array.

Checks the store's slot lifecycle (views, free-list reuse, capacity
growth), that copies and pickles rebuild the views and share nothing with
their source, and — over random properly nested topologies, every boundary
kind and several root shapes — that the stacked guard fill of the topology
plan equals the per-block oracle of ``tests/grid_oracle.py`` bit for bit,
corners included.
"""
import copy
import pickle

import grid_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.amr import AMRGrid
from repro.amr.refinement import prolong, restrict

VARS = ["dens", "velx", "vely", "pres"]
SIDES = ("-x", "+x", "-y", "+y")
BOUNDARIES = [
    "outflow",
    "periodic",
    "reflect",
    {"x": "periodic", "y": "reflect"},
    {"x": "reflect", "y": "outflow"},
]
BOUNDARY_IDS = ["outflow", "periodic", "reflect", "periodic-x-reflect-y", "reflect-x-outflow-y"]
seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


def make_grid(boundary="outflow", n_root=2, max_level=3, nxb=8, nyb=8, ng=3):
    return AMRGrid(VARS, nxb=nxb, nyb=nyb, n_root_x=n_root, n_root_y=n_root,
                   max_level=max_level, ng=ng, boundary=boundary)


def refine_nested(grid, key):
    """Refine ``key`` after any coarser neighbour, keeping proper nesting."""
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
    """Random interiors (signed zeros included) and garbage guard cells."""
    rng = np.random.default_rng(seed)
    for block in grid.blocks():
        for name in grid.variables:
            block.data[name][...] = rng.uniform(-1e3, 1e3, block.shape_with_guards)
            vals = rng.uniform(-2.0, 2.0, (grid.nxb, grid.nyb))
            vals[rng.uniform(size=vals.shape) < 0.1] = -0.0
            block.set_interior(name, vals)


def live(grid):
    """Every leaf's data in sorted-key order, as raw bytes."""
    return {key: {n: grid.leaves[key].data[n].tobytes() for n in grid.variables}
            for key in grid.sorted_keys()}


def nested_grid(boundary="outflow"):
    grid = make_grid(boundary=boundary)
    for key in list(grid.sorted_keys()):
        grid.refine_block(key)
    grid.refine_block((2, 1, 1))
    fill_random(grid, 1)
    return grid


# ---------------------------------------------------------------------------
# slots and views
# ---------------------------------------------------------------------------
class TestSlots:
    def test_leaf_arrays_are_views_of_the_store(self):
        grid = nested_grid()
        slots = [block.slot for block in grid.blocks()]
        assert len(set(slots)) == len(slots)
        for block in grid.blocks():
            for row, name in enumerate(VARS):
                assert np.shares_memory(block.data[name], grid.unk)
                block.data[name][0, 0] = 1234.5 + row
                assert grid.unk[row, block.slot, 0, 0] == 1234.5 + row

    def test_new_blocks_start_zeroed(self):
        grid = make_grid(n_root=1, max_level=2)
        grid.unk[...] = 7.0
        for key in grid.refine_block((1, 0, 0)):
            interior = grid.leaves[key].interior_view("dens")
            assert np.all(interior == 7.0)
            data = grid.leaves[key].data["dens"]
            assert np.all(data[:grid.ng] == 0.0)  # guards not yet filled

    def test_slots_are_reused_after_refine_and_derefine(self):
        grid = make_grid(n_root=2, max_level=2)
        for _ in range(3):
            grid.refine_block((1, 0, 0))
            grid.derefine_siblings((1, 0, 0))
        capacity = grid.unk.shape[1]
        for _ in range(5):
            grid.refine_block((1, 1, 1))
            grid.derefine_siblings((1, 1, 1))
        assert grid.unk.shape[1] == capacity
        slots = {block.slot for block in grid.blocks()}
        assert len(slots) == grid.n_leaves
        assert slots | set(grid._free) == set(range(capacity))
        assert not slots & set(grid._free)

    def test_capacity_growth_preserves_every_leaf(self):
        grid = make_grid(n_root=1, max_level=4)
        fill_random(grid, 2)
        capacities = [grid.unk.shape[1]]
        for step in range(12):
            before = live(grid)
            target = grid.sorted_keys()[step % grid.n_leaves]
            refine_nested(grid, target)
            after = live(grid)
            for key in before.keys() & after.keys():
                assert before[key] == after[key], key
            for block in grid.blocks():
                assert np.shares_memory(block.data["dens"], grid.unk)
            capacities.append(grid.unk.shape[1])
        # the store grew several times, each time by doubling
        assert len(set(capacities)) > 2
        for a, b in zip(capacities, capacities[1:]):
            ratio = b // a
            assert b % a == 0 and ratio & (ratio - 1) == 0

    def test_refine_and_derefine_match_the_2d_transfers(self):
        grid = make_grid(n_root=1, max_level=2)
        fill_random(grid, 3)
        parent = {n: grid.leaves[(1, 0, 0)].interior_view(n).copy() for n in VARS}
        h = grid.nxb // 2
        for key in grid.refine_block((1, 0, 0)):
            qx, qy = (key[1] % 2) * h, (key[2] % 2) * h
            for name in VARS:
                expected = grid_oracle.prolong_2d(parent[name][qx:qx + h, qy:qy + h])
                np.testing.assert_array_equal(grid.leaves[key].interior_view(name), expected)
        fill_random(grid, 4)
        children = {key: {n: grid.leaves[key].interior_view(n).copy() for n in VARS}
                    for key in grid.sorted_keys()}
        grid.derefine_siblings((1, 0, 0))
        merged = grid.leaves[(1, 0, 0)]
        for key, data in children.items():
            qx, qy = (key[1] % 2) * h, (key[2] % 2) * h
            for name in VARS:
                expected = grid_oracle.restrict_2d(data[name])
                assert merged.interior_view(name)[qx:qx + h, qy:qy + h].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# copies
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("clone", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["deepcopy", "pickle"])
class TestCopies:
    def test_round_trip_rebuilds_the_views(self, clone):
        grid = nested_grid()
        grid.fill_guard_cells()
        other = clone(grid)
        assert live(other) == live(grid)
        assert other.unk.shape == grid.unk.shape
        assert not np.shares_memory(other.unk, grid.unk)
        for key in grid.leaves:
            assert other.leaves[key].slot == grid.leaves[key].slot
            for name in VARS:
                assert np.shares_memory(other.leaves[key].data[name], other.unk)
                assert not np.shares_memory(other.leaves[key].data[name], grid.unk)

    def test_mutating_the_copy_leaves_the_source_unchanged(self, clone):
        grid = nested_grid()
        grid.fill_guard_cells()
        before = live(grid)
        other = clone(grid)
        other.unk[...] = -1.0
        other.refine_block(other.sorted_keys()[0])
        other.fill_guard_cells()
        other.regrid(["dens"], 0.0, -1.0)
        assert live(grid) == before

    def test_copy_keeps_its_plan_and_evolves_like_the_source(self, clone):
        grid = nested_grid()
        grid.fill_guard_cells()
        other = clone(grid)
        assert other._plan is not None and other._plan is not grid._plan
        for g in (grid, other):
            fill_random(g, 5)
            g.fill_guard_cells()
            g.regrid(["dens", "pres"], 0.3, 0.1)
        assert live(other) == live(grid)

    def test_only_live_slots_are_shipped(self, clone):
        grid = make_grid(n_root=1, max_level=3)
        grid.refine_block((1, 0, 0))
        grid.refine_block((2, 0, 0))
        grid.derefine_siblings((2, 0, 0))
        capacity, shipped = grid.__getstate__()["unk"]
        assert capacity == grid.unk.shape[1] > grid.n_leaves
        assert shipped.shape[1] == grid.n_leaves


# ---------------------------------------------------------------------------
# the stacked fill against the per-block oracle
# ---------------------------------------------------------------------------
def assert_fill_matches_oracle(grid, variables=None):
    store = copy.deepcopy(grid)
    store.fill_guard_cells(variables)
    grid_oracle.fill_guard_cells(grid, variables)
    assert live(store) == live(grid)


class TestFillAgainstOracle:
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=BOUNDARY_IDS)
    @pytest.mark.parametrize("n_root", [1, 2, 3])
    @given(refine_seed=seeds, data_seed=seeds, n_refines=st.integers(0, 8))
    @settings(max_examples=10, deadline=None)
    def test_random_topologies_bitwise(self, boundary, n_root, refine_seed, data_seed, n_refines):
        grid = make_grid(boundary=boundary, n_root=n_root)
        random_topology(grid, refine_seed, n_refines)
        fill_random(grid, data_seed)
        assert_fill_matches_oracle(grid)

    @given(refine_seed=seeds, data_seed=seeds, ng=st.integers(1, 3),
           shape=st.sampled_from([(2, 2), (2, 4), (4, 2), (6, 6), (8, 6), (6, 10), (12, 8)]))
    @settings(max_examples=30, deadline=None)
    def test_block_shapes_and_guard_widths(self, refine_seed, data_seed, ng, shape):
        ng = min(ng, *(n // 2 for n in shape))
        grid = make_grid(boundary={"x": "reflect", "y": "periodic"}, nxb=shape[0],
                         nyb=shape[1], ng=ng)
        random_topology(grid, refine_seed, 5)
        fill_random(grid, data_seed)
        assert_fill_matches_oracle(grid)

    @given(data_seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_fill_after_regrid_cycles(self, data_seed):
        grid = make_grid(boundary="outflow")
        fill_random(grid, data_seed)
        grid.fill_guard_cells()
        for i in range(3):
            grid.regrid(["dens", "pres"], refine_cutoff=0.3, derefine_cutoff=0.1)
            fill_random(grid, data_seed + i + 1)
            assert_fill_matches_oracle(grid)

    def test_all_neighbor_kinds_covered(self):
        grid = nested_grid()
        counts = grid.topology_plan().kind_counts
        assert all(counts[kind] > 0 for kind in ("boundary", "same", "coarse", "fine"))

    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=BOUNDARY_IDS)
    def test_subset_fill_touches_only_those_variables(self, boundary):
        grid = nested_grid(boundary=boundary)
        before = grid.unk.copy()
        grid.fill_guard_cells(["dens", "pres"])
        untouched = [VARS.index("velx"), VARS.index("vely")]
        assert grid.unk[untouched].tobytes() == before[untouched].tobytes()
        oracle = copy.deepcopy(grid)
        oracle.unk[...] = before
        grid_oracle.fill_guard_cells(oracle, ["dens", "pres"])
        assert live(oracle) == live(grid)


class TestStackedRestrict:
    """``restrict`` over a stack gathered from the store (a different memory
    layout from a 2-D block view) keeps the 2-D ``mean(axis=(1, 3))`` bits."""

    @given(
        data=st.data(),
        shape=st.sampled_from([(6, 8), (8, 6), (2, 8), (8, 2), (2, 2), (4, 4)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_2d_mean_bitwise(self, data, shape):
        nx, ny = shape
        arr = data.draw(hnp.arrays(
            np.float64, (3, 5, nx, ny),
            elements=st.floats(allow_nan=False, width=64)
            | st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16, 1e308, -1e308]),
        ))
        store = np.zeros((3, 7, 14, 14))
        store[:, :5, 3:3 + nx, 2:2 + ny] = arr
        order = [4, 0, 2, 1, 3]
        gathered = store[:, order, 3:3 + nx, 2:2 + ny]
        # the same stack in other memory layouts: numpy's own mean sums in
        # a layout-dependent order, restrict must not
        layouts = [gathered, np.asfortranarray(gathered),
                   np.moveaxis(np.ascontiguousarray(np.moveaxis(gathered, 0, -1)), -1, 0)]
        with np.errstate(all="ignore"):
            for stack in layouts:
                stacked = restrict(stack)
                for v in range(3):
                    for i, k in enumerate(order):
                        expected = grid_oracle.restrict_2d(store[v, k, 3:3 + nx, 2:2 + ny])
                        assert stacked[v, i].tobytes() == expected.tobytes()

    def test_prolong_stack_matches_2d(self):
        arr = np.random.default_rng(0).normal(size=(2, 3, 4, 5))
        stacked = prolong(arr)
        for v in range(2):
            for k in range(3):
                np.testing.assert_array_equal(stacked[v, k], grid_oracle.prolong_2d(arr[v, k]))
