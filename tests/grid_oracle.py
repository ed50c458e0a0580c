"""Per-block reference paths of the AMR grid side — the test oracle.

The grid fills guard cells, reduces the CFL step and evaluates the regrid
estimators with stacked operations over its block store
(``AMRGrid.unk`` and the slot-index ``TopologyPlan``).  This module keeps
the original per-block loops those stacked paths must reproduce bit for
bit: one Python strip per (leaf, side, variable), the 2-D ``prolong`` /
``restrict`` written out as they were, one CFL reduction per block and one
estimator call per block.

:func:`substep_per_block` is the per-block twin of the hydro solver's
stacked substep: one update per leaf — a one-block fused or counted
group, or one op-by-op ``advance_block`` call — then a scatter;
:func:`advance_alone` runs the solver's fused or counted update of a
single leaf on a copy of the grid.

Besides the functions, :func:`swapped` is a context manager that routes
``AMRGrid.fill_guard_cells``, ``AMRGrid._estimate_errors`` and
``HydroSolver.compute_dt`` through this oracle, so a whole workload run can
be diffed against the stacked paths (``tools/check_plane_equivalence.py``
and the grid-plane tests do).
"""
from __future__ import annotations

import contextlib
import copy
from typing import List

import numpy as np

from repro.amr.grid import AMRGrid
from repro.amr.refinement import block_error
from repro.hydro.solver import PRIMITIVE_VARS, HydroSolver
from repro.kernels import flux

SIDES = ("-x", "+x", "-y", "+y")


def prolong_2d(coarse: np.ndarray) -> np.ndarray:
    """Piecewise-constant prolongation of one 2-D patch by 2."""
    return np.repeat(np.repeat(np.asarray(coarse, dtype=np.float64), 2, axis=0), 2, axis=1)


def restrict_2d(fine: np.ndarray) -> np.ndarray:
    """Mean over each 2x2 cell group of one 2-D patch."""
    fine = np.asarray(fine, dtype=np.float64)
    nx, ny = fine.shape
    return fine.reshape(nx // 2, 2, ny // 2, 2).mean(axis=(1, 3))


# ---------------------------------------------------------------------------
# guard-cell fill
# ---------------------------------------------------------------------------
def fill_guard_cells(grid, variables=None) -> None:
    """Fill every guard cell of every leaf, one block and variable at a time."""
    names = list(variables) if variables is not None else grid.variables
    for key in grid.sorted_keys():
        block = grid.leaves[key]
        for name in names:
            fill_block_guards(grid, block, name)


def fill_block_guards(grid, block, name: str) -> None:
    ng, nxb, nyb = grid.ng, grid.nxb, grid.nyb
    data = block.data[name]

    for side in SIDES:
        kind, info = grid.neighbor(block.key, side)
        strip = neighbor_strip(grid, block, name, side, kind, info)
        if side == "-x":
            data[0:ng, ng:ng + nyb] = strip
        elif side == "+x":
            data[ng + nxb:, ng:ng + nyb] = strip
        elif side == "-y":
            data[ng:ng + nxb, 0:ng] = strip
        else:
            data[ng:ng + nxb, ng + nyb:] = strip

    # corners: nearest interior value (never consumed by the solvers)
    data[0:ng, 0:ng] = data[ng, ng]
    data[0:ng, ng + nyb:] = data[ng, ng + nyb - 1]
    data[ng + nxb:, 0:ng] = data[ng + nxb - 1, ng]
    data[ng + nxb:, ng + nyb:] = data[ng + nxb - 1, ng + nyb - 1]


def neighbor_strip(grid, block, name: str, side: str, kind: str, info) -> np.ndarray:
    """The guard-cell strip for one side of one block."""
    ng, nxb, nyb = grid.ng, grid.nxb, grid.nyb

    if kind == "boundary":
        return boundary_strip(grid, block, name, side)

    if kind == "same":
        src = grid.leaves[info].data[name]
        if side == "-x":
            return src[nxb:nxb + ng, ng:ng + nyb]
        if side == "+x":
            return src[ng:2 * ng, ng:ng + nyb]
        if side == "-y":
            return src[ng:ng + nxb, nyb:nyb + ng]
        return src[ng:ng + nxb, ng:2 * ng]

    if kind == "coarse":
        return coarse_strip(grid, block, name, side, info)

    return fine_strip(grid, block, name, side, info)


def boundary_strip(grid, block, name: str, side: str) -> np.ndarray:
    ng, nxb, nyb = grid.ng, grid.nxb, grid.nyb
    data = block.data[name]
    if side in ("-x", "+x"):
        edge = data[ng, ng:ng + nyb] if side == "-x" else data[ng + nxb - 1, ng:ng + nyb]
        if grid.boundary_x == "outflow":
            return np.tile(edge, (ng, 1))
        # reflect
        if side == "-x":
            strip = data[ng:2 * ng, ng:ng + nyb][::-1, :].copy()
        else:
            strip = data[nxb:nxb + ng, ng:ng + nyb][::-1, :].copy()
        if name == grid.reflect_vars.get("x"):
            strip = -strip
        return strip
    edge = data[ng:ng + nxb, ng] if side == "-y" else data[ng:ng + nxb, ng + nyb - 1]
    if grid.boundary_y == "outflow":
        return np.tile(edge[:, None], (1, ng))
    if side == "-y":
        strip = data[ng:ng + nxb, ng:2 * ng][:, ::-1].copy()
    else:
        strip = data[ng:ng + nxb, nyb:nyb + ng][:, ::-1].copy()
    if name == grid.reflect_vars.get("y"):
        strip = -strip
    return strip


def coarse_strip(grid, block, name: str, side: str, ckey) -> np.ndarray:
    """Guard strip taken from a coarser neighbour (prolongation)."""
    ng, nxb, nyb = grid.ng, grid.nxb, grid.nyb
    src = grid.leaves[ckey].data[name]
    ngc = (ng + 1) // 2  # coarse cells needed to cover ng fine cells

    _, ix, iy = block.key
    if side in ("-x", "+x"):
        # our block covers the lower or upper half of the coarse
        # neighbour's y extent
        j0 = ng + (iy % 2) * (nyb // 2)
        if side == "-x":
            return prolong_2d(src[ng + nxb - ngc:ng + nxb, j0:j0 + nyb // 2])[-ng:, :]
        return prolong_2d(src[ng:ng + ngc, j0:j0 + nyb // 2])[:ng, :]
    i0 = ng + (ix % 2) * (nxb // 2)
    if side == "-y":
        return prolong_2d(src[i0:i0 + nxb // 2, ng + nyb - ngc:ng + nyb])[:, -ng:]
    return prolong_2d(src[i0:i0 + nxb // 2, ng:ng + ngc])[:, :ng]


def fine_strip(grid, block, name: str, side: str, fine_keys: List) -> np.ndarray:
    """Guard strip taken from two finer neighbours (restriction)."""
    ng, nxb, nyb = grid.ng, grid.nxb, grid.nyb
    lo, hi = (grid.leaves[k] for k in sorted(fine_keys, key=lambda k: (k[2], k[1])))

    pieces = []
    for nb in (lo, hi):
        src = nb.data[name]
        if side == "-x":
            patch = src[ng + nxb - 2 * ng:ng + nxb, ng:ng + nyb]
        elif side == "+x":
            patch = src[ng:ng + 2 * ng, ng:ng + nyb]
        elif side == "-y":
            patch = src[ng:ng + nxb, ng + nyb - 2 * ng:ng + nyb]
        else:
            patch = src[ng:ng + nxb, ng:ng + 2 * ng]
        pieces.append(restrict_2d(patch))
    return np.concatenate(pieces, axis=1 if side in ("-x", "+x") else 0)


# ---------------------------------------------------------------------------
# CFL step, per-block substep and regrid estimators
# ---------------------------------------------------------------------------
def compute_dt(solver, grid) -> float:
    """Per-block CFL reduction of ``HydroSolver.compute_dt``."""
    dt = np.inf
    for block in grid.blocks():
        dens = block.interior_view("dens")
        velx = block.interior_view("velx")
        vely = block.interior_view("vely")
        pres = block.interior_view("pres")
        dens_f, pres_f = solver.eos.apply_floors(dens, pres)
        cs = flux.eos_sound_speed(dens_f, pres_f, solver.eos.gamma)
        sx = np.max(np.abs(velx) + cs)
        sy = np.max(np.abs(vely) + cs)
        speed = max(sx / block.dx, sy / block.dy, 1e-30)
        dt = min(dt, 1.0 / speed)
    return solver.cfl * float(dt)


def substep_per_block(solver, grid, dt: float, provider) -> None:
    """``HydroSolver._substep`` one block at a time: a leaf whose context
    runs fused or counted is advanced as a one-block ``_advance_batched``
    group (a counted one replays its ledger once), every other leaf op by
    op through ``advance_block``; then the op-by-op interiors are
    scattered back to the store and the guard cells refilled.  Every
    update reads only its own block, so the one-block groups may write
    their interiors back at once, as ``_substep``'s groups do."""
    plan = grid.topology_plan()
    max_level = grid.finest_level
    singles, new = [], []
    for i, key in enumerate(plan.keys):
        ctx = provider(solver.module, key[0], max_level)
        if ctx.ledger or ctx.rounder() is not None:
            solver._advance_batched(grid, [i], dt, ctx)
        else:
            singles.append(i)
            new.append(solver.advance_block(grid.leaves[key], dt, ctx))
    if singles:
        grid.scatter_interior(PRIMITIVE_VARS, plan.slots[singles],
                              [[prims[name] for prims in new] for name in PRIMITIVE_VARS])
    grid.fill_guard_cells(PRIMITIVE_VARS)


def advance_alone(solver, grid, block, dt: float, ctx) -> dict:
    """The solver's update of ``block`` alone under ``ctx`` — the one-block
    ``_advance_batched`` group ``_substep`` runs for a lone fused or
    counted block — on a copy of ``grid``.  Returns the block's new
    interior primitives."""
    grid = copy.deepcopy(grid)
    solver._advance_batched(grid, [grid.topology_plan().keys.index(block.key)], dt, ctx)
    return {name: grid.leaves[block.key].interior_view(name).copy() for name in PRIMITIVE_VARS}


def estimate_errors(grid, refine_vars, estimator) -> dict:
    """Per-block estimator pass of ``AMRGrid.regrid``."""
    return {
        key: block_error(grid.leaves[key], refine_vars, estimator=estimator)
        for key in grid.sorted_keys()
    }


@contextlib.contextmanager
def swapped():
    """Run the grid fill, the regrid estimators and ``compute_dt`` through
    this oracle while the context is active."""
    saved = (AMRGrid.fill_guard_cells, AMRGrid._estimate_errors, HydroSolver.compute_dt)
    AMRGrid.fill_guard_cells = fill_guard_cells
    AMRGrid._estimate_errors = estimate_errors
    HydroSolver.compute_dt = lambda self, grid: compute_dt(self, grid)
    try:
        yield
    finally:
        AMRGrid.fill_guard_cells, AMRGrid._estimate_errors, HydroSolver.compute_dt = saved
