"""Block-structured adaptive mesh refinement grid (2-D quadtree).

This is the reproduction's stand-in for PARAMESH/AmReX as used by Flash-X:

* the domain is covered by equal-size blocks organised in a quadtree;
* every block carries the same number of cells, so a block one level finer
  resolves twice the spatial resolution;
* only leaf blocks carry the evolving solution;
* refinement follows an error estimator (Löhner by default) and maintains
  proper nesting (adjacent leaves differ by at most one level);
* guard-cell (ghost) regions are filled from same-level neighbours, from
  coarser neighbours by prolongation, from finer neighbours by restriction,
  and from the domain boundary conditions.

Like PARAMESH/AmReX in Flash-X, the grid keeps every leaf's data in one
store ``unk[var, slot, i, j]``; a :class:`~repro.amr.block.Block` is a set
of views into its slot.  The physics solvers never look at the tree: they
see blocks (or stacks of them) with filled guard cells, which is exactly
the Flash-X solver contract the paper's per-block (M−l cutoff) truncation
policies rely on.
"""
from __future__ import annotations

import copy
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.grid import TopologyPlan
from ..kernels.scratch import Workspace
from .block import Block, BlockKey
from .refinement import (
    block_error,
    lohner_error,
    prolong,
    restrict,
    stacked_block_errors,
)

__all__ = ["AMRGrid", "RegridSummary"]

_SIDES = ("-x", "+x", "-y", "+y")
_OFFSETS = {"-x": (-1, 0), "+x": (1, 0), "-y": (0, -1), "+y": (0, 1)}


class RegridSummary:
    """Outcome of one regrid pass."""

    def __init__(self, refined: int, derefined: int, n_leaves: int, max_level: int) -> None:
        self.refined = refined
        self.derefined = derefined
        self.n_leaves = n_leaves
        self.max_level = max_level

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegridSummary(refined={self.refined}, derefined={self.derefined}, "
            f"leaves={self.n_leaves}, max_level={self.max_level})"
        )


class AMRGrid:
    """A 2-D block-structured AMR hierarchy.

    Parameters
    ----------
    variables:
        Names of the cell-centred variables carried by every block.
    xlim, ylim:
        Physical domain bounds.
    nxb, nyb:
        Cells per block in x and y (must be even and >= 2*ng).
    n_root_x, n_root_y:
        Number of level-1 (root) blocks in each direction.
    max_level:
        Maximum refinement level (level 1 = root).
    ng:
        Guard-cell width (3 supports the WENO5 stencil).
    boundary:
        "outflow" (zero gradient), "periodic", or "reflect" — applied to both
        axes — or a mapping ``{"x": kind, "y": kind}`` for mixed boundaries
        (e.g. the Rayleigh–Taylor box: periodic in x, reflecting walls in y).
    reflect_vars:
        For reflecting boundaries: mapping direction ('x' or 'y') to the
        variable whose sign flips across that boundary (normal velocity).

    Storage: :attr:`unk` has shape ``(len(variables), capacity, nxb+2*ng,
    nyb+2*ng)``.  Each leaf holds a slot taken from a free list and
    returned when the leaf is refined or merged away; when no slot is free
    the capacity doubles and every leaf's views are rebound (a view taken
    from ``block.data`` before a refine may be stale after it).  Guard
    filling, ``compute_dt`` and the regrid estimators run stacked over the
    store through the :class:`~repro.kernels.grid.TopologyPlan` of the
    current topology.
    """

    def __init__(
        self,
        variables: Sequence[str],
        xlim: Tuple[float, float] = (0.0, 1.0),
        ylim: Tuple[float, float] = (0.0, 1.0),
        nxb: int = 8,
        nyb: int = 8,
        n_root_x: int = 1,
        n_root_y: int = 1,
        max_level: int = 3,
        ng: int = 3,
        boundary="outflow",
        reflect_vars: Optional[Dict[str, str]] = None,
    ) -> None:
        if nxb % 2 or nyb % 2:
            raise ValueError("nxb and nyb must be even")
        if nxb < 2 * ng or nyb < 2 * ng:
            raise ValueError("blocks must hold at least 2*ng interior cells per direction")
        if max_level < 1:
            raise ValueError("max_level must be >= 1")
        if isinstance(boundary, str):
            boundary_x = boundary_y = boundary
        else:
            try:
                boundary_x = boundary["x"]
                boundary_y = boundary["y"]
            except (TypeError, KeyError):
                raise ValueError(
                    "boundary must be a string or a mapping with 'x' and 'y' keys, "
                    f"got {boundary!r}"
                ) from None
        for kind in (boundary_x, boundary_y):
            if kind not in ("outflow", "periodic", "reflect"):
                raise ValueError(f"unknown boundary condition {kind!r}")

        self.variables = list(variables)
        self.xlim = (float(xlim[0]), float(xlim[1]))
        self.ylim = (float(ylim[0]), float(ylim[1]))
        self.nxb = int(nxb)
        self.nyb = int(nyb)
        self.n_root_x = int(n_root_x)
        self.n_root_y = int(n_root_y)
        self.max_level = int(max_level)
        self.ng = int(ng)
        #: the original constructor argument (string or per-axis mapping)
        self.boundary = boundary
        self.boundary_x = boundary_x
        self.boundary_y = boundary_y
        self.reflect_vars = reflect_vars or {"x": "velx", "y": "vely"}

        #: bumped on every refine/derefine; the topology plan caches it
        self._topology_epoch = 0
        self._plan: Optional[TopologyPlan] = None
        self._workspace = Workspace()
        self._rows = {name: row for row, name in enumerate(self.variables)}

        n_roots = self.n_root_x * self.n_root_y
        #: the block store: ``unk[row, slot]`` is one leaf's variable,
        #: guard cells included
        self.unk = np.zeros((len(self.variables), n_roots,
                             self.nxb + 2 * self.ng, self.nyb + 2 * self.ng))
        self._free: List[int] = list(range(n_roots - 1, -1, -1))
        self.leaves: Dict[BlockKey, Block] = {}
        roots = [(1, ix, iy) for ix in range(self.n_root_x) for iy in range(self.n_root_y)]
        for block in self._new_blocks(roots):
            self.leaves[block.key] = block

    def __getstate__(self):
        # ship the live slots only; the views are rebuilt on arrival, and
        # the leaves keep their slots, so the topology plan stays valid
        state = self.__dict__.copy()
        keys = list(self.leaves)
        slots = np.array([self.leaves[key].slot for key in keys], dtype=np.intp)
        state["leaves"] = (keys, slots)
        state["unk"] = (self.unk.shape[1], self.unk[:, slots])
        return state

    def __setstate__(self, state) -> None:
        keys, slots = state.pop("leaves")
        capacity, live = state.pop("unk")
        self.__dict__.update(state)
        self.unk = np.zeros((live.shape[0], capacity, *live.shape[2:]))
        self.unk[:, slots] = live
        self.leaves = {key: self._bind(key, int(slot)) for key, slot in zip(keys, slots)}

    def __deepcopy__(self, memo) -> "AMRGrid":
        # the shipped store and leaf list are fresh already (keys are
        # tuples of ints), so only the rest is deep-copied
        state = self.__getstate__()
        clone = object.__new__(type(self))
        clone.__setstate__({
            name: value if name in ("unk", "leaves") else copy.deepcopy(value, memo)
            for name, value in state.items()
        })
        return clone

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def blocks_along_x(self, level: int) -> int:
        return self.n_root_x * (1 << (level - 1))

    def blocks_along_y(self, level: int) -> int:
        return self.n_root_y * (1 << (level - 1))

    def _block_bounds(self, key: BlockKey) -> Tuple[float, float, float, float]:
        level, ix, iy = key
        sx = (self.xlim[1] - self.xlim[0]) / self.blocks_along_x(level)
        sy = (self.ylim[1] - self.ylim[0]) / self.blocks_along_y(level)
        xlo = self.xlim[0] + ix * sx
        ylo = self.ylim[0] + iy * sy
        return xlo, xlo + sx, ylo, ylo + sy

    def _views(self, slot: int) -> Dict[str, np.ndarray]:
        return {name: self.unk[row, slot] for name, row in self._rows.items()}

    def _bind(self, key: BlockKey, slot: int) -> Block:
        """The block of ``key`` viewing store slot ``slot``."""
        xlo, xhi, ylo, yhi = self._block_bounds(key)
        return Block(key, self.nxb, self.nyb, self.ng, xlo, xhi, ylo, yhi, self._views(slot), slot)

    def _new_blocks(self, keys: Sequence[BlockKey]) -> List[Block]:
        """Zero-filled blocks for ``keys`` in free slots.  When too few
        slots are free the store doubles first, rebinding every leaf."""
        while len(self._free) < len(keys):
            capacity = self.unk.shape[1]
            grown = np.zeros((self.unk.shape[0], 2 * capacity, *self.unk.shape[2:]))
            grown[:, :capacity] = self.unk
            self.unk = grown
            for block in self.leaves.values():
                block.data = self._views(block.slot)
            self._free[:0] = range(2 * capacity - 1, capacity - 1, -1)
        blocks = []
        for key in keys:
            slot = self._free.pop()
            self.unk[:, slot] = 0.0
            blocks.append(self._bind(key, slot))
        return blocks

    # ------------------------------------------------------------------
    # stacked access to the store
    # ------------------------------------------------------------------
    def topology_plan(self) -> TopologyPlan:
        """The slot-index plan of the current topology (cached per epoch)."""
        plan = self._plan
        if plan is None or plan.epoch != self._topology_epoch:
            plan = self._plan = TopologyPlan(self)
        return plan

    def _var_rows(self, names: Iterable[str]) -> np.ndarray:
        """Store rows of ``names`` (unknown names raise ``KeyError``)."""
        return np.array([self._rows[name] for name in names], dtype=np.intp)

    def _window(self, names, slots, interior: bool) -> tuple:
        ng = self.ng
        cells = (slice(ng, ng + self.nxb), slice(ng, ng + self.nyb)) if interior else ()
        return (self._var_rows(names)[:, None], slots) + cells

    def stack(self, names: Sequence[str], slots: np.ndarray, out=None,
              interior: bool = False) -> np.ndarray:
        """Copy of ``names`` over the leaves in store ``slots``, shape
        ``(len(names), len(slots), nx, ny)`` — guard cells included unless
        ``interior``; written into ``out`` when given."""
        values = self.unk[self._window(names, slots, interior)]
        if out is None:
            return values
        np.copyto(out, values)
        return out

    def scatter_interior(self, names: Sequence[str], slots: np.ndarray, values) -> None:
        """Write ``values`` (shape ``(len(names), len(slots), nxb, nyb)``)
        into the interiors of the leaves in store ``slots``."""
        self.unk[self._window(names, slots, True)] = values

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def sorted_keys(self) -> List[BlockKey]:
        return sorted(self.leaves.keys())

    def blocks(self) -> List[Block]:
        """Leaf blocks in deterministic (sorted-key) order."""
        return [self.leaves[k] for k in self.sorted_keys()]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def finest_level(self) -> int:
        """Finest level currently present in the hierarchy."""
        return max(k[0] for k in self.leaves)

    def leaf_levels(self) -> Dict[int, int]:
        """Histogram of leaf counts per level."""
        hist: Dict[int, int] = {}
        for level, _, _ in self.leaves:
            hist[level] = hist.get(level, 0) + 1
        return dict(sorted(hist.items()))

    # ------------------------------------------------------------------
    # initialisation
    # ------------------------------------------------------------------
    def initialize(self, init_fn: Callable[[np.ndarray, np.ndarray], Dict[str, np.ndarray]]) -> None:
        """Apply an initial condition ``init_fn(x, y) -> {var: values}`` to
        every leaf block's interior, then fill guard cells."""
        for block in self.blocks():
            x, y = block.cell_mesh()
            fields = init_fn(x, y)
            for name, values in fields.items():
                if name in block.data:
                    block.set_interior(name, values)
        self.fill_guard_cells()

    def initialize_with_refinement(
        self,
        init_fn: Callable[[np.ndarray, np.ndarray], Dict[str, np.ndarray]],
        refine_vars: Sequence[str],
        refine_cutoff: float = 0.8,
        derefine_cutoff: float = 0.2,
        passes: Optional[int] = None,
    ) -> None:
        """Initialise and iteratively refine until the initial condition is
        resolved (the standard Flash-X start-up sequence)."""
        if passes is None:
            passes = self.max_level
        self.initialize(init_fn)
        for _ in range(passes):
            summary = self.regrid(refine_vars, refine_cutoff, derefine_cutoff)
            self.initialize(init_fn)
            if summary.refined == 0:
                break

    # ------------------------------------------------------------------
    # neighbours
    # ------------------------------------------------------------------
    def _wrap_index(self, level: int, nix: int, niy: int) -> Optional[Tuple[int, int]]:
        nbx, nby = self.blocks_along_x(level), self.blocks_along_y(level)
        if self.boundary_x == "periodic":
            nix %= nbx
        elif not 0 <= nix < nbx:
            return None
        if self.boundary_y == "periodic":
            niy %= nby
        elif not 0 <= niy < nby:
            return None
        return nix, niy

    def neighbor(self, key: BlockKey, side: str) -> Tuple[str, object]:
        """Locate the neighbour of a leaf across ``side``.

        Returns one of ``("same", key)``, ``("coarse", key)``,
        ``("fine", [key_low, key_high])`` (ordered along the transverse
        direction), or ``("boundary", None)``.
        """
        level, ix, iy = key
        di, dj = _OFFSETS[side]
        wrapped = self._wrap_index(level, ix + di, iy + dj)
        if wrapped is None:
            return ("boundary", None)
        nix, niy = wrapped

        same = (level, nix, niy)
        if same in self.leaves:
            return ("same", same)

        if level > 1:
            coarse = (level - 1, nix // 2, niy // 2)
            if coarse in self.leaves:
                return ("coarse", coarse)

        # finer neighbours: the two children of `same` that touch our face
        if side == "-x":
            fine = [(level + 1, 2 * nix + 1, 2 * niy), (level + 1, 2 * nix + 1, 2 * niy + 1)]
        elif side == "+x":
            fine = [(level + 1, 2 * nix, 2 * niy), (level + 1, 2 * nix, 2 * niy + 1)]
        elif side == "-y":
            fine = [(level + 1, 2 * nix, 2 * niy + 1), (level + 1, 2 * nix + 1, 2 * niy + 1)]
        else:  # "+y"
            fine = [(level + 1, 2 * nix, 2 * niy), (level + 1, 2 * nix + 1, 2 * niy)]
        if all(k in self.leaves for k in fine):
            return ("fine", fine)

        raise RuntimeError(
            f"proper nesting violated: no neighbour found for {key} on side {side}"
        )

    # ------------------------------------------------------------------
    # guard-cell filling
    # ------------------------------------------------------------------
    def fill_guard_cells(self, variables: Optional[Iterable[str]] = None) -> None:
        """Fill the guard cells of every leaf for the given variables.

        Corners are filled with the nearest interior value; the dimension-by-
        dimension solvers only consume face guard cells, so corners only need
        to hold finite values.  The fill runs the stacked operations of the
        :class:`~repro.kernels.grid.TopologyPlan` over the store and touches
        only the rows of ``variables``.
        """
        rows = slice(None) if variables is None else self._var_rows(variables)
        self.topology_plan().fill(self.unk, rows)

    # ------------------------------------------------------------------
    # refinement / derefinement
    # ------------------------------------------------------------------
    def _interior(self, slot: int) -> np.ndarray:
        """All variables of the interior of ``slot``: ``(nvar, nxb, nyb)``."""
        ng = self.ng
        return self.unk[:, slot, ng:ng + self.nxb, ng:ng + self.nyb]

    def _quadrant(self, child_key: BlockKey) -> Tuple[slice, slice]:
        """The interior cells of its parent that a child covers."""
        hx, hy = self.nxb // 2, self.nyb // 2
        ox, oy = (child_key[1] % 2) * hx, (child_key[2] % 2) * hy
        return slice(ox, ox + hx), slice(oy, oy + hy)

    def refine_block(self, key: BlockKey) -> List[BlockKey]:
        """Split a leaf into its four children (piecewise-constant prolongation)."""
        if key not in self.leaves:
            raise KeyError(f"{key} is not a leaf")
        self._topology_epoch += 1
        # the parent stays a leaf until its children hold slots, so a
        # store growth rebinds it too
        children = self._new_blocks(self.leaves[key].child_keys())
        parent = self.leaves.pop(key)
        coarse = self._interior(parent.slot)
        for child in children:
            qx, qy = self._quadrant(child.key)
            self._interior(child.slot)[...] = prolong(coarse[:, qx, qy])
            self.leaves[child.key] = child
        self._free.append(parent.slot)
        return [child.key for child in children]

    def derefine_siblings(self, parent_key: BlockKey) -> BlockKey:
        """Merge the four children of ``parent_key`` back into one leaf."""
        level, ix, iy = parent_key
        child_keys = [
            (level + 1, 2 * ix, 2 * iy),
            (level + 1, 2 * ix + 1, 2 * iy),
            (level + 1, 2 * ix, 2 * iy + 1),
            (level + 1, 2 * ix + 1, 2 * iy + 1),
        ]
        if not all(k in self.leaves for k in child_keys):
            raise KeyError(f"not all children of {parent_key} are leaves")
        self._topology_epoch += 1
        (parent,) = self._new_blocks([parent_key])
        coarse = self._interior(parent.slot)
        for child_key in child_keys:
            child = self.leaves.pop(child_key)
            qx, qy = self._quadrant(child_key)
            coarse[:, qx, qy] = restrict(self._interior(child.slot))
            self._free.append(child.slot)
        self.leaves[parent_key] = parent
        return parent_key

    def _neighbor_keys_all(self, key: BlockKey) -> List[Tuple[str, object]]:
        return [self.neighbor(key, side) for side in _SIDES]

    def _estimate_errors(self, refine_vars: Sequence[str], estimator) -> Dict[BlockKey, float]:
        """Per-leaf error map (the estimator pass of :meth:`regrid`).

        Estimators that declare ``supports_batching`` run once over a
        ``(nleaves, nx, ny)`` stack gathered from the store; custom 2-D
        estimators evaluate per block.  Both forms are bit-identical.
        """
        keys = self.topology_plan().keys
        if getattr(estimator, "supports_batching", False):
            # quiescent point: stack shapes change with the leaf count, so
            # let the workspace drop stale families when over cap
            self._workspace.trim()
            values = stacked_block_errors(self, refine_vars, estimator=estimator,
                                          ws=self._workspace)
            return {key: float(v) for key, v in zip(keys, values)}
        return {
            key: block_error(self.leaves[key], refine_vars, estimator=estimator)
            for key in keys
        }

    def regrid(
        self,
        refine_vars: Sequence[str],
        refine_cutoff: float = 0.8,
        derefine_cutoff: float = 0.2,
        estimator=lohner_error,
    ) -> RegridSummary:
        """One refinement/derefinement pass driven by the error estimator.

        The estimator is evaluated on the *current* (possibly truncated)
        solution — this is how aggressive truncation perturbs the AMR
        decisions and the operation counts in the paper (Figure 7).
        """
        self.fill_guard_cells(refine_vars)
        errors = self._estimate_errors(refine_vars, estimator)

        refine = {
            key
            for key, err in errors.items()
            if err > refine_cutoff and key[0] < self.max_level
        }

        # proper nesting: a refined block may not touch a leaf two levels
        # coarser, so coarse neighbours of marked blocks must refine as well.
        changed = True
        while changed:
            changed = False
            for key in list(refine):
                for kind, info in self._neighbor_keys_all(key):
                    if kind == "coarse" and info not in refine:
                        if info in self.leaves and info[0] < self.max_level:
                            refine.add(info)
                            changed = True

        n_refined = 0
        for key in sorted(refine, key=lambda k: k[0]):  # coarse levels first
            if key in self.leaves:
                self.refine_block(key)
                n_refined += 1

        # derefinement: all four siblings are quiet leaves and merging them
        # does not break nesting (no sibling touches a finer leaf).
        n_derefined = 0
        candidates: Dict[BlockKey, List[BlockKey]] = {}
        for key in self.sorted_keys():
            level = key[0]
            if level <= 1 or key in refine:
                continue
            if errors.get(key, np.inf) >= derefine_cutoff:
                continue
            parent = (level - 1, key[1] // 2, key[2] // 2)
            candidates.setdefault(parent, []).append(key)

        for parent, kids in sorted(candidates.items()):
            if len(kids) != 4:
                continue
            if any(k not in self.leaves for k in kids):
                continue
            safe = True
            for k in kids:
                for kind, _ in self._neighbor_keys_all(k):
                    if kind == "fine":
                        safe = False
                        break
                if not safe:
                    break
            if safe:
                self.derefine_siblings(parent)
                n_derefined += 1

        self.fill_guard_cells()
        return RegridSummary(n_refined, n_derefined, self.n_leaves, self.finest_level)

    # ------------------------------------------------------------------
    # covering-grid output and diagnostics
    # ------------------------------------------------------------------
    def uniform_data(self, name: str, level: Optional[int] = None) -> np.ndarray:
        """Sample a variable onto the uniform grid of ``level`` (default: the
        finest level present), prolonging coarser leaves by injection.

        This is what the checkpoint comparison utility (sfocu analogue)
        consumes.
        """
        if level is None:
            level = self.finest_level
        nx = self.blocks_along_x(level) * self.nxb
        ny = self.blocks_along_y(level) * self.nyb
        out = np.zeros((nx, ny), dtype=np.float64)
        for key in self.sorted_keys():
            block = self.leaves[key]
            blevel, bix, biy = key
            if blevel > level:
                raise ValueError(
                    f"cannot sample level {level}: leaf {key} is finer; "
                    "sample at grid.finest_level instead"
                )
            factor = 1 << (level - blevel)
            values = block.interior_view(name)
            if factor > 1:
                values = prolong(values, factor)
            i0 = bix * self.nxb * factor
            j0 = biy * self.nyb * factor
            out[i0:i0 + values.shape[0], j0:j0 + values.shape[1]] = values
        return out

    def uniform_coordinates(self, level: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Cell-centre coordinate vectors of the covering grid at ``level``."""
        if level is None:
            level = self.finest_level
        nx = self.blocks_along_x(level) * self.nxb
        ny = self.blocks_along_y(level) * self.nyb
        dx = (self.xlim[1] - self.xlim[0]) / nx
        dy = (self.ylim[1] - self.ylim[0]) / ny
        x = self.xlim[0] + (np.arange(nx) + 0.5) * dx
        y = self.ylim[0] + (np.arange(ny) + 0.5) * dy
        return x, y

    def level_map(self, level: Optional[int] = None) -> np.ndarray:
        """Refinement level of the leaf covering each cell of the covering grid."""
        if level is None:
            level = self.finest_level
        nx = self.blocks_along_x(level) * self.nxb
        ny = self.blocks_along_y(level) * self.nyb
        out = np.zeros((nx, ny), dtype=np.int64)
        for key in self.sorted_keys():
            blevel, bix, biy = key
            factor = 1 << (level - blevel)
            i0 = bix * self.nxb * factor
            j0 = biy * self.nyb * factor
            out[i0:i0 + self.nxb * factor, j0:j0 + self.nyb * factor] = blevel
        return out

    def total_integral(self, name: str) -> float:
        """Domain integral of a variable (for conservation checks)."""
        return float(sum(block.integral(name) for block in self.blocks()))
