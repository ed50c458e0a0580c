"""Grid-side kernels: the topology plan of the AMR block store, the
stacked CFL reduction and edge padding.

* :class:`TopologyPlan` — slot-index arrays for one AMR topology.  Every
  leaf of an :class:`~repro.amr.grid.AMRGrid` lives in one store
  ``unk[var, slot, i, j]``; the plan records the leaves' sorted keys, their
  store slots and spacings, and the guard-cell fill as flat indices into
  one variable plane of the store.  It is built once per topology (the
  grid compares :attr:`TopologyPlan.epoch` with its ``_topology_epoch``)
  and holds no array views, so it pickles and survives a deep copy of the
  grid, whose store keeps every leaf in the same slot.  Executing the fill
  is a handful of stacked operations over all leaves and all requested
  variables: one gather/scatter for every pure copy (same-level strips,
  outflow and reflect boundaries, corners), a sign flip of the reflected
  normal velocity, and per side a stacked :func:`~repro.amr.refinement.
  prolong` of coarse-neighbour patches or a stacked
  :func:`~repro.amr.refinement.restrict` of fine-neighbour patches.  Every
  guard strip reads *interior* cells only and the fill writes guard cells
  only, so the operations commute and the result is bitwise the per-block
  reference fill (kept as the test oracle in ``tests/grid_oracle.py``).

* :func:`compute_dt` — the CFL reduction over all leaves as one stacked
  ``(nleaves, nx, ny)`` kernel invocation that reads the interiors straight
  from the store, reusing the fused EOS sound-speed helper of
  :mod:`repro.kernels.flux`.  ``dx``/``dy`` are applied per leaf —
  block-bounds arithmetic can make them differ in the last bit even within
  one level — and the max/min reductions are exact (order independent),
  so the stacked reduction matches a per-block loop bitwise.

* :func:`pad_edge` — a scratch-buffered twin of ``np.pad(f, n,
  mode="edge")`` for the bubble solver's stencil paddings.

All of this is plain binary64 numpy outside any numerics context, so it is
safe on every kernel plane and leaves instrumented counters byte-identical.
"""
from __future__ import annotations

import copy
from typing import Dict, List, Tuple

import numpy as np

from . import flux
from .scratch import out_accessor

__all__ = ["TopologyPlan", "compute_dt", "pad_edge"]

_SIDES = ("-x", "+x", "-y", "+y")


class TopologyPlan:
    """Slot-index schedule of one AMR topology (see the module docstring).

    ``keys``, ``slots``, ``dx`` and ``dy`` list the leaves in sorted-key
    order; :meth:`fill` fills every guard cell of every leaf.  Indices into
    a variable plane are ``slot * cells + local`` with ``cells`` the cell
    count of a block including guards, so they do not depend on the
    store's capacity.
    """

    __slots__ = ("epoch", "keys", "slots", "dx", "dy", "kind_counts",
                 "_copy", "_negate", "_coarse", "_fine")

    def __init__(self, grid) -> None:
        ng, nxb, nyb = grid.ng, grid.nxb, grid.nyb
        hx, hy = nxb // 2, nyb // 2
        ngc = (ng + 1) // 2  # coarse cells covering ng fine cells
        cell = np.arange((nxb + 2 * ng) * (nyb + 2 * ng)).reshape(nxb + 2 * ng, nyb + 2 * ng)
        I, J = slice(ng, ng + nxb), slice(ng, ng + nyb)
        xe, ye = ng + nxb, ng + nyb  # first guard row / column past the interior

        # local index templates, per side: the guard strip a side fills and
        # the cells each neighbour kind reads for it
        face = {"-x": cell[:ng, J], "+x": cell[xe:, J], "-y": cell[I, :ng], "+y": cell[I, ye:]}
        same = {"-x": cell[nxb:xe, J], "+x": cell[ng:2 * ng, J],
                "-y": cell[I, nyb:ye], "+y": cell[I, ng:2 * ng]}
        outflow = {"-x": cell[ng:ng + 1, J], "+x": cell[xe - 1:xe, J],
                   "-y": cell[I, ng:ng + 1], "+y": cell[I, ye - 1:ye]}
        reflect = {"-x": cell[ng:2 * ng, J][::-1], "+x": cell[nxb:xe, J][::-1],
                   "-y": cell[I, ng:2 * ng][:, ::-1], "+y": cell[I, nyb:ye][:, ::-1]}
        # coarse patches by the leaf's position (parity) in its parent
        coarse = {
            "-x": [cell[xe - ngc:xe, ng + p * hy:ng + p * hy + hy] for p in (0, 1)],
            "+x": [cell[ng:ng + ngc, ng + p * hy:ng + p * hy + hy] for p in (0, 1)],
            "-y": [cell[ng + p * hx:ng + p * hx + hx, ye - ngc:ye] for p in (0, 1)],
            "+y": [cell[ng + p * hx:ng + p * hx + hx, ng:ng + ngc] for p in (0, 1)],
        }
        keep = {"-x": (slice(-ng, None), slice(None)), "+x": (slice(None, ng), slice(None)),
                "-y": (slice(None), slice(-ng, None)), "+y": (slice(None), slice(None, ng))}
        # fine patches and the strip half each one restricts into (lo, hi)
        fine = {"-x": cell[xe - 2 * ng:xe, J], "+x": cell[ng:3 * ng, J],
                "-y": cell[I, ye - 2 * ng:ye], "+y": cell[I, ng:3 * ng]}
        halves = {
            "-x": (cell[:ng, ng:ng + hy], cell[:ng, ng + hy:ye]),
            "+x": (cell[xe:, ng:ng + hy], cell[xe:, ng + hy:ye]),
            "-y": (cell[ng:ng + hx, :ng], cell[ng + hx:xe, :ng]),
            "+y": (cell[ng:ng + hx, ye:], cell[ng + hx:xe, ye:]),
        }
        corner_dst = [cell[:ng, :ng], cell[:ng, ye:], cell[xe:, :ng], cell[xe:, ye:]]
        corner_src = [cell[ng, ng], cell[ng, ye - 1], cell[xe - 1, ng], cell[xe - 1, ye - 1]]

        self.epoch = grid._topology_epoch
        self.keys = grid.sorted_keys()
        leaves = [grid.leaves[key] for key in self.keys]
        self.slots = np.array([block.slot for block in leaves], dtype=np.intp)
        self.dx = np.array([block.dx for block in leaves])
        self.dy = np.array([block.dy for block in leaves])
        self.kind_counts = {"boundary": 0, "same": 0, "coarse": 0, "fine": 0}

        # (destination slots, source slots) per (kind, side)
        pairs: Dict[Tuple[str, str], Tuple[List[int], List[int]]] = {}
        parity: Dict[str, List[int]] = {side: [] for side in _SIDES}

        def add(kind, side, dst, src):
            d, s = pairs.setdefault((kind, side), ([], []))
            d.append(dst)
            s.append(src)

        for key, block in zip(self.keys, leaves):
            for side in _SIDES:
                kind, info = grid.neighbor(key, side)
                self.kind_counts[kind] += 1
                if kind == "boundary":
                    axis = side[1]
                    bkind = grid.boundary_x if axis == "x" else grid.boundary_y
                    add(bkind, side, block.slot, block.slot)
                elif kind == "same":
                    add("same", side, block.slot, grid.leaves[info].slot)
                elif kind == "coarse":
                    add("coarse", side, block.slot, grid.leaves[info].slot)
                    parity[side].append(key[2] % 2 if side[1] == "x" else key[1] % 2)
                else:
                    lo, hi = sorted(info, key=lambda k: (k[2], k[1]))
                    add("fine-lo", side, block.slot, grid.leaves[lo].slot)
                    add("fine-hi", side, block.slot, grid.leaves[hi].slot)

        n = cell.size

        def index(slots, template):
            return np.asarray(slots, dtype=np.intp).reshape(-1, *([1] * template.ndim)) * n + template

        copy_dst, copy_src = [], []
        for (kind, side), (dst, src) in pairs.items():
            if kind in ("same", "outflow", "reflect"):
                source = {"same": same, "outflow": outflow, "reflect": reflect}[kind][side]
                copy_dst.append(index(dst, face[side]).ravel())
                copy_src.append(np.broadcast_to(index(src, source), (len(src),) + face[side].shape).ravel())
        for dst, src in zip(corner_dst, corner_src):
            copy_dst.append(index(self.slots, dst).ravel())
            copy_src.append(np.repeat(self.slots * n + src, dst.size))
        self._copy = (np.concatenate(copy_dst), np.concatenate(copy_src))

        # the reflected normal velocity flips sign: (variable row, guard cells)
        self._negate = []
        for axis in ("x", "y"):
            name = grid.reflect_vars.get(axis)
            cells = [index(pairs[("reflect", side)][0], face[side]).ravel()
                     for side in ("-" + axis, "+" + axis) if ("reflect", side) in pairs]
            if name in grid.variables and cells:
                self._negate.append((grid.variables.index(name), np.concatenate(cells)))

        # coarse neighbours: (patch indices, strip indices, kept rows/columns)
        self._coarse = []
        for side in _SIDES:
            if ("coarse", side) in pairs:
                dst, src = pairs[("coarse", side)]
                patch = np.stack(coarse[side])[parity[side]]
                self._coarse.append((
                    np.asarray(src, dtype=np.intp)[:, None, None] * n + patch,
                    index(dst, face[side]), keep[side],
                ))

        # fine neighbours, both sides of an axis and both halves in one
        # stack: (patch indices, strip-half indices)
        self._fine = []
        for axis in ("x", "y"):
            patches, strips = [], []
            for side in ("-" + axis, "+" + axis):
                for half, label in enumerate(("fine-lo", "fine-hi")):
                    if (label, side) in pairs:
                        dst, src = pairs[(label, side)]
                        patches.append(index(src, fine[side]))
                        strips.append(index(dst, halves[side][half]))
            if patches:
                self._fine.append((np.concatenate(patches), np.concatenate(strips)))

    def __deepcopy__(self, memo) -> "TopologyPlan":
        clone = object.__new__(TopologyPlan)
        for name in self.__slots__:
            value = getattr(self, name)
            # keys are tuples of ints: a new list of the same tuples is a copy
            setattr(clone, name, list(value) if name == "keys" else copy.deepcopy(value, memo))
        return clone

    def fill(self, unk: np.ndarray, rows=slice(None)) -> None:
        """Fill every guard cell of every leaf in the store ``unk`` for the
        variable ``rows`` (a slice or an index array)."""
        from ..amr.refinement import prolong, restrict

        flat = unk.reshape(-1)  # a view: the store is contiguous
        plane = unk[0].size if len(unk) else 0
        selected = np.arange(len(unk))[rows]
        offsets = selected * plane

        def at(index):
            """``index`` (within one variable plane) in every selected row."""
            return offsets.reshape(-1, *([1] * index.ndim)) + index

        dst, src = self._copy
        flat[at(dst)] = flat[at(src)]
        for row, cells in self._negate:
            if row in selected:
                cells = row * plane + cells
                flat[cells] = np.negative(flat[cells])
        for patch, strip, keep in self._coarse:
            flat[at(strip)] = prolong(flat[at(patch)])[(Ellipsis,) + keep]
        for patch, strip in self._fine:
            flat[at(strip)] = restrict(flat[at(patch)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopologyPlan(epoch={self.epoch}, leaves={len(self.keys)}, "
            f"kinds={self.kind_counts})"
        )


# ---------------------------------------------------------------------------
# stacked CFL time step
# ---------------------------------------------------------------------------
def compute_dt(grid, eos, cfl: float, ws=None) -> float:
    """Global CFL time step over all leaves, as one stacked reduction.

    Bit-identical to a per-block loop: the floors, the fused sound-speed
    expression (``flux.eos_sound_speed``) and the ``|v| + c`` combination
    are the same ufunc sequences applied to the same values, ``dx``/``dy``
    divide per leaf (they may differ in the last bit even within a level),
    and the max/min reductions are exact, hence order independent.
    """
    plan = grid.topology_plan()
    n = len(plan.slots)
    o = out_accessor(ws)

    def buf(name, shp):
        b = o(("dt", name), shp)
        return b if b is not None else np.empty(shp)

    prims = grid.stack(("dens", "velx", "vely", "pres"), plan.slots,
                       out=buf("prims", (4, n, grid.nxb, grid.nyb)), interior=True)
    dens, velx, vely, pres = prims
    dens_f = np.maximum(dens, eos.density_floor, out=dens)
    pres_f = np.maximum(pres, eos.pressure_floor, out=pres)
    cs = flux.eos_sound_speed(dens_f, pres_f, eos.gamma, ws, ("dt", "cs"))
    ax = np.abs(velx, out=velx)
    np.add(ax, cs, out=ax)
    ay = np.abs(vely, out=vely)
    np.add(ay, cs, out=ay)
    sx = np.max(ax, axis=(1, 2), out=buf("sx", (n,)))
    sy = np.max(ay, axis=(1, 2), out=buf("sy", (n,)))
    np.divide(sx, plan.dx, out=sx)
    np.divide(sy, plan.dy, out=sy)
    speed = np.maximum(sx, sy, out=sx)
    np.maximum(speed, 1e-30, out=speed)
    np.divide(1.0, speed, out=speed)
    return cfl * float(np.min(speed))


# ---------------------------------------------------------------------------
# edge padding (bubble-solver stencils)
# ---------------------------------------------------------------------------
def pad_edge(f: np.ndarray, n: int, ws=None, key=("pad",)) -> np.ndarray:
    """Scratch-buffered twin of ``np.pad(f, n, mode="edge")`` (2-D).

    Pure copies, so the result is bitwise identical to ``np.pad``.  The
    returned array is a workspace buffer when ``ws`` is given: it stays
    valid only until the next ``pad_edge`` call with the same ``key`` (the
    solver stencils consume the padding within one operator evaluation, and
    simultaneously-live paddings use distinct keys).
    """
    f = np.asarray(f)
    nx, ny = f.shape
    o = out_accessor(ws)
    out = o(key, (nx + 2 * n, ny + 2 * n), f.dtype)
    if out is None:
        out = np.empty((nx + 2 * n, ny + 2 * n), dtype=f.dtype)
    np.copyto(out[n:n + nx, n:n + ny], f)
    out[:n, n:n + ny] = f[0:1, :]
    out[n + nx:, n:n + ny] = f[nx - 1:nx, :]
    out[:, :n] = out[:, n:n + 1]
    out[:, n + ny:] = out[:, n + ny - 1:n + ny]
    return out
