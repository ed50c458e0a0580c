"""AMR blocks.

Flash-X (via PARAMESH/AmReX) divides the domain into blocks organised in an
octree: every block holds the same number of cells, blocks one level finer
are half the physical size in each dimension, and the solution lives on leaf
blocks.  This module provides the 2-D block used by :mod:`repro.amr.grid`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

__all__ = ["BlockKey", "Block"]

#: (level, ix, iy) — level starts at 1 for root blocks; (ix, iy) index the
#: block within the uniform block-grid of its level.
BlockKey = Tuple[int, int, int]


@dataclass
class Block:
    """One AMR block: a ``nxb x nyb`` patch of cells plus guard cells.

    Data arrays are stored with shape ``(nxb + 2*ng, nyb + 2*ng)`` and are
    indexed ``[i, j]`` with ``i`` along x and ``j`` along y; the interior
    occupies ``[ng:-ng, ng:-ng]``.

    A leaf of an :class:`~repro.amr.grid.AMRGrid` owns no arrays: ``slot``
    is its index in the grid's block store and ``data[name]`` is the view
    ``unk[row(name), slot]``.  A standalone block (``slot`` is ``None``)
    gets its own arrays from :meth:`allocate`.
    """

    key: BlockKey
    nxb: int
    nyb: int
    ng: int
    xlo: float
    xhi: float
    ylo: float
    yhi: float
    data: Dict[str, np.ndarray] = field(default_factory=dict)
    slot: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        return self.key[0]

    @property
    def ix(self) -> int:
        return self.key[1]

    @property
    def iy(self) -> int:
        return self.key[2]

    @property
    def dx(self) -> float:
        return (self.xhi - self.xlo) / self.nxb

    @property
    def dy(self) -> float:
        return (self.yhi - self.ylo) / self.nyb

    @property
    def shape_with_guards(self) -> Tuple[int, int]:
        return (self.nxb + 2 * self.ng, self.nyb + 2 * self.ng)

    @property
    def interior(self) -> Tuple[slice, slice]:
        """Slices selecting the interior (non-guard) cells."""
        return (slice(self.ng, self.ng + self.nxb), slice(self.ng, self.ng + self.nyb))

    # ------------------------------------------------------------------
    def allocate(self, variables: Iterable[str]) -> None:
        """Allocate zero-filled storage (with guard cells) for ``variables``."""
        for name in variables:
            if name not in self.data:
                self.data[name] = np.zeros(self.shape_with_guards, dtype=np.float64)

    def interior_view(self, name: str) -> np.ndarray:
        """Writable view of the interior cells of a variable."""
        si, sj = self.interior
        return self.data[name][si, sj]

    def set_interior(self, name: str, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.nxb, self.nyb):
            raise ValueError(
                f"expected interior shape {(self.nxb, self.nyb)}, got {values.shape}"
            )
        self.interior_view(name)[...] = values

    # ------------------------------------------------------------------
    def cell_centers(self, include_guards: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """1-D arrays of x and y cell-centre coordinates."""
        if include_guards:
            i = np.arange(-self.ng, self.nxb + self.ng)
            j = np.arange(-self.ng, self.nyb + self.ng)
        else:
            i = np.arange(self.nxb)
            j = np.arange(self.nyb)
        x = self.xlo + (i + 0.5) * self.dx
        y = self.ylo + (j + 0.5) * self.dy
        return x, y

    def cell_mesh(self, include_guards: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """2-D meshgrid (indexing='ij') of cell-centre coordinates."""
        x, y = self.cell_centers(include_guards)
        return np.meshgrid(x, y, indexing="ij")

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def integral(self, name: str) -> float:
        """Volume integral of a variable over the block interior."""
        return float(np.sum(self.interior_view(name)) * self.cell_area)

    # ------------------------------------------------------------------
    def child_keys(self) -> Tuple[BlockKey, BlockKey, BlockKey, BlockKey]:
        """Keys of the four children this block would have if refined."""
        level, ix, iy = self.key
        return (
            (level + 1, 2 * ix, 2 * iy),
            (level + 1, 2 * ix + 1, 2 * iy),
            (level + 1, 2 * ix, 2 * iy + 1),
            (level + 1, 2 * ix + 1, 2 * iy + 1),
        )

    def parent_key(self) -> BlockKey:
        """Key of the parent block (root blocks raise)."""
        level, ix, iy = self.key
        if level <= 1:
            raise ValueError("root blocks have no parent")
        return (level - 1, ix // 2, iy // 2)

    def sibling_keys(self) -> Tuple[BlockKey, ...]:
        """Keys of the 4 blocks (including this one) sharing this block's parent."""
        level, ix, iy = self.key
        bx, by = (ix // 2) * 2, (iy // 2) * 2
        return (
            (level, bx, by),
            (level, bx + 1, by),
            (level, bx, by + 1),
            (level, bx + 1, by + 1),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Block(level={self.level}, ix={self.ix}, iy={self.iy}, "
            f"x=[{self.xlo:.3g},{self.xhi:.3g}], y=[{self.ylo:.3g},{self.yhi:.3g}])"
        )
