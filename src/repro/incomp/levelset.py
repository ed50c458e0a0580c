"""Level-set interface tracking for the multiphase (Bubble) solver.

The Bubble workload tracks the air–water interface with a level-set function
phi: ``phi > 0`` in the gas phase, ``phi < 0`` in the liquid, ``phi = 0`` on
the interface.  This module provides:

* initialisation of a circular bubble,
* smoothed Heaviside / delta functions and phase-dependent material
  properties (density, viscosity),
* upwind (WENO-style) advection of phi through a numerics context so the
  advection operator can be truncated,
* PDE-based reinitialisation that restores the signed-distance property,
* the interface-distance-based refinement-level map that plays the role of
  the AMR hierarchy "centred around the interface" for the selective
  (M − l cutoff) truncation strategies of Figure 1.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.opmode import FPContext, FullPrecisionContext
from ..kernels import bubble as kbubble
from ..kernels.scratch import Workspace

__all__ = ["LevelSet", "circle_level_set", "interface_level_map", "upwind_derivative"]


def upwind_derivative(
    f,
    velocity,
    spacing: float,
    axis: int,
    ctx: FPContext,
    boundary: str = "wrap",
    padded: Optional[np.ndarray] = None,
):
    """First-order upwind derivative of ``f`` along ``axis`` chosen by the
    sign of ``velocity`` — the single op-by-op implementation shared by the
    level-set transport (``boundary="wrap"``: periodic ``np.roll``
    neighbours) and the momentum stencil of the bubble solver
    (``boundary="edge"``: neighbours sliced from a caller-supplied
    edge padding of ``f``).

    Forward and backward differences are independent single-op
    computations, so the boundary mode is the *only* bitwise difference
    between the two historical call sites.
    """
    if boundary == "edge":
        sl_m = [slice(1, -1), slice(1, -1)]
        sl_p = [slice(1, -1), slice(1, -1)]
        sl_m[axis] = slice(0, -2)
        sl_p[axis] = slice(2, None)
        fm = padded[tuple(sl_m)]
        fp = padded[tuple(sl_p)]
    elif boundary == "wrap":
        plain = ctx.asplain(f)
        fm = np.roll(plain, 1, axis)
        fp = np.roll(plain, -1, axis)
    else:
        raise ValueError(f"unknown boundary mode {boundary!r}")
    inv = ctx.const(1.0 / spacing)
    bwd = ctx.mul(ctx.sub(f, fm, "adv:bwd_diff"), inv, "adv:bwd")
    fwd = ctx.mul(ctx.sub(fp, f, "adv:fwd_diff"), inv, "adv:fwd")
    return ctx.where(ctx.asplain(velocity) > 0.0, bwd, fwd)


def circle_level_set(x: np.ndarray, y: np.ndarray, center: Tuple[float, float], radius: float) -> np.ndarray:
    """Signed distance to a circle: positive inside (gas), negative outside."""
    return radius - np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2)


def interface_level_map(phi: np.ndarray, dx: float, max_level: int, band_cells: float = 4.0) -> np.ndarray:
    """Pseudo-AMR refinement level for every cell, derived from the distance
    to the interface.

    Cells within ``band_cells * dx`` of the interface get ``max_level``; each
    doubling of the distance drops one level, down to level 1.  This mirrors
    how Flash-X's AMR concentrates the finest blocks around the interface and
    gives the Bubble experiment its M − l truncation cutoffs.
    """
    dist = np.abs(phi)
    levels = np.ones(phi.shape, dtype=np.int64)
    for level in range(max_level, 0, -1):
        width = band_cells * dx * 2.0 ** (max_level - level)
        levels = np.where((dist <= width) & (levels < level), level, levels)
    return levels


class LevelSet:
    """A level-set field on a uniform collocated grid.

    The context-free operators (phase indicators, material fields,
    curvature, reinitialisation) are the scratch-buffered kernels of
    :mod:`repro.kernels.bubble`; ``ws`` is the owning solver's
    :class:`~repro.kernels.scratch.Workspace` (``None`` allocates fresh
    arrays, same bits).  Transport runs op by op through its context.
    """

    def __init__(
        self,
        phi: np.ndarray,
        dx: float,
        dy: float,
        smoothing_cells: float = 1.5,
        ws: Optional[Workspace] = None,
    ) -> None:
        self.phi = np.asarray(phi, dtype=np.float64).copy()
        self.dx = float(dx)
        self.dy = float(dy)
        self.eps = smoothing_cells * max(dx, dy)
        self._ws = ws

    # ------------------------------------------------------------------
    # phase indicators and material properties
    # ------------------------------------------------------------------
    def heaviside(self, phi: Optional[np.ndarray] = None) -> np.ndarray:
        """Smoothed Heaviside H(phi): 1 in the gas, 0 in the liquid."""
        p = self.phi if phi is None else phi
        return kbubble.heaviside(p, self.eps, ws=self._ws, key=("ls", "hv"))

    def delta(self, phi: Optional[np.ndarray] = None) -> np.ndarray:
        """Smoothed interface delta function."""
        p = self.phi if phi is None else phi
        return kbubble.delta(p, self.eps, ws=self._ws, key=("ls", "dl"))

    def density(self, rho_liquid: float, rho_gas: float) -> np.ndarray:
        """Phase-weighted density field."""
        return kbubble.material_field(
            self.phi, self.eps, rho_liquid, rho_gas, ws=self._ws, key=("ls", "rho")
        )

    def viscosity(self, mu_liquid: float, mu_gas: float) -> np.ndarray:
        """Phase-weighted dynamic viscosity field."""
        return kbubble.material_field(
            self.phi, self.eps, mu_liquid, mu_gas, ws=self._ws, key=("ls", "mu")
        )

    def volume(self, cell_area: float) -> float:
        """Gas-phase volume (area in 2-D)."""
        return float(np.sum(self.heaviside()) * cell_area)

    def interface_contour_mask(self, width: float = 0.0) -> np.ndarray:
        """Cells whose |phi| is below ``width`` (default: one cell size)."""
        w = width if width > 0 else max(self.dx, self.dy)
        return np.abs(self.phi) <= w

    def curvature(self) -> np.ndarray:
        """Interface curvature kappa = div(grad phi / |grad phi|) (central differences)."""
        return kbubble.curvature(self.phi, self.dx, self.dy, ws=self._ws, key=("ls", "curv"))

    # ------------------------------------------------------------------
    # advection (truncatable)
    # ------------------------------------------------------------------
    @staticmethod
    def _upwind_derivative(phi, velocity, spacing: float, axis: int, ctx: FPContext):
        """First-order upwind derivative of phi along ``axis`` chosen by the
        sign of ``velocity`` (robust, monotone; the WENO5 machinery of the
        hydro solver is reused for the momentum advection instead, where the
        higher order matters more for the truncation study).  Delegates to
        the shared :func:`upwind_derivative` in its periodic-wrap mode."""
        return upwind_derivative(phi, velocity, spacing, axis, ctx, boundary="wrap")

    def advect(
        self,
        velx: np.ndarray,
        vely: np.ndarray,
        dt: float,
        ctx: Optional[FPContext] = None,
    ) -> None:
        """Advance phi by one advection step ``phi_t + u . grad(phi) = 0``,
        op by op through ``ctx`` (the bubble solver runs the fused twin)."""
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        phi = ctx.const(self.phi)
        dpx = self._upwind_derivative(phi, velx, self.dx, 0, ctx)
        dpy = self._upwind_derivative(phi, vely, self.dy, 1, ctx)
        change = ctx.add(
            ctx.mul(velx, dpx, "adv:u_dpx"),
            ctx.mul(vely, dpy, "adv:v_dpy"),
            "adv:u_grad_phi",
        )
        new_phi = ctx.sub(phi, ctx.mul(ctx.const(dt), change, "adv:dt_change"), "adv:new_phi")
        self.phi = ctx.asplain(new_phi)

    # ------------------------------------------------------------------
    # reinitialisation (full precision: auxiliary numerics, not physics flux)
    # ------------------------------------------------------------------
    def reinitialize(self, iterations: int = 10, cfl: float = 0.3) -> None:
        """Restore the signed-distance property with the standard
        Sussman-style PDE reinitialisation ``phi_tau = S(phi0)(1 - |grad phi|)``."""
        self.phi = kbubble.reinitialize(
            self.phi, self.dx, self.dy, iterations, cfl, ws=self._ws, key=("ls", "reinit")
        )

    # ------------------------------------------------------------------
    def level_map(self, max_level: int, band_cells: float = 4.0) -> np.ndarray:
        """Interface-distance pseudo-AMR level for every cell."""
        return interface_level_map(self.phi, max(self.dx, self.dy), max_level, band_cells)
