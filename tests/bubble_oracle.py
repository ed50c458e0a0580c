"""Plain-numpy glue of the bubble solver — the test oracle.

The rising-bubble solver runs its context-free glue — phase indicators,
material fields, curvature, reinitialisation, buoyancy, surface tension,
the velocity assembly and the pressure projection — through the
scratch-buffered kernels of :mod:`repro.kernels.bubble` on every plane.
This module keeps the original plain-numpy bodies those kernels must
reproduce bit for bit: each ``np.where``/``np.roll``/``np.gradient``
expression as it was written, every result a fresh array.

Besides the functions, :func:`swapped` is a context manager that routes
``LevelSet``'s and ``PoissonSolver``'s glue methods and
``BubbleSolver._buoyancy``/``_surface_tension``/``step`` through this
oracle.  Together with ``plane="instrumented"`` (op-by-op contexts for
the advection, diffusion and level-set transport operators) it rebuilds
the classic op-by-op solver, so a whole bubble run can be diffed against
the fused one (``tools/check_plane_equivalence.py``,
``benchmarks/bench_kernels.py`` and the bubble-plane tests do).
"""
from __future__ import annotations

import contextlib
from typing import Optional, Tuple

import numpy as np
import scipy.sparse.linalg as spla

from repro.incomp.levelset import LevelSet
from repro.incomp.poisson import PoissonSolver
from repro.incomp.solver import BubbleSolver


# ---------------------------------------------------------------------------
# LevelSet: phase indicators, material properties, curvature, reinit
# ---------------------------------------------------------------------------
def heaviside(self, phi: Optional[np.ndarray] = None) -> np.ndarray:
    """Smoothed Heaviside H(phi): 1 in the gas, 0 in the liquid."""
    p = self.phi if phi is None else phi
    h = 0.5 * (1.0 + p / self.eps + np.sin(np.pi * p / self.eps) / np.pi)
    return np.clip(np.where(p > self.eps, 1.0, np.where(p < -self.eps, 0.0, h)), 0.0, 1.0)


def delta(self, phi: Optional[np.ndarray] = None) -> np.ndarray:
    """Smoothed interface delta function."""
    p = self.phi if phi is None else phi
    d = 0.5 / self.eps * (1.0 + np.cos(np.pi * p / self.eps))
    return np.where(np.abs(p) <= self.eps, d, 0.0)


def density(self, rho_liquid: float, rho_gas: float) -> np.ndarray:
    """Phase-weighted density field."""
    h = self.heaviside()
    return rho_liquid + (rho_gas - rho_liquid) * h


def viscosity(self, mu_liquid: float, mu_gas: float) -> np.ndarray:
    """Phase-weighted dynamic viscosity field."""
    h = self.heaviside()
    return mu_liquid + (mu_gas - mu_liquid) * h


def curvature(self) -> np.ndarray:
    """Interface curvature kappa = div(grad phi / |grad phi|) (central differences)."""
    phi = self.phi
    px = (np.roll(phi, -1, 0) - np.roll(phi, 1, 0)) / (2 * self.dx)
    py = (np.roll(phi, -1, 1) - np.roll(phi, 1, 1)) / (2 * self.dy)
    mag = np.sqrt(px ** 2 + py ** 2) + 1e-12
    nx, ny = px / mag, py / mag
    div = (np.roll(nx, -1, 0) - np.roll(nx, 1, 0)) / (2 * self.dx) + (
        np.roll(ny, -1, 1) - np.roll(ny, 1, 1)
    ) / (2 * self.dy)
    return div


def reinitialize(self, iterations: int = 10, cfl: float = 0.3) -> None:
    """Sussman-style PDE reinitialisation ``phi_tau = S(phi0)(1 - |grad phi|)``."""
    phi0 = self.phi.copy()
    sgn = phi0 / np.sqrt(phi0 ** 2 + max(self.dx, self.dy) ** 2)
    dtau = cfl * min(self.dx, self.dy)
    phi = self.phi
    for _ in range(iterations):
        dxm = (phi - np.roll(phi, 1, 0)) / self.dx
        dxp = (np.roll(phi, -1, 0) - phi) / self.dx
        dym = (phi - np.roll(phi, 1, 1)) / self.dy
        dyp = (np.roll(phi, -1, 1) - phi) / self.dy
        # Godunov Hamiltonian
        grad_pos = np.sqrt(
            np.maximum(np.maximum(dxm, 0.0) ** 2, np.minimum(dxp, 0.0) ** 2)
            + np.maximum(np.maximum(dym, 0.0) ** 2, np.minimum(dyp, 0.0) ** 2)
        )
        grad_neg = np.sqrt(
            np.maximum(np.minimum(dxm, 0.0) ** 2, np.maximum(dxp, 0.0) ** 2)
            + np.maximum(np.minimum(dym, 0.0) ** 2, np.maximum(dyp, 0.0) ** 2)
        )
        grad = np.where(phi0 > 0, grad_pos, grad_neg)
        phi = phi - dtau * sgn * (grad - 1.0)
    self.phi = phi


# ---------------------------------------------------------------------------
# PoissonSolver: right-hand-side staging and the pressure gradient
# ---------------------------------------------------------------------------
def poisson_solve(self, rhs: np.ndarray, ws=None) -> np.ndarray:
    """``PoissonSolver.solve`` without a workspace (``ws`` is ignored)."""
    if rhs.shape != (self.nx, self.ny):
        raise ValueError(f"expected rhs shape {(self.nx, self.ny)}, got {rhs.shape}")
    b = rhs.astype(np.float64)
    flat = b.reshape(-1)
    b -= b.mean()  # compatibility with the Neumann problem
    flat[0] = 0.0  # pinned cell
    if self._lu is None:
        self._lu = spla.splu(self._build_matrix().tocsc())
    p = self._lu.solve(flat)
    p = p.reshape(self.nx, self.ny)
    p -= p.mean()
    return p


def poisson_gradient(self, p: np.ndarray, ws=None) -> Tuple[np.ndarray, np.ndarray]:
    """Cell-centred pressure gradient (one-sided at the walls)."""
    gx = np.gradient(p, self.dx, axis=0)
    gy = np.gradient(p, self.dy, axis=1)
    return gx, gy


# ---------------------------------------------------------------------------
# BubbleSolver: forces and the step's assembly + projection
# ---------------------------------------------------------------------------
def buoyancy(self) -> np.ndarray:
    cfg = self.config
    rho = self.levelset.density(1.0, 1.0 / cfg.density_ratio)
    return cfg.gravity * (1.0 - rho)


def surface_tension(self) -> Tuple[np.ndarray, np.ndarray]:
    cfg = self.config
    if not cfg.surface_tension:
        zeros = np.zeros_like(self.pres)
        return zeros, zeros
    kappa = self.levelset.curvature()
    delta = self.levelset.delta()
    phi = self.levelset.phi
    gx = np.gradient(phi, cfg.dx, axis=0)
    gy = np.gradient(phi, cfg.dy, axis=1)
    mag = np.sqrt(gx ** 2 + gy ** 2) + 1e-12
    fx = cfg.sigma * kappa * delta * gx / mag
    fy = cfg.sigma * kappa * delta * gy / mag
    return fx, fy


def step(self, dt: float, advection_ctx=None, diffusion_ctx=None, truncate_mask=None) -> None:
    """``BubbleSolver.step`` with the velocity assembly and the projection
    written as fresh-array numpy expressions."""
    cfg = self.config
    self._pending_dt = dt
    adv_ctx = advection_ctx or self._full_ctx
    diff_ctx = diffusion_ctx or self._full_ctx

    mu = self.levelset.viscosity(cfg.nu_liquid, cfg.nu_liquid * cfg.viscosity_ratio / cfg.density_ratio)

    adv_u = self._maybe_blend(lambda c: self.advection_term(self.velx, c, "u"), adv_ctx, truncate_mask)
    adv_v = self._maybe_blend(lambda c: self.advection_term(self.vely, c, "v"), adv_ctx, truncate_mask)
    diff_u = self._maybe_blend(lambda c: self.diffusion_term(self.velx, mu, c, "u"), diff_ctx, truncate_mask)
    diff_v = self._maybe_blend(lambda c: self.diffusion_term(self.vely, mu, c, "v"), diff_ctx, truncate_mask)

    fx_st, fy_st = self._surface_tension()
    buoy = self._buoyancy()

    ustar = self.velx + dt * (-adv_u + diff_u + fx_st)
    vstar = self.vely + dt * (-adv_v + diff_v + fy_st + buoy)

    self.velx, self.vely = ustar, vstar
    self._apply_velocity_bcs()

    # projection: make the velocity field divergence free
    div = np.gradient(self.velx, cfg.dx, axis=0) + np.gradient(self.vely, cfg.dy, axis=1)
    self.pres = self.poisson.solve(div / dt)
    gx, gy = self.poisson.gradient(self.pres)
    self.velx = self.velx - dt * gx
    self.vely = self.vely - dt * gy
    self._apply_velocity_bcs()

    # interface transport (advection operator: truncation target)
    phi_op = lambda c: self._advect_levelset(c)
    new_phi = self._maybe_blend(phi_op, adv_ctx, truncate_mask)
    self.levelset.phi = new_phi
    self.step_count += 1
    self.time += dt
    if cfg.reinit_interval and self.step_count % cfg.reinit_interval == 0:
        self.levelset.reinitialize(iterations=5)

    self._last_dt = dt


#: (owner, attribute, oracle name) of every site :func:`swapped` routes here
SITES = (
    (LevelSet, "heaviside", "heaviside"),
    (LevelSet, "delta", "delta"),
    (LevelSet, "density", "density"),
    (LevelSet, "viscosity", "viscosity"),
    (LevelSet, "curvature", "curvature"),
    (LevelSet, "reinitialize", "reinitialize"),
    (PoissonSolver, "solve", "poisson_solve"),
    (PoissonSolver, "gradient", "poisson_gradient"),
    (BubbleSolver, "_buoyancy", "buoyancy"),
    (BubbleSolver, "_surface_tension", "surface_tension"),
    (BubbleSolver, "step", "step"),
)


@contextlib.contextmanager
def swapped():
    """Run the bubble solver's context-free glue through this oracle while
    the context is active (the oracle functions are looked up on entry, so
    a test may patch one before entering)."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in SITES]
    for owner, attr, name in SITES:
        setattr(owner, attr, globals()[name])
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
