"""Incompressible multiphase solver for the rising-bubble benchmark.

This is the reproduction of the Flash-X incompressible Navier–Stokes +
level-set configuration used for the Bubble experiment (Figure 1):

* fractional-step (projection) method for the velocity field,
* WENO5 upwind-biased advection operators (the paper's truncation target),
* second-order central-difference diffusion operators (the other target),
* level-set interface tracking with reinitialisation,
* an interface-distance refinement-level map standing in for the AMR
  hierarchy, so the M − l cutoff truncation strategies apply per cell.

Simplifications relative to Flash-X (documented in DESIGN.md): a uniform
collocated grid instead of block AMR, a Boussinesq-style buoyancy force with
a constant-density projection instead of the full variable-density
ghost-fluid projection, and continuum-surface-force surface tension.  These
keep the code small and fast while preserving what the experiment measures:
how truncating the advection/diffusion operators at different mantissa
widths and interface-distance cutoffs changes the interface evolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..hydro.reconstruction import _weno5_edge
from ..kernels import FPContext, FullPrecisionContext, select_context
from ..kernels import bubble as kbubble
from ..kernels.fused import weno5_edge as _fused_weno5_edge
from ..kernels.ledger import replay_fused
from ..kernels.trunc import plane_rounder
from ..kernels.grid import pad_edge
from ..kernels.scratch import bubble_plane_enabled, make_workspace
from .levelset import LevelSet, circle_level_set, upwind_derivative
from .poisson import PoissonSolver

__all__ = ["BubbleConfig", "BubbleSolver"]


@dataclass
class BubbleConfig:
    """Physical and numerical parameters of the rising-bubble benchmark.

    Defaults follow Section 4.2 of the paper: density ratio 1000, viscosity
    ratio 100, Fr = 1, We = 125, with the Reynolds number selectable
    (Re = 35 for the spin-up phase, Re = 3500 for the truncation study).
    """

    nx: int = 48
    ny: int = 72
    xlim: Tuple[float, float] = (-1.5, 1.5)
    ylim: Tuple[float, float] = (-1.5, 3.0)
    reynolds: float = 3500.0
    froude: float = 1.0
    weber: float = 125.0
    density_ratio: float = 1000.0
    viscosity_ratio: float = 100.0
    bubble_center: Tuple[float, float] = (0.0, 0.0)
    bubble_diameter: float = 1.0
    advection_scheme: str = "weno5"  # or "upwind"
    surface_tension: bool = True
    reinit_interval: int = 5
    cfl: float = 0.25

    @property
    def dx(self) -> float:
        return (self.xlim[1] - self.xlim[0]) / self.nx

    @property
    def dy(self) -> float:
        return (self.ylim[1] - self.ylim[0]) / self.ny

    @property
    def gravity(self) -> float:
        return 1.0 / self.froude ** 2

    @property
    def sigma(self) -> float:
        return 1.0 / self.weber

    @property
    def nu_liquid(self) -> float:
        return 1.0 / self.reynolds


class BubbleSolver:
    """Fractional-step multiphase solver on a uniform collocated grid.

    ``plane`` selects the kernel plane of the solver's *internal*
    full-precision evaluations (spin-up, the untruncated side of blended
    cells): the default ``"auto"`` rides the fused fast plane — the
    internal context records nothing, so the substitution is a pure,
    bit-identical win — while ``"instrumented"`` keeps every operation on
    the classic op-by-op plane (the diagnostic escape hatch).  ``poisson``
    shares the pressure solver (and its factorisation) of another solver
    on the same grid.
    """

    def __init__(self, config: Optional[BubbleConfig] = None, plane: str = "auto",
                 poisson: Optional[PoissonSolver] = None) -> None:
        self.config = config or BubbleConfig()
        cfg = self.config
        x = cfg.xlim[0] + (np.arange(cfg.nx) + 0.5) * cfg.dx
        y = cfg.ylim[0] + (np.arange(cfg.ny) + 0.5) * cfg.dy
        self.x, self.y = np.meshgrid(x, y, indexing="ij")
        self.velx = np.zeros((cfg.nx, cfg.ny))
        self.vely = np.zeros((cfg.nx, cfg.ny))
        self.pres = np.zeros((cfg.nx, cfg.ny))
        phi0 = circle_level_set(self.x, self.y, cfg.bubble_center, cfg.bubble_diameter / 2.0)
        self.levelset = LevelSet(phi0, cfg.dx, cfg.dy)
        if poisson is None:
            poisson = PoissonSolver(cfg.nx, cfg.ny, cfg.dx, cfg.dy)
        self.poisson = poisson
        self.time = 0.0
        self.step_count = 0
        # non-counting by construction, so "auto" substitutes the fused
        # fast plane (bit-identical) and "instrumented" keeps the op-by-op
        # path
        self._full_ctx = select_context(
            FullPrecisionContext(count_ops=False, track_memory=False), plane
        )
        # preallocated scratch for the fused WENO5 edge evaluations
        # (bit-identical; dropped on pickle/deepcopy)
        self._workspace = make_workspace()
        # the fused bubble plane: whole-operator twins from
        # repro.kernels.bubble replace the op-by-op paths — context-bearing
        # operators only for fused contexts, context-free glue (forces,
        # projection, reinit, material fields) on every plane
        # (bit-identical; RAPTOR_FAST_NO_BUBBLE restores the classic paths)
        self._fused_bubble = bubble_plane_enabled()
        if self._fused_bubble:
            self.levelset.enable_fused(self._workspace)

    def _pad(self, f: np.ndarray, n: int, key: str = "f") -> np.ndarray:
        """Edge-replicated padding of ``f`` by ``n`` cells.

        The padding lands in a workspace buffer keyed per call site
        (``key``), so simultaneously-live paddings (e.g. the two in
        :meth:`diffusion_term`) never alias; each buffer is only valid until
        the same site pads again, which the operators satisfy by consuming
        the padding within one evaluation.  Bitwise ``np.pad(f, n,
        mode="edge")``.
        """
        return pad_edge(f, n, ws=self._workspace, key=("pad", key))

    def _rounder(self, ctx: FPContext):
        """The rounder the fused bubble operators run with under ``ctx``
        (:func:`~repro.kernels.trunc.plane_rounder`), or None when ``ctx``
        evaluates op by op or the fused bubble plane is off."""
        return plane_rounder(ctx, self._workspace) if self._fused_bubble else None

    # ------------------------------------------------------------------
    # differential operators (these are the truncation targets)
    # ------------------------------------------------------------------
    def _weno5_derivative(self, f: np.ndarray, vel: np.ndarray, spacing: float, axis: int, ctx: FPContext, which: str = "f"):
        """Upwind-biased WENO5 approximation of d f / d axis.

        ``which`` namespaces the scratch keys per call site (the u- and
        v-momentum derivatives are simultaneously live in :meth:`step`).
        On the fused bubble plane fused contexts run the whole-operator
        twins of :mod:`repro.kernels.bubble`; otherwise only the edge
        reconstruction is fused and the selection/difference ops go through
        ``ctx`` (which keeps instrumented counters byte-identical).
        """
        padded = self._pad(f, 3, "weno")
        q = plane_rounder(ctx, self._workspace)
        if q is not None and self._fused_bubble:
            return kbubble.weno5_derivative(
                padded, vel, spacing, axis, ws=self._workspace, key=("adv", which, axis), q=q
            )

        def cells(offset):
            sl = [slice(3, -3), slice(3, -3)]
            sl[axis] = slice(3 + offset, padded.shape[axis] - 3 + offset)
            return padded[tuple(sl)]

        um3, um2, um1 = cells(-3), cells(-2), cells(-1)
        u0, up1, up2, up3 = cells(0), cells(1), cells(2), cells(3)

        if q is not None:
            # each call site gets its own scratch key: all four edge values
            # stay live until the upwind selection below
            ws = self._workspace
            edge = lambda a, b, c, d, e, k: _fused_weno5_edge(
                a, b, c, d, e, ws=ws, key=("adv", axis, k), q=q
            )
        else:
            edge = lambda a, b, c, d, e, k: _weno5_edge(a, b, c, d, e, ctx)

        # face values at i-1/2 and i+1/2, biased by the wind direction
        left_minus = edge(um3, um2, um1, u0, up1, "lm")   # from the left at i-1/2
        left_plus = edge(um2, um1, u0, up1, up2, "lp")    # from the left at i+1/2
        right_minus = edge(up1, u0, um1, um2, um3, "rm")  # from the right at i-1/2
        right_plus = edge(up2, up1, u0, um1, um2, "rp")   # from the right at i+1/2

        upwind = ctx.asplain(vel) > 0.0
        f_minus = ctx.where(upwind, left_minus, right_minus)
        f_plus = ctx.where(upwind, left_plus, right_plus)
        return ctx.mul(
            ctx.sub(f_plus, f_minus, "adv:face_diff"),
            ctx.const(1.0 / spacing),
            "adv:weno_deriv",
        )

    def _upwind_derivative(self, f: np.ndarray, vel: np.ndarray, spacing: float, axis: int, ctx: FPContext, which: str = "f"):
        padded = self._pad(f, 1, "upwind")
        q = self._rounder(ctx)
        if q is not None:
            return kbubble.upwind_derivative(
                f, vel, spacing, axis, "edge", padded,
                ws=self._workspace, key=("uadv", which, axis), q=q,
            )
        return upwind_derivative(f, vel, spacing, axis, ctx, boundary="edge", padded=padded)

    def _counted(self, key: tuple, ctx: FPContext, run: Callable[[FPContext], object]) -> FPContext:
        """The context an operator evaluates with.

        On the fused bubble plane a counted context (``ctx.ledger``) is
        charged the operator's op/byte ledger — every op runs on the whole
        grid, so the counters depend only on ``key`` (operator, scheme,
        grid shape, call site) — and swapped for its non-counting fused
        twin, which computes the bits.  A miss records the ledger by
        running the operator once op by op (``run``).
        """
        if self._fused_bubble and ctx.ledger:
            return replay_fused(("bubble",) + key, ctx, run)
        return ctx

    def advection_term(self, f: np.ndarray, ctx: FPContext, which: str = "f") -> np.ndarray:
        """u . grad(f) with the configured scheme, through ``ctx``.

        On the fused bubble plane the WENO5 scheme batches both axis
        derivatives into one stacked edge reconstruction
        (:func:`repro.kernels.bubble.weno5_derivative_pair`) — bit-identical
        per batch row to the per-axis twins."""
        ctx = self._counted(
            ("advection", self.config.advection_scheme, f.shape, which), ctx,
            lambda twin: self.advection_term(f, twin, which),
        )
        q = self._rounder(ctx)
        if q is not None and self.config.advection_scheme == "weno5":
            cfg = self.config
            ws = self._workspace
            padded = self._pad(f, 3, "weno")
            fx, fy = kbubble.weno5_derivative_pair(
                padded, self.velx, self.vely, cfg.dx, cfg.dy, ws=ws, key=("adv", which), q=q,
            )
            return kbubble.advection_term(
                fx, fy, self.velx, self.vely, ws=ws, key=("adv", which), q=q
            )
        deriv = (
            self._weno5_derivative
            if self.config.advection_scheme == "weno5"
            else self._upwind_derivative
        )
        fx = deriv(f, self.velx, self.config.dx, 0, ctx, which)
        fy = deriv(f, self.vely, self.config.dy, 1, ctx, which)
        if q is not None:
            return kbubble.advection_term(
                fx, fy, self.velx, self.vely, ws=self._workspace, key=("adv", which), q=q
            )
        out = ctx.add(
            ctx.mul(ctx.const(self.velx), fx, "adv:u_fx"),
            ctx.mul(ctx.const(self.vely), fy, "adv:v_fy"),
            "adv:total",
        )
        return ctx.asplain(out)

    def diffusion_term(self, f: np.ndarray, viscosity: np.ndarray, ctx: FPContext, which: str = "f") -> np.ndarray:
        """div(nu grad f) with second-order central differences, through ``ctx``."""
        ctx = self._counted(
            ("diffusion", f.shape, which), ctx,
            lambda twin: self.diffusion_term(f, viscosity, twin, which),
        )
        cfg = self.config
        fp = self._pad(f, 1, "diff_f")
        nup = self._pad(viscosity, 1, "diff_nu")
        q = self._rounder(ctx)
        if q is not None:
            return kbubble.diffusion_term(
                f, viscosity, fp, nup, cfg.dx, cfg.dy,
                ws=self._workspace, key=("diff", which), q=q,
            )

        def shifted(arr, di, dj):
            return arr[1 + di:arr.shape[0] - 1 + di, 1 + dj:arr.shape[1] - 1 + dj]

        out = ctx.zeros_like(f)
        for (di, dj, spacing) in ((1, 0, cfg.dx), (-1, 0, cfg.dx), (0, 1, cfg.dy), (0, -1, cfg.dy)):
            nu_face = ctx.mul(
                ctx.const(0.5),
                ctx.add(ctx.const(viscosity), ctx.const(shifted(nup, di, dj)), "diff:nu_sum"),
                "diff:nu_face",
            )
            grad = ctx.mul(
                ctx.sub(ctx.const(shifted(fp, di, dj)), ctx.const(f), "diff:df"),
                ctx.const(1.0 / spacing ** 2),
                "diff:grad",
            )
            out = ctx.add(out, ctx.mul(nu_face, grad, "diff:flux"), "diff:accum")
        return ctx.asplain(out)

    # ------------------------------------------------------------------
    # selective (per-cell) truncation support
    # ------------------------------------------------------------------
    def _maybe_blend(
        self,
        op: Callable[[FPContext], np.ndarray],
        ctx: FPContext,
        truncate_mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """Evaluate ``op`` under ``ctx``; where ``truncate_mask`` is False the
        full-precision evaluation is used instead (the per-cell analogue of
        the per-block M − l cutoff)."""
        truncated = op(ctx)
        if truncate_mask is None or not ctx.truncating:
            return truncated
        if truncate_mask.all():
            return truncated
        reference = op(self._full_ctx)
        return np.where(truncate_mask, truncated, reference)

    # ------------------------------------------------------------------
    # forces (full precision: not a truncation target in the paper)
    # ------------------------------------------------------------------
    def _buoyancy(self) -> np.ndarray:
        cfg = self.config
        if self._fused_bubble:
            ls = self.levelset
            return kbubble.buoyancy(
                ls.phi, ls.eps, cfg.gravity, 1.0 / cfg.density_ratio,
                ws=self._workspace, key=("buoy",),
            )
        rho = self.levelset.density(1.0, 1.0 / cfg.density_ratio)
        return cfg.gravity * (1.0 - rho)

    def _surface_tension(self) -> Tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        if not cfg.surface_tension:
            if self._fused_bubble and self._workspace is not None:
                zeros = self._workspace.out(("st", "zero"), self.pres.shape)
                zeros.fill(0.0)
            else:
                zeros = np.zeros_like(self.pres)
            return zeros, zeros
        if self._fused_bubble:
            ls = self.levelset
            return kbubble.surface_tension(
                ls.phi, ls.eps, cfg.sigma, cfg.dx, cfg.dy,
                ws=self._workspace, key=("st",),
            )
        kappa = self.levelset.curvature()
        delta = self.levelset.delta()
        phi = self.levelset.phi
        gx = np.gradient(phi, cfg.dx, axis=0)
        gy = np.gradient(phi, cfg.dy, axis=1)
        mag = np.sqrt(gx ** 2 + gy ** 2) + 1e-12
        fx = cfg.sigma * kappa * delta * gx / mag
        fy = cfg.sigma * kappa * delta * gy / mag
        return fx, fy

    # ------------------------------------------------------------------
    def stable_dt(self) -> float:
        cfg = self.config
        umax = float(np.max(np.abs(self.velx)) + np.max(np.abs(self.vely))) + 1e-6
        adv_dt = cfg.cfl * min(cfg.dx, cfg.dy) / umax
        visc = cfg.nu_liquid * max(1.0, cfg.viscosity_ratio / cfg.density_ratio)
        diff_dt = 0.2 * min(cfg.dx, cfg.dy) ** 2 / max(visc, 1e-12)
        grav_dt = cfg.cfl * np.sqrt(min(cfg.dx, cfg.dy) / max(cfg.gravity, 1e-12))
        return float(min(adv_dt, diff_dt, grav_dt))

    def _apply_velocity_bcs(self) -> None:
        # no-slip solid walls on all four sides
        for arr in (self.velx, self.vely):
            arr[0, :] = 0.0
            arr[-1, :] = 0.0
            arr[:, 0] = 0.0
            arr[:, -1] = 0.0

    # ------------------------------------------------------------------
    def step(
        self,
        dt: float,
        advection_ctx: Optional[FPContext] = None,
        diffusion_ctx: Optional[FPContext] = None,
        truncate_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Advance velocity, pressure and the interface by ``dt``.

        ``advection_ctx`` / ``diffusion_ctx`` control the precision of the
        two operator families (the paper truncates both); ``truncate_mask``
        optionally restricts truncation to the cells where it is True
        (the M − l interface-distance cutoff of Figure 1).
        """
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

        if self._fused_bubble:
            # fused glue, bit-identical to the expressions below: the
            # operator results are owned by this step (scratch buffers or
            # fresh blends), so the force/velocity assembly runs in place;
            # only ustar/vstar — the new state — are fresh allocations
            t = np.negative(adv_u, out=adv_u)
            t = np.add(t, diff_u, out=t)
            t = np.add(t, fx_st, out=t)
            t = np.multiply(dt, t, out=t)
            ustar = np.add(self.velx, t)
            t = np.negative(adv_v, out=adv_v)
            t = np.add(t, diff_v, out=t)
            t = np.add(t, fy_st, out=t)
            t = np.add(t, buoy, out=t)
            t = np.multiply(dt, t, out=t)
            vstar = np.add(self.vely, t)
        else:
            ustar = self.velx + dt * (-adv_u + diff_u + fx_st)
            vstar = self.vely + dt * (-adv_v + diff_v + fy_st + buoy)

        self.velx, self.vely = ustar, vstar
        self._apply_velocity_bcs()

        # projection: make the velocity field divergence free
        if self._fused_bubble:
            ws = self._workspace
            ga = kbubble.gradient_axis(self.velx, cfg.dx, 0, ws=ws, key=("proj", "dx"))
            gb = kbubble.gradient_axis(self.vely, cfg.dy, 1, ws=ws, key=("proj", "dy"))
            div = np.add(ga, gb, out=ga)
            div = np.divide(div, dt, out=div)
            self.pres = self.poisson.solve(div, ws=ws)
            gx, gy = self.poisson.gradient(self.pres, ws=ws)
            # velx/vely are the fresh ustar/vstar, so the correction may
            # run in place
            t = np.multiply(dt, gx, out=gx)
            np.subtract(self.velx, t, out=self.velx)
            t = np.multiply(dt, gy, out=gy)
            np.subtract(self.vely, t, out=self.vely)
        else:
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

    def _advect_levelset(self, ctx: FPContext) -> np.ndarray:
        ctx = self._counted(("levelset", self.levelset.phi.shape), ctx, self._advect_levelset)
        cfg = self.config
        q = self._rounder(ctx)
        if q is not None:
            # the twin reads phi and returns a fresh array, so the defensive
            # LevelSet copy of the op-by-op path is unnecessary
            return kbubble.levelset_advect(
                self.levelset.phi, self.velx, self.vely, self._pending_dt,
                cfg.dx, cfg.dy, ws=self._workspace, key=("ls", "adv"), q=q,
            )
        ls = LevelSet(self.levelset.phi, cfg.dx, cfg.dy)
        ls.advect(self.velx, self.vely, self._pending_dt, ctx)
        return ls.phi

    # ------------------------------------------------------------------
    def run(
        self,
        t_end: float,
        advection_ctx: Optional[FPContext] = None,
        diffusion_ctx: Optional[FPContext] = None,
        truncate_mask_fn: Optional[Callable[["BubbleSolver"], np.ndarray]] = None,
        fixed_dt: Optional[float] = None,
        max_steps: int = 100000,
        callback: Optional[Callable[["BubbleSolver"], None]] = None,
    ) -> Dict[str, float]:
        """Advance the simulation to ``t_end`` (relative to the current time)."""
        target = self.time + t_end
        steps = 0
        while self.time < target - 1e-12 and steps < max_steps:
            dt = fixed_dt if fixed_dt is not None else self.stable_dt()
            dt = min(dt, target - self.time)
            mask = truncate_mask_fn(self) if truncate_mask_fn is not None else None
            self._pending_dt = dt
            self.step(dt, advection_ctx, diffusion_ctx, mask)
            steps += 1
            if callback is not None:
                callback(self)
        return {"steps": float(steps), "time": float(self.time)}

    # ------------------------------------------------------------------
    # diagnostics used by the Figure 1 benchmark
    # ------------------------------------------------------------------
    def interface_mask(self) -> np.ndarray:
        return self.levelset.interface_contour_mask()

    def gas_volume(self) -> float:
        return self.levelset.volume(self.config.dx * self.config.dy)

    def bubble_centroid(self) -> Tuple[float, float]:
        h = self.levelset.heaviside()
        total = float(np.sum(h)) + 1e-300
        return float(np.sum(h * self.x) / total), float(np.sum(h * self.y) / total)

    def interface_fragment_count(self) -> int:
        """Number of disconnected gas regions (bubble splitting diagnostic)."""
        gas = self.levelset.phi > 0.0
        visited = np.zeros_like(gas, dtype=bool)
        count = 0
        nx, ny = gas.shape
        for i in range(nx):
            for j in range(ny):
                if gas[i, j] and not visited[i, j]:
                    count += 1
                    stack = [(i, j)]
                    visited[i, j] = True
                    while stack:
                        ci, cj = stack.pop()
                        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                            ni, nj = ci + di, cj + dj
                            if 0 <= ni < nx and 0 <= nj < ny and gas[ni, nj] and not visited[ni, nj]:
                                visited[ni, nj] = True
                                stack.append((ni, nj))
        return count
