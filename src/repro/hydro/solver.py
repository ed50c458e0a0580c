"""Unsplit finite-volume compressible hydrodynamics solver (Spark analogue).

The solver advances the 2-D compressible Euler equations on the AMR grid of
:mod:`repro.amr`.  It is deliberately organised in the same modular stages as
Flash-X's Spark solver, because the mem-mode debugging experiment (Table 2)
fences off individual stages:

* ``recon``   — interface-state reconstruction (:mod:`repro.hydro.reconstruction`),
* ``riemann`` — approximate Riemann solver (:mod:`repro.hydro.riemann`),
* ``update``  — flux divergence and conserved-variable update.

Each stage performs its floating-point work through a numerics context
obtained from a *context provider*, which is how all truncation policies
(global, AMR cutoff, module-selective, mem-mode) plug in without the solver
knowing anything about them.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..amr.grid import AMRGrid
from ..kernels import FPContext, FullPrecisionContext, ShadowContext
from ..kernels import flux as fused_flux
from ..kernels import grid as grid_kernels
from ..kernels.ledger import OpLedger, fused_kind, fused_rounder, ledger_for
from ..kernels.scratch import Workspace, buffer, make_workspace
from .eos import GammaLawEOS
from .reconstruction import reconstruct
from .riemann import SOLVERS

__all__ = ["HydroSolver", "ContextProvider", "default_context_provider"]

#: signature of the context provider: (module, level, max_level) -> FPContext
ContextProvider = Callable[[str, Optional[int], Optional[int]], FPContext]

#: primitive variables, in the row order of the fused pipelines' stacks
PRIMITIVE_VARS = fused_flux.PRIMITIVES


def default_context_provider(module: str, level=None, max_level=None) -> FPContext:
    """Full-precision provider used when no truncation policy is active."""
    return FullPrecisionContext(module=module)


class HydroSolver:
    """Compressible Euler solver on block-AMR grids.

    Parameters
    ----------
    eos:
        Gamma-law EOS (defaults to gamma = 1.4).
    reconstruction:
        "pcm", "plm" (default) or "weno5".
    riemann:
        "hll", "hlle" or "hllc" (default).
    cfl:
        CFL number for :meth:`compute_dt`.
    rk_stages:
        1 (forward Euler) or 2 (SSP-RK2, default).
    gravity:
        Constant body acceleration ``(gx, gy)``; a source term
        ``d(rho v)/dt = rho g``, ``dE/dt = rho v . g`` is applied through the
        update-stage numerics context (needed by the Rayleigh–Taylor
        workload).  The default ``(0, 0)`` adds no operations, so
        gravity-free runs are bit-identical to the pre-gravity solver.
    module:
        Module label under which the solver requests its numerics contexts
        ("hydro" by convention; policies match on it).
    scratch:
        Use a preallocated :class:`~repro.kernels.scratch.Workspace` for the
        fused fast-plane pipeline (bit-identical; ``None`` follows the
        ``RAPTOR_FAST_NO_SCRATCH`` environment switch, default on).
    batch_blocks:
        On the fused planes, stack the blocks that share a context
        signature — across AMR levels, each with its own ``dx``/``dy`` —
        into a single batched kernel invocation per substep
        (bit-identical; ``False`` advances one block at a time, the
        per-block oracle of the tests).
    """

    def __init__(
        self,
        eos: Optional[GammaLawEOS] = None,
        reconstruction: str = "plm",
        riemann: str = "hllc",
        cfl: float = 0.4,
        rk_stages: int = 2,
        gravity: Tuple[float, float] = (0.0, 0.0),
        module: str = "hydro",
        scratch: Optional[bool] = None,
        batch_blocks: bool = True,
    ) -> None:
        if riemann not in SOLVERS:
            raise ValueError(f"unknown riemann solver {riemann!r}")
        if rk_stages not in (1, 2):
            raise ValueError("rk_stages must be 1 or 2")
        self.eos = eos if eos is not None else GammaLawEOS()
        self.reconstruction = reconstruction
        self.riemann = riemann
        self.cfl = float(cfl)
        self.rk_stages = int(rk_stages)
        self.gravity = (float(gravity[0]), float(gravity[1]))
        self.module = module
        self.batch_blocks = bool(batch_blocks)
        if scratch is None:
            self._workspace: Optional[Workspace] = make_workspace()
        else:
            self._workspace = Workspace() if scratch else None

    # ------------------------------------------------------------------
    # time step (full-precision diagnostic, as in the paper's fixed-dt runs)
    # ------------------------------------------------------------------
    def compute_dt(self, grid: AMRGrid) -> float:
        """Global CFL time step over all leaf blocks: one stacked
        ``(nleaves, nx, ny)`` reduction over the grid's block store
        (:func:`repro.kernels.grid.compute_dt`), sharing the fused EOS
        sound-speed helper of :mod:`repro.kernels.flux` with the flux
        pipelines."""
        return grid_kernels.compute_dt(grid, self.eos, self.cfl, ws=self._workspace)

    # ------------------------------------------------------------------
    # per-block update
    # ------------------------------------------------------------------
    def _stage_contexts(self, ctx: FPContext) -> Dict[str, FPContext]:
        """Derive per-stage contexts (mem-mode gets scoped module labels so
        individual stages can be excluded / attributed; op-mode reuses the
        block context)."""
        if isinstance(ctx, ShadowContext):
            return {
                "recon": ctx.scoped("recon"),
                "riemann": ctx.scoped("riemann"),
                "update": ctx.scoped("update"),
                "base": ctx,
            }
        return {"recon": ctx, "riemann": ctx, "update": ctx, "base": ctx}

    def _lift(self, ctx: FPContext, arr: np.ndarray):
        """Region-entry conversion of block data into the context's world."""
        if isinstance(ctx, ShadowContext):
            return ctx.lift(arr)
        if ctx.truncating:
            return ctx.const(arr)
        return arr

    def _directional_flux(self, prims: Dict, axis: int, ng: int, n: int, stages: Dict) -> Dict:
        """Fluxes at the ``n+1`` interior faces along ``axis``."""
        recon_ctx = stages["recon"]
        riemann_ctx = stages["riemann"]

        normal, transverse = ("velx", "vely") if axis == 0 else ("vely", "velx")
        left: Dict = {}
        right: Dict = {}
        for target, source in (("dens", "dens"), ("velx", normal), ("vely", transverse), ("pres", "pres")):
            l, r = reconstruct(prims[source], axis, ng, n, recon_ctx, self.reconstruction)
            left[target] = l
            right[target] = r

        # keep reconstructed density/pressure physical
        left["dens"] = recon_ctx.maximum(left["dens"], recon_ctx.const(self.eos.density_floor), "recon:floor_d")
        right["dens"] = recon_ctx.maximum(right["dens"], recon_ctx.const(self.eos.density_floor), "recon:floor_d")
        left["pres"] = recon_ctx.maximum(left["pres"], recon_ctx.const(self.eos.pressure_floor), "recon:floor_p")
        right["pres"] = recon_ctx.maximum(right["pres"], recon_ctx.const(self.eos.pressure_floor), "recon:floor_p")

        flux = SOLVERS[self.riemann](left, right, self.eos, riemann_ctx)
        if axis == 0:
            return {"dens": flux["dens"], "momx": flux["momn"], "momy": flux["momt"], "ener": flux["ener"]}
        return {"dens": flux["dens"], "momx": flux["momt"], "momy": flux["momn"], "ener": flux["ener"]}

    def advance_block(
        self,
        block,
        dt: float,
        ctx: FPContext,
    ) -> Dict[str, np.ndarray]:
        """One flux-divergence update of a single block.

        ``block.data`` must have its guard cells filled.  Returns the new
        interior primitive variables as plain binary64 arrays (the AMR grid
        stores plain arrays regardless of the instrumentation in use).

        On a fused fast plane the whole update — reconstruct → wave
        speeds → flux → conserved update — runs through the pre-fused
        pipeline of :mod:`repro.kernels.flux` without a single context
        dispatch: in binary64 for ``ctx.fused``, rounded at every op
        boundary for ``ctx.fused_trunc`` (the rounder of
        :func:`~repro.kernels.ledger.fused_rounder`), bit-identical to the
        op-by-op path either way.  A counting context on the counted fused
        plane (``ctx.ledger``) takes the pipeline with the matching
        rounder and replays the block's op/byte ledger
        (:meth:`_block_ledger`) into its runtime — byte-identical counters
        without a single op-by-op call.
        """
        ng, nxb, nyb = block.ng, block.nxb, block.nyb
        if fused_kind(ctx) is not None:
            if getattr(ctx, "ledger", False):
                self._block_ledger(block, ctx).replay(ctx.runtime)
            prims = {name: block.data[name] for name in PRIMITIVE_VARS}
            return self._advance_fused(prims, dt, block.dx, block.dy, ng, nxb, nyb, ctx)
        stages = self._stage_contexts(ctx)
        update_ctx = stages["update"]

        prims = {name: self._lift(stages["base"], block.data[name]) for name in PRIMITIVE_VARS}

        # x-sweep uses interior rows in y; y-sweep interior columns in x
        prims_x = {k: v[:, ng:ng + nyb] for k, v in prims.items()}
        prims_y = {k: v[ng:ng + nxb, :] for k, v in prims.items()}
        flux_x = self._directional_flux(prims_x, 0, ng, nxb, stages)
        flux_y = self._directional_flux(prims_y, 1, ng, nyb, stages)

        # interior primitive / conserved state
        interior = {k: v[ng:ng + nxb, ng:ng + nyb] for k, v in prims.items()}
        dens, velx, vely, pres = (interior[k] for k in PRIMITIVE_VARS)
        momx = update_ctx.mul(dens, velx, "update:momx")
        momy = update_ctx.mul(dens, vely, "update:momy")
        ener = self.eos.total_energy(dens, velx, vely, pres, update_ctx)
        cons = {"dens": dens, "momx": momx, "momy": momy, "ener": ener}

        dtdx = update_ctx.const(dt / block.dx)
        dtdy = update_ctx.const(dt / block.dy)
        new_cons: Dict = {}
        for comp in ("dens", "momx", "momy", "ener"):
            fx = flux_x[comp]
            fy = flux_y[comp]
            div_x = update_ctx.sub(fx[1:, :], fx[:-1, :], "update:div_x")
            div_y = update_ctx.sub(fy[:, 1:], fy[:, :-1], "update:div_y")
            change = update_ctx.add(
                update_ctx.mul(dtdx, div_x, "update:dtdx_div"),
                update_ctx.mul(dtdy, div_y, "update:dtdy_div"),
                "update:div",
            )
            new_cons[comp] = update_ctx.sub(cons[comp], change, "update:new_u")

        # constant-gravity source term (skipped entirely when gravity is off
        # so existing workloads keep their exact operation stream)
        gx, gy = self.gravity
        if gx != 0.0 or gy != 0.0:
            # dt*g is a scalar, so fold it into one constant: one multiply
            # per cell per source term instead of two (this is the hot path,
            # and extra context ops would also inflate the reported counters)
            if gx != 0.0:
                dtgx = update_ctx.const(dt * gx)
                src_mx = update_ctx.mul(dens, dtgx, "update:src_mx")
                new_cons["momx"] = update_ctx.add(new_cons["momx"], src_mx, "update:grav_mx")
                src_ex = update_ctx.mul(momx, dtgx, "update:src_ex")
                new_cons["ener"] = update_ctx.add(new_cons["ener"], src_ex, "update:grav_ex")
            if gy != 0.0:
                dtgy = update_ctx.const(dt * gy)
                src_my = update_ctx.mul(dens, dtgy, "update:src_my")
                new_cons["momy"] = update_ctx.add(new_cons["momy"], src_my, "update:grav_my")
                src_ey = update_ctx.mul(momy, dtgy, "update:src_ey")
                new_cons["ener"] = update_ctx.add(new_cons["ener"], src_ey, "update:grav_ey")

        # conserved -> primitive, with floors (the "update" stage of Spark)
        new_dens = update_ctx.maximum(
            new_cons["dens"], update_ctx.const(self.eos.density_floor), "update:floor_d"
        )
        new_velx = update_ctx.div(new_cons["momx"], new_dens, "update:velx")
        new_vely = update_ctx.div(new_cons["momy"], new_dens, "update:vely")
        new_pres = self.eos.pressure_from_total_energy(
            new_dens, new_cons["momx"], new_cons["momy"], new_cons["ener"], update_ctx
        )

        return {
            "dens": update_ctx.asplain(new_dens),
            "velx": update_ctx.asplain(new_velx),
            "vely": update_ctx.asplain(new_vely),
            "pres": update_ctx.asplain(new_pres),
        }

    def _advance_fused(self, prims, dt: float, dx, dy, ng: int, nxb: int, nyb: int,
                       ctx: Optional[FPContext] = None) -> Dict[str, np.ndarray]:
        """The fully fused block (or block-stack) update, with the rounder
        of the fused twin ``ctx`` runs (truncating, or binary64 — also for
        ``ctx=None``); ``dx``/``dy`` are scalars or per-block arrays of a
        stack."""
        return fused_flux.advance(
            prims, dt, dx, dy, ng, nxb, nyb,
            scheme=self.reconstruction,
            solver=self.riemann,
            gamma=self.eos.gamma,
            dens_floor=self.eos.density_floor,
            pres_floor=self.eos.pressure_floor,
            gravity=self.gravity,
            ws=self._workspace,
            q=fused_rounder(ctx, self._workspace),
        )

    def _block_ledger(self, block, ctx: FPContext) -> OpLedger:
        """The counters one update of a ``block``-shaped block charges
        under ``ctx`` on the instrumented plane.

        Every context op of the update runs on whole arrays, so the
        counters depend only on this solver's configuration, the block
        shape and the context's counting signature — never on the data.
        A miss records them from one instrumented update of a uniform probe
        block of the same shape.
        """
        key = (
            type(self), type(self.eos), self.reconstruction, self.riemann,
            self.gravity[0] != 0.0, self.gravity[1] != 0.0,
            block.ng, block.nxb, block.nyb,
        )

        def record(twin: FPContext) -> None:
            shape = block.shape_with_guards
            probe = SimpleNamespace(
                ng=block.ng, nxb=block.nxb, nyb=block.nyb, dx=1.0, dy=1.0,
                data={name: np.ones(shape) for name in PRIMITIVE_VARS},
            )
            self.advance_block(probe, 1.0, twin)

        return ledger_for(key, ctx, record)

    # ------------------------------------------------------------------
    # grid-level stepping
    # ------------------------------------------------------------------
    def _substep(self, grid: AMRGrid, dt: float, provider: ContextProvider) -> None:
        """One forward-Euler substep over all leaves (guard cells refilled).

        Blocks whose context rides a fused plane (binary64, truncating or
        counted) are stacked across AMR levels — one group per binary64
        plane, per (format, rounding) signature on the truncating plane,
        per context on the counted plane — into one ``(nblocks, nx, ny)``
        batched kernel invocation with per-block ``dx``/``dy``
        (element-wise ufuncs are independent per slot, so the batched
        update is bit-identical to the per-block loop; a counted stack
        replays its ledger once per block).  Everything else —
        instrumented, shadow and error-tracking contexts — takes the
        per-block op-by-op path.  Every update reads only its own block,
        so each group writes its interiors back to the store as soon as it
        is computed.
        """
        max_level = grid.finest_level
        plan = grid.topology_plan()
        contexts = [provider(self.module, key[0], max_level) for key in plan.keys]
        if self._workspace is not None:
            # quiescent point: no scratch value is live between substeps, so
            # a regrid-heavy run cannot accumulate buffer families unboundedly
            self._workspace.trim()

        batched: Dict[tuple, list] = {}
        if self.batch_blocks:
            # counted contexts group by identity (their runtime takes the
            # replay), ranked by first appearance so the order is stable
            counted_rank: Dict[int, int] = {}
            for i, ctx in enumerate(contexts):
                if getattr(ctx, "ledger", False):
                    rank = counted_rank.setdefault(id(ctx), len(counted_rank))
                    batched.setdefault(("ledger", rank), []).append(i)
                elif getattr(ctx, "fused", False):
                    batched.setdefault(("b64",), []).append(i)
                elif getattr(ctx, "fused_trunc", False):
                    sig = ("trunc", ctx.fmt.exp_bits, ctx.fmt.man_bits, ctx.rounding)
                    batched.setdefault(sig, []).append(i)
            # a single block gains nothing from stacking
            batched = {sig: group for sig, group in batched.items() if len(group) > 1}

        for sig in sorted(batched):
            group = batched[sig]
            self._advance_batched(grid, group, dt, ctx=contexts[group[0]])
        in_batch = {i for group in batched.values() for i in group}
        singles = [i for i in range(len(plan.keys)) if i not in in_batch]
        if singles:
            new = [self.advance_block(grid.leaves[plan.keys[i]], dt, contexts[i]) for i in singles]
            grid.scatter_interior(PRIMITIVE_VARS, plan.slots[singles],
                                  [[prims[name] for prims in new] for name in PRIMITIVE_VARS])
        grid.fill_guard_cells(PRIMITIVE_VARS)

    def _advance_batched(self, grid: AMRGrid, group, dt: float, ctx: FPContext) -> None:
        """Advance fused blocks of any levels as one stacked kernel invocation.

        ``group`` holds positions in the grid's topology plan; the blocks'
        primitives are gathered from the store into one
        ``(4, nblocks, nx, ny)`` stack and the new interiors scattered back.
        Each slot gets its own ``dx``/``dy`` as a ``(nblocks, 1, 1)``
        array — block bounds make the spacing differ in the last bit even
        within a level on non-dyadic root grids.  ``ctx`` is the (shared)
        context of the group, which picks the pipeline's rounder.  A counted context replays its per-block ledger
        once per stacked block, so scalar and broadcast operands are
        charged per block exactly as on the per-block instrumented path.
        """
        plan = grid.topology_plan()
        slots = plan.slots[group]
        first = grid.leaves[plan.keys[group[0]]]
        shape = (len(PRIMITIVE_VARS), len(group), *first.shape_with_guards)
        prims = grid.stack(PRIMITIVE_VARS, slots, out=buffer(self._workspace, ("stack",), shape))
        dx = plan.dx[group].reshape(-1, 1, 1)
        dy = plan.dy[group].reshape(-1, 1, 1)
        if getattr(ctx, "ledger", False):
            self._block_ledger(first, ctx).replay(ctx.runtime, times=len(group))
        new = self._advance_fused(prims, dt, dx, dy, first.ng, first.nxb, first.nyb, ctx)
        grid.scatter_interior(PRIMITIVE_VARS, slots, [new[name] for name in PRIMITIVE_VARS])

    def _conserved(self, prims: np.ndarray) -> Dict[str, np.ndarray]:
        """Conserved variables of a ``(4, ...)`` primitive stack."""
        dens, velx, vely, pres = prims
        eint = pres / ((self.eos.gamma - 1.0) * dens)
        ener = dens * eint + 0.5 * dens * (velx ** 2 + vely ** 2)
        return {"dens": dens, "momx": dens * velx, "momy": dens * vely, "ener": ener}

    def _primitives(self, cons: Dict[str, np.ndarray]) -> list:
        """Floored primitive variables (``PRIMITIVE_VARS`` order) of
        conserved ones."""
        dens = np.maximum(cons["dens"], self.eos.density_floor)
        velx = cons["momx"] / dens
        vely = cons["momy"] / dens
        eint_dens = cons["ener"] - 0.5 * dens * (velx ** 2 + vely ** 2)
        pres = np.maximum((self.eos.gamma - 1.0) * eint_dens, self.eos.pressure_floor)
        return [dens, velx, vely, pres]

    def step(
        self,
        grid: AMRGrid,
        dt: float,
        provider: ContextProvider = default_context_provider,
    ) -> None:
        """Advance the whole grid by ``dt``.

        With ``rk_stages == 2`` the SSP-RK2 combination
        ``U^{n+1} = 1/2 U^n + 1/2 (U^1 + dt L(U^1))`` is used; the averaging
        is performed on conserved variables at storage precision.
        """
        if self.rk_stages == 1:
            self._substep(grid, dt, provider)
            return

        slots = grid.topology_plan().slots
        cons0 = self._conserved(grid.stack(PRIMITIVE_VARS, slots, interior=True))
        self._substep(grid, dt, provider)
        self._substep(grid, dt, provider)
        cons2 = self._conserved(grid.stack(PRIMITIVE_VARS, slots, interior=True))
        blended = {comp: 0.5 * cons0[comp] + 0.5 * cons2[comp] for comp in cons0}
        grid.scatter_interior(PRIMITIVE_VARS, slots, self._primitives(blended))
        grid.fill_guard_cells(PRIMITIVE_VARS)

    def evolve(
        self,
        grid: AMRGrid,
        t_end: float,
        provider: ContextProvider = default_context_provider,
        fixed_dt: Optional[float] = None,
        max_steps: int = 100000,
        regrid_interval: int = 0,
        refine_vars=("dens", "pres"),
        refine_cutoff: float = 0.8,
        derefine_cutoff: float = 0.2,
        callback: Optional[Callable[[int, float, AMRGrid], None]] = None,
    ) -> Dict[str, float]:
        """Evolve to ``t_end``; optionally regrid every ``regrid_interval`` steps.

        Returns a small summary dict (steps taken, final time, final dt).
        """
        t = 0.0
        step_count = 0
        dt = fixed_dt if fixed_dt is not None else self.compute_dt(grid)
        while t < t_end - 1e-14 and step_count < max_steps:
            if fixed_dt is None:
                dt = self.compute_dt(grid)
            dt = min(dt, t_end - t)
            self.step(grid, dt, provider)
            t += dt
            step_count += 1
            if regrid_interval and step_count % regrid_interval == 0:
                grid.regrid(list(refine_vars), refine_cutoff, derefine_cutoff)
            if callback is not None:
                callback(step_count, t, grid)
        return {"steps": float(step_count), "time": float(t), "dt": float(dt)}
