"""Gamma-law equation of state for the compressible hydro solver.

All arithmetic goes through a numerics context so the EOS participates in
the truncation experiments exactly like the rest of the solver (it is one of
the modules the paper truncates selectively in the Cellular study; for the
Sedov/Sod hydro experiments the ideal-gas EOS below is used).

Every helper computes op by op through the context it is given, whatever
the plane: the solver operators pick a plane once, and the fused planes
call the straight-line twins in :mod:`repro.kernels.flux` themselves.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..kernels import FPContext, FullPrecisionContext

__all__ = ["GammaLawEOS"]


class GammaLawEOS:
    """Ideal-gas (gamma-law) EOS: ``p = (gamma - 1) rho e_int``.

    Parameters
    ----------
    gamma:
        Ratio of specific heats (1.4 for Sod/Sedov in Flash-X defaults).
    pressure_floor, density_floor:
        Small positive floors (Flash-X's ``smallp``/``smlrho``) that keep
        aggressively truncated runs from producing negative pressures or
        densities.
    """

    def __init__(
        self,
        gamma: float = 1.4,
        pressure_floor: float = 1e-12,
        density_floor: float = 1e-12,
    ) -> None:
        if gamma <= 1.0:
            raise ValueError("gamma must be > 1")
        self.gamma = float(gamma)
        self.pressure_floor = float(pressure_floor)
        self.density_floor = float(density_floor)

    # ------------------------------------------------------------------
    def pressure_from_internal_energy(self, dens, eint, ctx: Optional[FPContext] = None):
        """p = (gamma - 1) * rho * e_int (with the pressure floor applied)."""
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        pres = ctx.mul(ctx.const(self.gamma - 1.0), ctx.mul(dens, eint, "eos:rho_e"), "eos:pres")
        return ctx.maximum(pres, ctx.const(self.pressure_floor), "eos:floor")

    def internal_energy_from_pressure(self, dens, pres, ctx: Optional[FPContext] = None):
        """e_int = p / ((gamma - 1) rho)."""
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        denom = ctx.mul(ctx.const(self.gamma - 1.0), dens, "eos:gm1_rho")
        return ctx.div(pres, denom, "eos:eint")

    def sound_speed(self, dens, pres, ctx: Optional[FPContext] = None):
        """c = sqrt(gamma * p / rho)."""
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        ratio = ctx.div(ctx.mul(ctx.const(self.gamma), pres, "eos:gp"), dens, "eos:gp_rho")
        return ctx.sqrt(ratio, "eos:cs")

    def total_energy(self, dens, velx, vely, pres, ctx: Optional[FPContext] = None):
        """Total energy density E = rho e_int + 0.5 rho (u^2 + v^2)."""
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        eint = self.internal_energy_from_pressure(dens, pres, ctx)
        ke = ctx.mul(
            ctx.const(0.5),
            ctx.mul(
                dens,
                ctx.add(ctx.mul(velx, velx, "eos:u2"), ctx.mul(vely, vely, "eos:v2"), "eos:kin"),
                "eos:rho_kin",
            ),
            "eos:ke",
        )
        return ctx.add(ctx.mul(dens, eint, "eos:rho_eint"), ke, "eos:etot")

    def pressure_from_total_energy(self, dens, momx, momy, ener, ctx: Optional[FPContext] = None):
        """Recover pressure from conserved variables (with floors)."""
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        dens_f = ctx.maximum(dens, ctx.const(self.density_floor), "eos:rho_floor")
        velx = ctx.div(momx, dens_f, "eos:u")
        vely = ctx.div(momy, dens_f, "eos:v")
        ke = ctx.mul(
            ctx.const(0.5),
            ctx.add(ctx.mul(momx, velx, "eos:mu_u"), ctx.mul(momy, vely, "eos:mv_v"), "eos:kin"),
            "eos:ke",
        )
        eint_dens = ctx.sub(ener, ke, "eos:rho_eint")
        pres = ctx.mul(ctx.const(self.gamma - 1.0), eint_dens, "eos:pres")
        return ctx.maximum(pres, ctx.const(self.pressure_floor), "eos:pres_floor")

    # ------------------------------------------------------------------
    def apply_floors(self, dens: np.ndarray, pres: np.ndarray):
        """Plain-numpy floors (used on full-precision stored state)."""
        return (
            np.maximum(dens, self.density_floor),
            np.maximum(pres, self.pressure_floor),
        )
