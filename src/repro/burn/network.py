"""Simplified carbon-detonation reaction network.

The Cellular workload couples compressible hydrodynamics to nuclear burning
of pure carbon with an astrophysical EOS.  The paper notes the burn module's
ODEs are "particularly stiff and sensitive to numerical perturbation", which
is why the EOS — not the burner — was chosen for truncation.

This module provides a single-rate carbon-burning network with the same
character: an Arrhenius-like, extremely temperature-sensitive reaction rate
integrated with a sub-cycled exponential (stiff-stable) update.  It supplies
the energy release that drives the detonation in
:mod:`repro.workloads.cellular`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.opmode import FPContext, FullPrecisionContext
from ..kernels.ledger import replay_fused

__all__ = ["CarbonBurnNetwork"]


@dataclass
class CarbonBurnNetwork:
    """Single-species carbon burning: ``dX/dt = -X * R(T)``.

    Parameters
    ----------
    rate_prefactor:
        Overall rate normalisation (1/s at T9 = 1 for X = 1).
    t9_exponent:
        Power-law part of the temperature sensitivity.
    activation_t9:
        Exponential sensitivity scale: the rate carries
        ``exp(-activation_t9 / T9^(1/3))`` like the C12+C12 fit.
    q_value:
        Specific energy release per unit burned mass fraction (erg/g).
    ignition_t9:
        Below this temperature the rate is cut off (keeps the cold fuel inert).
    """

    rate_prefactor: float = 4.0e4
    t9_exponent: float = 3.0
    activation_t9: float = 84.165
    q_value: float = 5.6e17
    ignition_t9: float = 0.6

    # ------------------------------------------------------------------
    def rate(self, temperature: np.ndarray, ctx: Optional[FPContext] = None) -> np.ndarray:
        """Reaction rate R(T) in 1/s (vectorised)."""
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        t9 = ctx.mul(ctx.const(1e-9), temperature, "burn:t9")
        t9_plain = np.maximum(ctx.asplain(t9), 1e-4)
        # power-law and exponential screening factors
        power = ctx.power(ctx.const(t9_plain), ctx.const(self.t9_exponent), "burn:t9_pow")
        arg = ctx.mul(
            ctx.const(-self.activation_t9),
            ctx.power(ctx.const(t9_plain), ctx.const(-1.0 / 3.0), "burn:t9_cbrt"),
            "burn:exp_arg",
        )
        screen = ctx.exp(arg, "burn:screen")
        raw = ctx.mul(ctx.const(self.rate_prefactor), ctx.mul(power, screen, "burn:rate_core"), "burn:rate")
        # ignition cutoff: pure control flow on plain values
        return ctx.where(t9_plain >= self.ignition_t9, raw, ctx.zeros_like(raw))

    # ------------------------------------------------------------------
    def burn(
        self,
        mass_fraction: np.ndarray,
        temperature: np.ndarray,
        dt: float,
        ctx: Optional[FPContext] = None,
        substeps: int = 4,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance the fuel mass fraction over ``dt``.

        Uses the exact exponential solution of the linear ODE over each
        substep with the rate frozen at the current temperature — an
        L-stable update that tolerates the stiffness of the rate.  A
        counted context (``ctx.ledger``) replays the call's op/byte ledger
        and computes on its non-counting fused twin.

        Returns
        -------
        (new_mass_fraction, specific_energy_release)
        """
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        if ctx.ledger:
            # a fixed op stream over whole arrays: one ledger per call
            key = ("burn", "network", max(substeps, 1), np.shape(mass_fraction),
                   np.shape(temperature))
            ctx = replay_fused(
                key, ctx, lambda twin: self.burn(mass_fraction, temperature, dt, twin, substeps)
            )
        x = ctx.const(np.asarray(mass_fraction, dtype=np.float64))
        x_initial = ctx.asplain(x).copy()
        sub_dt = ctx.const(dt / max(substeps, 1))
        for _ in range(max(substeps, 1)):
            r = self.rate(temperature, ctx)
            decay = ctx.exp(ctx.mul(ctx.neg(r, "burn:neg_rate"), sub_dt, "burn:rdt"), "burn:decay")
            x = ctx.mul(x, decay, "burn:new_x")
        x_new = ctx.clip_nonnegative(x, 0.0)
        burned = ctx.sub(ctx.const(x_initial), x_new, "burn:burned")
        energy = ctx.mul(ctx.const(self.q_value), burned, "burn:energy")
        return ctx.asplain(x_new), ctx.asplain(energy)

    # ------------------------------------------------------------------
    def burning_timescale(self, temperature: float) -> float:
        """e-folding time of the fuel at a given temperature (diagnostic)."""
        r = float(np.max(self.rate(np.asarray([temperature], dtype=float))))
        return np.inf if r <= 0 else 1.0 / r
