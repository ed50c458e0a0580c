"""Synthetic Helmholtz-like tabulated equation of state.

The Cellular detonation workload in the paper uses Flash-X's Helmholtz EOS:
a table of free energy (and derivatives) on a (density, temperature) grid,
interpolated and then *inverted* with a Newton–Raphson iteration to match the
conditions in the simulation (the solver hands the EOS density and internal
energy and wants temperature and pressure back).

The real Helmholtz table is proprietary-sized (a large data file of
electron-positron quantities).  This reproduction builds a synthetic table
with the same structure and the same numerical mechanism — bilinear
interpolation in (log rho, log T) of a smooth, monotone-in-T internal energy
that combines ideal-gas ions, an electron-like component and radiation —
because Hypothesis 2 is about the *table-interpolation + Newton–Raphson*
pipeline, not about the exact stellar physics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.opmode import FPContext, FullPrecisionContext
from ..kernels import eos as keos
from ..kernels.ledger import replay_fused

__all__ = ["HelmholtzTable", "DERIVATIVE_EPS"]

#: relative temperature step of the centred de/dT difference
DERIVATIVE_EPS = 1e-4

# physical-ish constants in CGS-flavoured units (values only set scales)
_K_B_OVER_MU = 8.314e7      # ideal-gas specific energy scale (erg/g/K per mean molecular weight)
_A_RAD = 7.5657e-15         # radiation constant (erg/cm^3/K^4)
_ELECTRON_COEFF = 3.0e6     # degenerate-electron-like contribution scale


@dataclass
class HelmholtzTable:
    """Tabulated internal energy and pressure on a (log rho, log T) grid.

    Parameters
    ----------
    rho_range, temp_range:
        Bounds (min, max) of the table in density and temperature.
    n_rho, n_temp:
        Table resolution.  The default (101 x 201) gives interpolation errors
        far below the truncation errors probed in the experiments.
    mu:
        Mean molecular weight of the ion mixture (carbon: ~12/7 with
        electrons; the exact value only scales energies).
    """

    rho_range: Tuple[float, float] = (1e4, 1e8)
    temp_range: Tuple[float, float] = (1e7, 1e10)
    n_rho: int = 101
    n_temp: int = 201
    mu: float = 1.75

    def __post_init__(self) -> None:
        self.log_rho = np.linspace(np.log10(self.rho_range[0]), np.log10(self.rho_range[1]), self.n_rho)
        self.log_temp = np.linspace(np.log10(self.temp_range[0]), np.log10(self.temp_range[1]), self.n_temp)
        rho = 10.0 ** self.log_rho[:, None]
        temp = 10.0 ** self.log_temp[None, :]
        self.energy_table = self._energy_model(rho, temp)      # erg/g
        self.pressure_table = self._pressure_model(rho, temp)  # erg/cm^3

    # ------------------------------------------------------------------
    # analytic model behind the synthetic table
    # ------------------------------------------------------------------
    def _energy_model(self, rho: np.ndarray, temp: np.ndarray) -> np.ndarray:
        ion = 1.5 * _K_B_OVER_MU / self.mu * temp
        radiation = _A_RAD * temp ** 4 / rho
        electron = _ELECTRON_COEFF * rho ** (2.0 / 3.0) * (1.0 + 1e-9 * temp)
        return ion + radiation + electron

    def _pressure_model(self, rho: np.ndarray, temp: np.ndarray) -> np.ndarray:
        ion = rho * _K_B_OVER_MU / self.mu * temp
        radiation = _A_RAD * temp ** 4 / 3.0
        electron = (2.0 / 3.0) * _ELECTRON_COEFF * rho ** (5.0 / 3.0) * (1.0 + 1e-9 * temp)
        return ion + radiation + electron

    # ------------------------------------------------------------------
    # table interpolation (the operations RAPTOR truncates)
    # ------------------------------------------------------------------
    def _locate(self, grid: np.ndarray, value: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(grid, value) - 1
        return np.clip(idx, 0, len(grid) - 2)

    def _bilinear(
        self,
        table: np.ndarray,
        rho,
        temp,
        ctx: FPContext,
    ):
        """Bilinear interpolation of ``table`` at (rho, temp).

        Index search runs on plain values (integer work); the arithmetic of
        the interpolation itself goes through the numerics context so the
        EOS module can be truncated.  Fused and counted contexts run the
        twin of :mod:`repro.kernels.eos`; a counted one replays the
        interpolation's ledger (its ops all run on whole arrays, so the
        counters depend only on the operand shapes).
        """
        if ctx.ledger:
            ctx = replay_fused(
                ("eos", "bilinear", np.shape(rho), np.shape(temp)), ctx,
                lambda twin: self._bilinear(table, rho, temp, twin),
            )
        q = ctx.rounder()
        if q is not None:
            return keos.bilinear(self, table, ctx.asplain(rho), ctx.asplain(temp), q)
        log_rho = np.log10(np.maximum(ctx.asplain(rho), 10.0 ** self.log_rho[0]))
        log_temp = np.log10(np.maximum(ctx.asplain(temp), 10.0 ** self.log_temp[0]))
        i = self._locate(self.log_rho, log_rho)
        j = self._locate(self.log_temp, log_temp)

        x0 = self.log_rho[i]
        y0 = self.log_temp[j]
        dlr = self.log_rho[1] - self.log_rho[0]
        dlt = self.log_temp[1] - self.log_temp[0]
        # interpolation weights (truncated arithmetic)
        tx = ctx.div(ctx.sub(log_rho, x0, "eos:tx_num"), ctx.const(dlr), "eos:tx")
        ty = ctx.div(ctx.sub(log_temp, y0, "eos:ty_num"), ctx.const(dlt), "eos:ty")

        f00 = table[i, j]
        f10 = table[i + 1, j]
        f01 = table[i, j + 1]
        f11 = table[i + 1, j + 1]

        one = ctx.const(1.0)
        w00 = ctx.mul(ctx.sub(one, tx, "eos:w00a"), ctx.sub(one, ty, "eos:w00b"), "eos:w00")
        w10 = ctx.mul(tx, ctx.sub(one, ty, "eos:w10a"), "eos:w10")
        w01 = ctx.mul(ctx.sub(one, tx, "eos:w01a"), ty, "eos:w01")
        w11 = ctx.mul(tx, ty, "eos:w11")

        out = ctx.add(
            ctx.add(ctx.mul(w00, f00, "eos:c00"), ctx.mul(w10, f10, "eos:c10"), "eos:c0"),
            ctx.add(ctx.mul(w01, f01, "eos:c01"), ctx.mul(w11, f11, "eos:c11"), "eos:c1"),
            "eos:interp",
        )
        return out

    # ------------------------------------------------------------------
    # public lookups
    # ------------------------------------------------------------------
    def energy(self, rho, temp, ctx: Optional[FPContext] = None):
        """Specific internal energy e(rho, T) from the table."""
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        return self._bilinear(self.energy_table, rho, temp, ctx)

    def pressure(self, rho, temp, ctx: Optional[FPContext] = None):
        """Pressure p(rho, T) from the table."""
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        return self._bilinear(self.pressure_table, rho, temp, ctx)

    def energy_derivative(self, rho, temp, ctx: Optional[FPContext] = None,
                          eps: float = DERIVATIVE_EPS):
        """de/dT at constant density, from a centred difference of the table
        interpolation (this is what the Newton–Raphson update divides by —
        the cancellation-prone operation that reacts badly to truncation)."""
        ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)
        temp_plain = ctx.asplain(temp)
        dT = np.maximum(eps * temp_plain, 1e-30)
        e_hi = self.energy(rho, ctx.add(temp, dT, "eos:t_hi"), ctx)
        e_lo = self.energy(rho, ctx.sub(temp, dT, "eos:t_lo"), ctx)
        return ctx.div(
            ctx.sub(e_hi, e_lo, "eos:de"),
            ctx.mul(ctx.const(2.0), dT, "eos:two_dT"),
            "eos:dedT",
        )

    def analytic_energy(self, rho: np.ndarray, temp: np.ndarray) -> np.ndarray:
        """The analytic model (reference for tests; not used by the solver)."""
        return self._energy_model(np.asarray(rho, dtype=float), np.asarray(temp, dtype=float))

    def analytic_pressure(self, rho: np.ndarray, temp: np.ndarray) -> np.ndarray:
        return self._pressure_model(np.asarray(rho, dtype=float), np.asarray(temp, dtype=float))
