"""Cellular detonation workload (carbon burning + tabulated EOS).

The paper's Cellular study initialises a domain of pure carbon at stellar
densities, perturbs a small region to ignite the fuel, and follows the
over-driven detonation that propagates along x.  Hypothesis 2 ("the EOS is
table-based and therefore the most likely candidate for reduced precision")
is falsified: the Newton–Raphson extrapolation of the table stops converging
once the mantissa is truncated below ~42 bits, no matter how much the
tolerance is relaxed.

This reproduction drives a 1-D finite-volume Euler solver whose pressure and
temperature come from the synthetic Helmholtz table (inverted with
Newton–Raphson through a numerics context) and whose energy source comes
from the simplified carbon-burning network.  Truncating the ``eos`` module
reproduces the convergence collapse; the hydrodynamics itself runs in FP64,
exactly as in the paper's experiment (only the EOS module is truncated).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..burn.network import CarbonBurnNetwork
from ..core.opmode import FPContext, FullPrecisionContext
from ..core.runtime import RaptorRuntime
from ..core.selective import ModulePolicy, NoTruncationPolicy, TruncationPolicy
from ..eos.newton import NewtonSolverConfig, invert_energy
from ..eos.table import HelmholtzTable
from ..kernels import select_context
from .registry import register_workload
from .scenario import Outcome, Scenario

__all__ = ["CellularConfig", "CellularWorkload"]


@dataclass
class CellularConfig:
    """Parameters of the 1-D detonation."""

    n_cells: int = 96
    length: float = 256.0              # cm
    fuel_density: float = 1.0e7        # g/cm^3
    ambient_temperature: float = 2.0e8 # K
    ignition_temperature: float = 3.5e9
    ignition_fraction: float = 0.1     # fraction of the domain ignited at t=0
    cfl: float = 0.4
    n_steps: int = 40
    newton: NewtonSolverConfig = field(default_factory=NewtonSolverConfig)
    #: burning network retuned so the detonation develops within the short
    #: simulated time of the reproduction (see DESIGN.md)
    burn: CarbonBurnNetwork = field(
        default_factory=lambda: CarbonBurnNetwork(rate_prefactor=1e9, activation_t9=10.0)
    )

    @property
    def finest_cells(self):
        """Covering-grid shape, for the reference cache's content address."""
        return (self.n_cells,)


@register_workload
class CellularWorkload(Scenario):
    """1-D over-driven carbon detonation with a tabulated EOS."""

    name = "cellular"
    config_class = CellularConfig
    kind = "cellular"
    error_variables = ("dens", "velx", "eint", "temp", "fuel", "front_positions")
    default_error_variables = ("dens", "temp")
    default_modules = ("eos",)

    def __init__(self, config: Optional[CellularConfig] = None) -> None:
        self.config = config or CellularConfig()
        self.table = HelmholtzTable()

    # ------------------------------------------------------------------
    def initial_state(self) -> Dict[str, np.ndarray]:
        """The fuel column with its ignited strip: the binary64 prefix of
        every run."""
        cfg = self.config
        n = cfg.n_cells
        x = (np.arange(n) + 0.5) * (cfg.length / n)
        temp = np.full(n, cfg.ambient_temperature)
        temp[x < cfg.ignition_fraction * cfg.length] = cfg.ignition_temperature
        dens = np.full(n, cfg.fuel_density)
        eint = np.asarray(self.table.energy(dens, temp))
        return {
            "x": x,
            "dens": dens,
            "velx": np.zeros(n),
            "eint": eint,          # specific internal energy (erg/g)
            "temp": temp,
            "fuel": np.ones(n),
        }

    # ------------------------------------------------------------------
    def _eos_update(
        self,
        state: Dict[str, np.ndarray],
        ctx: FPContext,
    ):
        """Invert the table for temperature, then evaluate pressure."""
        result = invert_energy(
            self.table,
            state["dens"],
            state["eint"],
            state["temp"],
            self.config.newton,
            ctx,
        )
        state["temp"] = np.clip(result.temperature, 1.1e7, 9.5e9)
        pres = np.asarray(ctx.asplain(self.table.pressure(state["dens"], state["temp"], ctx)))
        return pres, result

    def _sound_speed(self, state: Dict[str, np.ndarray], pres: np.ndarray) -> np.ndarray:
        gamma_eff = 1.0 + pres / np.maximum(state["dens"] * state["eint"], 1e-300)
        gamma_eff = np.clip(gamma_eff, 1.05, 2.0)
        return np.sqrt(gamma_eff * pres / state["dens"])

    def _hydro_step(self, state: Dict[str, np.ndarray], pres: np.ndarray, dt: float, dx: float) -> None:
        """1-D HLL finite-volume update of (rho, rho u, rho E) in FP64."""
        dens, velx, eint = state["dens"], state["velx"], state["eint"]
        ener = dens * (eint + 0.5 * velx ** 2)
        cons = np.stack([dens, dens * velx, ener])

        def flux_of(d, u, p, e):
            return np.stack([d * u, d * u * u + p, (e + p) * u])

        # outflow ghost cells
        def pad(a):
            return np.concatenate([a[:1], a, a[-1:]])

        d_p, u_p, p_p, e_p = pad(dens), pad(velx), pad(pres), pad(ener)
        cs = self._sound_speed({"dens": d_p, "eint": pad(eint)}, p_p)

        dl, ul, pl, el, cl = d_p[:-1], u_p[:-1], p_p[:-1], e_p[:-1], cs[:-1]
        dr, ur, pr, er, cr = d_p[1:], u_p[1:], p_p[1:], e_p[1:], cs[1:]
        sl = np.minimum(ul - cl, ur - cr)
        sr = np.maximum(ul + cl, ur + cr)
        fl = flux_of(dl, ul, pl, el)
        fr = flux_of(dr, ur, pr, er)
        ul_c = np.stack([dl, dl * ul, el])
        ur_c = np.stack([dr, dr * ur, er])
        denom = np.where(np.abs(sr - sl) < 1e-30, 1e-30, sr - sl)
        f_hll = (sr * fl - sl * fr + sl * sr * (ur_c - ul_c)) / denom
        flux = np.where(sl >= 0, fl, np.where(sr <= 0, fr, f_hll))

        cons = cons - dt / dx * (flux[:, 1:] - flux[:, :-1])
        dens_new = np.maximum(cons[0], 1e3)
        velx_new = cons[1] / dens_new
        eint_new = np.maximum(cons[2] / dens_new - 0.5 * velx_new ** 2, 1e12)
        state["dens"], state["velx"], state["eint"] = dens_new, velx_new, eint_new

    def _front_position(self, state: Dict[str, np.ndarray]) -> float:
        """Rightmost location where a significant amount of fuel has burned."""
        burned = state["fuel"] < 0.9
        if not np.any(burned):
            return 0.0
        return float(np.max(state["x"][burned]))

    # ------------------------------------------------------------------
    def run(
        self,
        policy: Optional[TruncationPolicy] = None,
        runtime: Optional[RaptorRuntime] = None,
        n_steps: Optional[int] = None,
        prefix: Optional[Dict[str, np.ndarray]] = None,
    ) -> Outcome:
        """Run the detonation under a truncation policy.

        The policy is consulted for the ``eos`` module only (the paper's
        module-selective truncation); burning and hydrodynamics run in FP64.
        ``prefix`` is an :meth:`initial_state` to start from (copied).
        """
        cfg = self.config
        rt = runtime if runtime is not None else RaptorRuntime(self.name)
        pol = policy if policy is not None else NoTruncationPolicy(runtime=rt)
        eos_ctx = pol.context_for(module="eos")
        # burning always runs untruncated, counted on *this run's* runtime
        # (the policy may have been built on another), but with the
        # policy's counting flags and on its kernel plane, so fast-plane
        # reference runs stay fused end to end
        pol_cfg = getattr(pol, "config", None)
        burn_ctx = select_context(
            FullPrecisionContext(
                runtime=rt,
                count_ops=pol_cfg.count_ops if pol_cfg is not None else True,
                track_memory=pol_cfg.track_memory if pol_cfg is not None else True,
                module="burn",
            ),
            getattr(pol, "plane", "auto"),
        )

        if prefix is None:
            prefix = self.initial_state()
        state = {name: values.copy() for name, values in prefix.items()}
        dx = cfg.length / cfg.n_cells

        times: List[float] = []
        fronts: List[float] = []
        failed = 0
        calls = 0
        t = 0.0
        steps = n_steps if n_steps is not None else cfg.n_steps
        for _ in range(steps):
            # 1. nuclear burning adds internal energy (FP64)
            fuel_new, de = cfg.burn.burn(state["fuel"], state["temp"], self._dt_guess(state, dx), burn_ctx)
            state["fuel"] = fuel_new
            state["eint"] = state["eint"] + de

            # 2. EOS inversion for temperature and pressure (truncation target)
            pres, newton = self._eos_update(state, eos_ctx)
            calls += 1
            if not newton.converged:
                failed += 1

            # 3. hydrodynamics (FP64)
            cs = self._sound_speed(state, pres)
            dt = cfg.cfl * dx / float(np.max(np.abs(state["velx"]) + cs))
            self._hydro_step(state, pres, dt, dx)

            t += dt
            times.append(t)
            fronts.append(self._front_position(state))

        fronts_arr = np.asarray(fronts, dtype=np.float64)
        propagated = len(fronts) >= 2 and fronts[-1] > fronts[0]
        return Outcome(
            workload=self.name,
            state={
                "x": state["x"],
                "dens": state["dens"],
                "velx": state["velx"],
                "eint": state["eint"],
                "temp": state["temp"],
                "fuel": state["fuel"],
                "front_positions": fronts_arr,
                "times": np.asarray(times, dtype=np.float64),
            },
            time=t,
            info={
                "eos_converged": float(failed == 0),
                "failed_newton_steps": float(failed),
                "total_newton_calls": float(calls),
                "final_burned_fraction": float(1.0 - np.mean(state["fuel"])),
                "detonation_propagated": float(propagated),
                "front_advance": float(fronts_arr[-1] - fronts_arr[0]) if len(fronts) else 0.0,
            },
            kind=self.kind,
            metadata={"workload": self.name, "policy": pol.describe()},
            runtime=rt,
        )

    # ------------------------------------------------------------------
    def error(self, outcome: Outcome, reference: Outcome) -> float:
        """Relative deviation of the final detonation-front position."""
        front = float(outcome.state["front_positions"][-1])
        ref_front = float(reference.state["front_positions"][-1])
        return abs(front - ref_front) / max(abs(ref_front), 1e-30)

    def acceptable(
        self, outcome: Outcome, reference: Outcome, threshold: Optional[float] = None
    ) -> bool:
        """Physics invariant of the paper's Hypothesis-2 study: the EOS
        inversion still converges and the detonation still propagates.  A
        threshold additionally bounds the front-position deviation."""
        if not (outcome.info.get("eos_converged") and outcome.info.get("detonation_propagated")):
            return False
        if threshold is not None:
            return self.error(outcome, reference) <= threshold
        return True

    def _dt_guess(self, state: Dict[str, np.ndarray], dx: float) -> float:
        pres = np.asarray(self.table.pressure(state["dens"], state["temp"]))
        cs = self._sound_speed(state, pres)
        return self.config.cfl * dx / float(np.max(np.abs(state["velx"]) + cs))

    # ------------------------------------------------------------------
    def eos_policy(self, man_bits: int, exp_bits: int = 11, runtime: Optional[RaptorRuntime] = None) -> ModulePolicy:
        """Convenience: the module-selective policy that truncates only the EOS."""
        from ..core.config import TruncationConfig

        return ModulePolicy(
            TruncationConfig.mantissa(man_bits, exp_bits=exp_bits),
            modules=["eos"],
            runtime=runtime,
        )
