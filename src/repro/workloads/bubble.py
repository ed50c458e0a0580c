"""Rising-bubble workload (incompressible multiphase, Figure 1).

The paper starts from the Re = 35 solution at t = 3 and then runs the
truncation experiments at Re = 3500 from t = 3 to t = 4, truncating the
advection and diffusion operators of the Navier–Stokes solver with three
strategies: everywhere, and with the M−1 / M−2 interface-distance cutoffs.
Low (4-bit) and moderate (12-bit) mantissas are compared through the shape
of the interface (deformation, splitting, satellite bubbles).

This workload reproduces that protocol on the uniform-grid solver of
:mod:`repro.incomp`: a short spin-up takes the place of the archived t = 3
state, and the truncation phase records interface snapshots, centroid,
gas volume and fragment count.

Two entry points drive the same machinery:

* :meth:`BubbleWorkload.run` — the scenario protocol.  A
  :class:`~repro.core.selective.TruncationPolicy` is mapped onto the
  Figure 1 strategies: ``None`` / no-truncation → the reference,
  :class:`~repro.core.selective.AMRCutoffPolicy` → the M−l
  interface-distance cutoffs, any other truncating policy → everywhere.
* :meth:`BubbleWorkload.run_strategy` — the paper's native
  (strategy, mantissa) parameterisation, used by the Figure 1 benchmark.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.config import TruncationConfig
from ..core.fpformat import FPFormat
from ..core.opmode import FullPrecisionContext, TruncatedContext
from ..core.runtime import RaptorRuntime
from ..core.selective import AMRCutoffPolicy, NoTruncationPolicy, TruncationPolicy
from ..incomp.solver import BubbleConfig, BubbleSolver
from .registry import register_workload
from .scenario import Outcome, Scenario

__all__ = ["BubbleExperimentConfig", "BubbleWorkload", "STRATEGIES"]

#: truncation strategies of Figure 1
STRATEGIES = ("none", "everywhere", "cutoff-1", "cutoff-2")


@dataclass
class BubbleExperimentConfig:
    """Parameters of the Figure 1 experiment."""

    solver: BubbleConfig = field(default_factory=lambda: BubbleConfig(
        nx=32, ny=48, xlim=(-1.0, 1.0), ylim=(-1.0, 2.0),
        reynolds=3500.0, advection_scheme="weno5", reinit_interval=5,
    ))
    #: pseudo-AMR depth used for the interface-distance cutoffs
    max_level: int = 3
    #: length of the spin-up phase standing in for the archived t=3 state
    spin_up_time: float = 0.2
    #: physical length of the truncation phase (t = 3 .. 4 in the paper)
    truncation_time: float = 0.3
    #: snapshot times (relative to the start of the truncation phase)
    snapshot_times: tuple = (0.1, 0.2, 0.3)
    fixed_dt: float = 0.004
    exp_bits: int = 8

    @property
    def finest_cells(self):
        """Covering-grid shape, for the reference cache's content address."""
        return (self.solver.nx, self.solver.ny)


@register_workload
class BubbleWorkload(Scenario):
    """Driver for the Figure 1 truncation-strategy comparison."""

    name = "bubble"
    config_class = BubbleExperimentConfig
    kind = "bubble"
    error_variables = ("phi", "centroid")
    default_error_variables = ("phi",)
    default_modules = ("advection", "diffusion")
    #: default cliff threshold on the mean interface deviation |phi - phi_ref|
    cliff_threshold = 0.02

    def __init__(self, config: Optional[BubbleExperimentConfig] = None) -> None:
        self.config = config or BubbleExperimentConfig()

    # ------------------------------------------------------------------
    def initial_state(self) -> Dict[str, object]:
        """The solver state after the binary64 spin-up (standing in for the
        paper's archived t = 3 checkpoint): the prefix every truncation
        phase starts from."""
        cfg = self.config
        solver = BubbleSolver(cfg.solver)
        solver.run(t_end=cfg.spin_up_time, fixed_dt=cfg.fixed_dt)
        return {
            "velx": solver.velx,
            "vely": solver.vely,
            "pres": solver.pres,
            "phi": solver.levelset.phi,
            "time": solver.time,
            # step_count phases the periodic level-set reinitialisation;
            # restoring it keeps a restored run bit-identical to one that
            # continued straight out of the spin-up
            "step_count": solver.step_count,
        }

    def _fresh_solver(self, plane: str, prefix: Optional[Dict[str, object]]) -> BubbleSolver:
        """A solver on ``plane`` restored from a copy of ``prefix`` (spun up
        here when there is none)."""
        if prefix is None:
            prefix = self.initial_state()
        solver = BubbleSolver(self.config.solver, plane=plane)
        solver.velx = prefix["velx"].copy()
        solver.vely = prefix["vely"].copy()
        solver.pres = prefix["pres"].copy()
        solver.levelset.phi = prefix["phi"].copy()
        solver.time = prefix["time"]
        solver.step_count = prefix["step_count"]
        return solver

    def _cutoff_mask_fn(self, cutoff: int) -> Callable[[BubbleSolver], np.ndarray]:
        cfg = self.config

        def mask(solver: BubbleSolver) -> np.ndarray:
            levels = solver.levelset.level_map(cfg.max_level)
            return levels <= (cfg.max_level - cutoff)

        return mask

    def _mask_fn(self, strategy: str):
        if strategy == "everywhere":
            return None  # truncate every cell
        return self._cutoff_mask_fn(int(strategy.split("-")[1]))

    # ------------------------------------------------------------------
    def run(
        self,
        policy: Optional[TruncationPolicy] = None,
        runtime: Optional[RaptorRuntime] = None,
        prefix: Optional[Dict[str, object]] = None,
    ) -> Outcome:
        """Run the truncation phase under a truncation policy.

        ``policy=None`` (or a no-op policy) is the full-precision
        reference.  An :class:`AMRCutoffPolicy` maps to the paper's
        interface-distance cutoff strategy (the level-set band standing in
        for the AMR hierarchy); every other truncating policy truncates
        the advection and diffusion operators everywhere.  ``prefix`` is
        an :meth:`initial_state` to start from (copied); without one the
        run performs its own spin-up.
        """
        rt = runtime if runtime is not None else RaptorRuntime(self.name)
        pol = policy if policy is not None else NoTruncationPolicy(runtime=rt)
        adv = pol.context_for(module="advection")
        diff = pol.context_for(module="diffusion")
        # the solver's fast path is "no context"; full-precision contexts
        # would change nothing numerically, so map them back to None
        adv_ctx = None if isinstance(adv, FullPrecisionContext) else adv
        diff_ctx = None if isinstance(diff, FullPrecisionContext) else diff
        mask_fn = None
        strategy = "none"
        if adv_ctx is not None or diff_ctx is not None:
            strategy = "everywhere"
            if isinstance(pol, AMRCutoffPolicy) and pol.cutoff > 0:
                strategy = f"cutoff-{pol.cutoff}"
                mask_fn = self._cutoff_mask_fn(pol.cutoff)
            covered = [m for m, c in (("advection", adv_ctx), ("diffusion", diff_ctx)) if c is not None]
            if len(covered) == 1:
                # a policy truncating only one operator family is not any
                # Figure 1 strategy; label the actual coverage so grouped
                # outcomes don't merge genuinely different runs
                strategy = f"{strategy}[{covered[0]}]"
        return self._execute(
            adv_ctx, diff_ctx, mask_fn, rt, strategy, pol.describe(),
            plane=getattr(pol, "plane", "auto"), prefix=prefix,
        )

    def run_strategy(
        self,
        strategy: str,
        man_bits: int,
        runtime: Optional[RaptorRuntime] = None,
        prefix: Optional[Dict[str, object]] = None,
    ) -> Outcome:
        """Run one (strategy, mantissa) combination of Figure 1.

        ``strategy`` is one of :data:`STRATEGIES`; ``man_bits`` is ignored
        for the "none" (reference) strategy.  Pass one :meth:`initial_state`
        as ``prefix`` to share the spin-up across strategies.
        """
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        cfg = self.config
        rt = runtime if runtime is not None else RaptorRuntime(f"bubble-{strategy}-{man_bits}")
        if strategy == "none":
            adv_ctx = diff_ctx = None
            mask_fn = None
        else:
            fmt = FPFormat(cfg.exp_bits, man_bits)
            adv_ctx = TruncatedContext(fmt, runtime=rt, module="advection")
            diff_ctx = TruncatedContext(fmt, runtime=rt, module="diffusion")
            mask_fn = self._mask_fn(strategy)
        return self._execute(
            adv_ctx, diff_ctx, mask_fn, rt, strategy, f"{strategy}@m{man_bits}", prefix=prefix
        )

    # ------------------------------------------------------------------
    def _execute(
        self,
        adv_ctx,
        diff_ctx,
        mask_fn,
        rt: RaptorRuntime,
        strategy: str,
        policy_label: str,
        plane: str = "auto",
        prefix: Optional[Dict[str, object]] = None,
    ) -> Outcome:
        cfg = self.config
        solver = self._fresh_solver(plane, prefix)

        snapshots: Dict[float, np.ndarray] = {}
        centroids: List[float] = []
        start_time = solver.time
        remaining = sorted(cfg.snapshot_times)

        def callback(s: BubbleSolver) -> None:
            centroids.append(s.bubble_centroid()[1])
            while remaining and s.time - start_time >= remaining[0] - 1e-9:
                snapshots[remaining.pop(0)] = s.levelset.phi.copy()

        solver.run(
            t_end=cfg.truncation_time,
            advection_ctx=adv_ctx,
            diffusion_ctx=diff_ctx,
            truncate_mask_fn=mask_fn,
            fixed_dt=cfg.fixed_dt,
            callback=callback,
        )
        # guarantee a final snapshot even if snapshot_times exceed the run
        snapshots.setdefault(cfg.truncation_time, solver.levelset.phi.copy())

        snap_times = sorted(snapshots)
        state: Dict[str, np.ndarray] = {
            "phi": snapshots[snap_times[-1]],
            "centroid": np.asarray(centroids, dtype=np.float64),
            "snapshot_times": np.asarray(snap_times, dtype=np.float64),
        }
        for i, t in enumerate(snap_times):
            state[f"phi_snap{i}"] = snapshots[t]
        return Outcome(
            workload=self.name,
            state=state,
            time=solver.time,
            info={
                "gas_volume": float(solver.gas_volume()),
                "fragments": float(solver.interface_fragment_count()),
                "centroid_rise": float(centroids[-1] - centroids[0]) if centroids else 0.0,
            },
            kind=self.kind,
            metadata={"workload": self.name, "strategy": strategy, "policy": policy_label},
            runtime=rt,
        )

    # ------------------------------------------------------------------
    def error(self, outcome: Outcome, reference: Outcome) -> float:
        """Mean |phi - phi_ref| over the final snapshot (the interface-shape
        metric behind Figure 1)."""
        return float(np.mean(np.abs(outcome.state["phi"] - reference.state["phi"])))

    # ------------------------------------------------------------------
    def truncation_config(self, man_bits: int) -> TruncationConfig:
        """The op-mode configuration the strategies correspond to."""
        return TruncationConfig.mantissa(man_bits, exp_bits=self.config.exp_bits)
