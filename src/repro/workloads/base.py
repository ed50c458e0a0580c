"""Common driver machinery for the compressible (AMR + hydro) workloads.

The Sedov and Sod workloads share everything except their initial
conditions: a block-AMR grid refined by the Löhner estimator, the Spark-like
hydro solver, a truncation policy plugged in as the solver's context
provider, and an sfocu comparison of the final state against the
full-precision reference — exactly the experimental loop of Section 5.

Every compressible workload implements the scenario protocol of
:mod:`repro.workloads.scenario`: ``run`` returns an :class:`Outcome` whose
state is the finest-level covering-grid checkpoint, and ``error`` is the
sfocu L1 norm of the density field.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..amr.grid import AMRGrid
from ..core.runtime import RaptorRuntime
from ..core.selective import NoTruncationPolicy, TruncationPolicy
from ..hydro.solver import HydroSolver
from ..io.checkpoint import Checkpoint
from .registry import register_workload
from .scenario import Outcome, Scenario

__all__ = ["CompressibleConfig", "CompressibleWorkload", "PRIMITIVE_VARS"]

PRIMITIVE_VARS = ("dens", "velx", "vely", "pres")


@dataclass
class CompressibleConfig:
    """Grid/solver configuration shared by the compressible workloads."""

    nxb: int = 8
    nyb: int = 8
    n_root_x: int = 2
    n_root_y: int = 2
    max_level: int = 3
    ng: int = 3
    #: "outflow" / "periodic" / "reflect", or {"x": kind, "y": kind}
    boundary: Union[str, Dict[str, str]] = "outflow"
    #: constant body acceleration (gx, gy); (0, 0) adds no source term
    gravity: Tuple[float, float] = (0.0, 0.0)
    gamma: float = 1.4
    reconstruction: str = "plm"
    riemann: str = "hllc"
    rk_stages: int = 1
    cfl: float = 0.4
    t_end: float = 0.05
    fixed_dt: Optional[float] = None
    regrid_interval: int = 4
    refine_vars: Tuple[str, ...] = ("dens", "pres")
    refine_cutoff: float = 0.55
    derefine_cutoff: float = 0.15

    @property
    def finest_cells(self) -> Tuple[int, int]:
        factor = 1 << (self.max_level - 1)
        return (self.n_root_x * self.nxb * factor, self.n_root_y * self.nyb * factor)


class CompressibleWorkload(Scenario):
    """Base class for the compressible (AMR + hydro) workloads.

    Concrete subclasses that define their own ``name`` are automatically
    registered in :mod:`repro.workloads.registry`; set
    ``register = False`` on a subclass to opt out (e.g. test doubles).
    ``aliases`` adds alternative registry names.
    """

    name = "compressible"
    config_class = CompressibleConfig
    register = True
    aliases: Tuple[str, ...] = ()
    kind = "compressible"
    error_variables = PRIMITIVE_VARS
    default_error_variables = ("dens",)
    default_modules = ("hydro",)
    #: the variable whose sfocu L1 norm is the scalar error metric
    error_variable = "dens"
    cliff_threshold = 1e-3

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # aliases uses own-dict lookup so a subclass does not re-register its
        # parent's aliases; register is plain attribute lookup (inherited
        # opt-outs propagate)
        if cls.register and "name" in cls.__dict__:
            register_workload(cls, aliases=cls.__dict__.get("aliases", ()))

    def __init__(self, config: Optional[CompressibleConfig] = None) -> None:
        self.config = config or self.config_class()

    # -- to be overridden by concrete workloads ------------------------------
    def initial_condition(self, x: np.ndarray, y: np.ndarray) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def domain(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        return (0.0, 1.0), (0.0, 1.0)

    # ------------------------------------------------------------------
    def build_grid(self) -> AMRGrid:
        cfg = self.config
        xlim, ylim = self.domain()
        grid = AMRGrid(
            list(PRIMITIVE_VARS),
            xlim=xlim,
            ylim=ylim,
            nxb=cfg.nxb,
            nyb=cfg.nyb,
            n_root_x=cfg.n_root_x,
            n_root_y=cfg.n_root_y,
            max_level=cfg.max_level,
            ng=cfg.ng,
            boundary=cfg.boundary,
        )
        grid.initialize_with_refinement(
            self.initial_condition,
            list(cfg.refine_vars),
            refine_cutoff=cfg.refine_cutoff,
            derefine_cutoff=cfg.derefine_cutoff,
        )
        return grid

    def initial_state(self) -> AMRGrid:
        """The refined initial grid: the binary64 prefix of every run."""
        return self.build_grid()

    def build_solver(self) -> HydroSolver:
        cfg = self.config
        from ..hydro.eos import GammaLawEOS

        return HydroSolver(
            eos=GammaLawEOS(gamma=cfg.gamma),
            reconstruction=cfg.reconstruction,
            riemann=cfg.riemann,
            cfl=cfg.cfl,
            rk_stages=cfg.rk_stages,
            gravity=cfg.gravity,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        policy: Optional[TruncationPolicy] = None,
        runtime: Optional[RaptorRuntime] = None,
        t_end: Optional[float] = None,
        fixed_dt: Optional[float] = None,
        regrid: Optional[bool] = None,
        prefix: Optional[AMRGrid] = None,
    ) -> Outcome:
        """Execute the workload under a truncation policy.

        ``policy=None`` runs the full-precision reference (with operation
        counting still enabled so truncated fractions can be reported).
        ``prefix`` is an :meth:`initial_state` grid to start from; the run
        evolves a deep copy of it, so one prefix serves many runs.
        """
        cfg = self.config
        rt = runtime if runtime is not None else RaptorRuntime(self.name)
        pol = policy if policy is not None else NoTruncationPolicy(runtime=rt)

        grid = copy.deepcopy(prefix) if prefix is not None else self.build_grid()
        solver = self.build_solver()

        def provider(module, level=None, max_level=None):
            return pol.context_for(module=module, level=level, max_level=max_level)

        do_regrid = cfg.regrid_interval if (regrid is None or regrid) else 0
        summary = solver.evolve(
            grid,
            t_end=t_end if t_end is not None else cfg.t_end,
            provider=provider,
            fixed_dt=fixed_dt if fixed_dt is not None else cfg.fixed_dt,
            regrid_interval=do_regrid,
            refine_vars=cfg.refine_vars,
            refine_cutoff=cfg.refine_cutoff,
            derefine_cutoff=cfg.derefine_cutoff,
        )

        checkpoint = Checkpoint.from_grid(
            grid,
            variables=list(PRIMITIVE_VARS),
            time=summary["time"],
            metadata={"workload": self.name, "policy": pol.describe()},
            level=cfg.max_level,
        )
        info = dict(summary)
        info["n_leaves"] = float(grid.n_leaves)
        info["finest_level"] = float(grid.finest_level)
        return Outcome(
            workload=self.name,
            state=checkpoint.data,
            time=checkpoint.time,
            info=info,
            kind=self.kind,
            metadata=checkpoint.metadata,
            runtime=rt,
            grid=grid,
        )

    def error(self, outcome: Outcome, reference: Outcome) -> float:
        """sfocu L1 error of the density field (the paper's headline norm)."""
        return outcome.l1_error(reference, self.error_variable)
