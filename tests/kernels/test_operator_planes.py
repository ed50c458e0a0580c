"""The kernel plane is chosen once per solver operator.

Whole sweeps on the default ``"auto"`` plane — counting and not — run
every solver family while spies watch the helpers below the operators:
no gamma-law EOS method, ``riemann.SOLVERS`` entry, ``reconstruct``,
``LevelSet.advect``, ``BubbleSolver._upwind_derivative`` or op-by-op
``HydroSolver.advance_block`` may ever receive a context with a
``rounder()``.  Only the operators — the hydro substep, the bubble
advection/diffusion/level-set operators — pick a fused kernel.
"""
import collections

import numpy as np
import pytest

from repro.core import FPContext
from repro.experiments import PolicySpec, SweepSpec, run_sweep
from repro.hydro import reconstruction
from repro.hydro.eos import GammaLawEOS
from repro.hydro.riemann import SOLVERS
from repro.hydro.solver import HydroSolver
from repro.incomp import BubbleConfig, BubbleSolver
from repro.incomp.levelset import LevelSet
from repro.kernels import ledger

TINY_COMPRESSIBLE = dict(
    nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.004, rk_stages=1
)
TINY_BUBBLE = dict(spin_up_time=0.04, truncation_time=0.04, snapshot_times=(0.04,))
CONFIGS = {
    "sod": dict(TINY_COMPRESSIBLE, reconstruction="plm"),
    "sedov": dict(TINY_COMPRESSIBLE, reconstruction="weno5"),
    "kelvin-helmholtz": TINY_COMPRESSIBLE,
    "cellular": dict(n_cells=16, n_steps=4),
    "bubble": TINY_BUBBLE,
}
UPWIND_BUBBLE = dict(
    TINY_BUBBLE,
    solver=BubbleConfig(nx=16, ny=24, xlim=(-1.0, 1.0), ylim=(-1.0, 2.0),
                        advection_scheme="upwind", reinit_interval=4),
)

EOS_METHODS = ("pressure_from_internal_energy", "internal_energy_from_pressure",
               "sound_speed", "total_energy", "pressure_from_total_energy")


def _spy_helpers(monkeypatch):
    """Wrap every helper; returns ``(calls, fused)``: the number of
    contexts each helper received, and every one that had a rounder."""
    calls = collections.Counter()
    fused = []

    def wrap(name, fn):
        def spy(*args, **kwargs):
            for arg in (*args, *kwargs.values()):
                if isinstance(arg, FPContext):
                    calls[name] += 1
                    if arg.rounder() is not None:
                        fused.append((name, type(arg).__name__))
            return fn(*args, **kwargs)

        return spy

    for method in EOS_METHODS:
        monkeypatch.setattr(GammaLawEOS, method,
                            wrap(f"GammaLawEOS.{method}", getattr(GammaLawEOS, method)))
    for name, fn in list(SOLVERS.items()):
        monkeypatch.setitem(SOLVERS, name, wrap(f"riemann.{name}", fn))
    monkeypatch.setattr("repro.hydro.solver.reconstruct",
                        wrap("reconstruct", reconstruction.reconstruct))
    monkeypatch.setattr(LevelSet, "advect", wrap("LevelSet.advect", LevelSet.advect))
    monkeypatch.setattr(BubbleSolver, "_upwind_derivative",
                        wrap("BubbleSolver._upwind_derivative", BubbleSolver._upwind_derivative))
    monkeypatch.setattr(HydroSolver, "advance_block",
                        wrap("HydroSolver.advance_block", HydroSolver.advance_block))
    return calls, fused


def _sweep(configs, count_point_ops):
    with np.errstate(divide="ignore", invalid="ignore"):
        return run_sweep(SweepSpec(
            workloads=list(configs),
            formats=["bf16"],
            policies=[PolicySpec.everywhere(modules=("hydro", "eos", "advection", "diffusion")),
                      PolicySpec.amr_cutoff(1, modules=("hydro", "advection", "diffusion"))],
            workload_configs=configs,
            count_point_ops=count_point_ops,
        ))


@pytest.mark.parametrize("count_point_ops", [True, False], ids=["counting", "silent"])
def test_helpers_never_receive_a_fused_context(monkeypatch, count_point_ops):
    # a fresh ledger table: counted operators record their ledgers through
    # the helpers again, so the counting run reaches every helper
    monkeypatch.setattr(ledger, "_LEDGERS", {})
    calls, fused = _spy_helpers(monkeypatch)
    results = [_sweep(CONFIGS, count_point_ops),
               _sweep({"bubble": UPWIND_BUBBLE}, count_point_ops)]
    for result in results:
        assert not result.failures
    assert fused == []
    if count_point_ops:
        for name in ("HydroSolver.advance_block", "reconstruct", "riemann.hllc",
                     "GammaLawEOS.total_energy", "LevelSet.advect",
                     "BubbleSolver._upwind_derivative"):
            assert calls[name] > 0, name
