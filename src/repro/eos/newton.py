"""Newton–Raphson inversion of the tabulated EOS.

Flash-X's Helmholtz EOS is tabulated in (density, temperature) but the hydro
solver provides (density, internal energy); a Newton–Raphson iteration on
temperature closes the gap.  Hypothesis 2 of the paper assumed this module
would tolerate reduced precision because it "only extrapolates from a table
look-up" — and was falsified: with fewer than ~42 mantissa bits the
iteration stops converging within the permitted iteration count, even after
the tolerance was relaxed and the iteration limit raised.

This module reproduces that mechanism: every arithmetic operation of the
residual, derivative, and update goes through the numerics context, so when
the context truncates, the residual stalls at the truncation noise floor and
the iteration exhausts ``max_iterations``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.opmode import FPContext, FullPrecisionContext
from ..kernels import eos as keos
from ..kernels.ledger import fused_kind, fused_rounder, ledger_for
from .table import DERIVATIVE_EPS, HelmholtzTable

__all__ = ["NewtonSolverConfig", "NewtonResult", "invert_energy"]


@dataclass
class NewtonSolverConfig:
    """Controls of the Newton–Raphson inversion (Flash-X-like defaults)."""

    tolerance: float = 1e-10      # relative residual |e(T) - e_target| / e_target
    max_iterations: int = 40
    relaxation: float = 1.0       # under-relaxation factor for the update
    temperature_floor: float = 1.2e7
    temperature_ceiling: float = 9e9
    #: per-iteration multiplicative bound on the temperature change
    #: (safeguard against runaway Newton steps from poor initial guesses,
    #: as in Flash-X's bounded Newton implementation)
    max_step_factor: float = 10.0


@dataclass
class NewtonResult:
    """Outcome of one (vectorised) inversion call."""

    temperature: np.ndarray
    iterations: int
    converged: bool
    max_residual: float
    residual_history: list

    @property
    def failed(self) -> bool:
        return not self.converged


def _residual(table: HelmholtzTable, rho, temp, energy_target, ctx: FPContext):
    """``e(rho, temp) - energy_target`` through ``ctx``."""
    e_guess = table.energy(rho, temp, ctx)
    return ctx.sub(e_guess, energy_target, "eos:nr_residual")


def _update(table: HelmholtzTable, rho, temp, residual, relaxation: float, ctx: FPContext):
    """The Newton iterate after ``temp``, through ``ctx``."""
    dedt = table.energy_derivative(rho, temp, ctx)
    step = ctx.div(residual, dedt, "eos:nr_step")
    if relaxation != 1.0:
        step = ctx.mul(ctx.const(relaxation), step, "eos:nr_relax")
    return ctx.sub(temp, step, "eos:nr_update")


class _Counted:
    """The fused ``step`` charged with the ledger of ``step_in``, the same
    step op by op through a context (its last argument).

    Each step's ops run on whole arrays, so its counters depend only on the
    operand shapes; the ledger is recorded on the first call with that
    call's operands.
    """

    def __init__(self, step: Callable, step_in: Callable, name: str, static: tuple,
                 ctx: FPContext) -> None:
        self.step, self.step_in, self.name, self.static, self.ctx = step, step_in, name, static, ctx

    def ledger(self, *args):
        """The ledger of one call on operands shaped like ``args``."""
        key = ("eos", self.name, self.static, tuple(np.shape(a) for a in args))
        return ledger_for(key, self.ctx, lambda twin: self.step_in(*args, twin))

    def __call__(self, *args):
        self.ledger(*args).replay(self.ctx.runtime)
        return self.step(*args)


def invert_energy(
    table: HelmholtzTable,
    rho: np.ndarray,
    energy_target: np.ndarray,
    temperature_guess: np.ndarray,
    config: Optional[NewtonSolverConfig] = None,
    ctx: Optional[FPContext] = None,
) -> NewtonResult:
    """Solve ``e(rho, T) = energy_target`` for T with Newton–Raphson.

    All floating-point work is routed through ``ctx``; pass a truncating
    context to reproduce the Cellular EOS-truncation experiment.  Fused
    contexts run the steps of :class:`repro.kernels.eos.NewtonSteps`,
    bit-identical; a counted one charges a residual ledger per iteration
    and an update ledger per iteration that does not converge — the
    iteration count depends on the data, each iteration's op stream only
    on the shapes.  On the fused planes a solve whose iterate repeats
    bitwise has stalled in a cycle; it returns at once with the result
    of running the cycle to ``max_iterations`` (see :func:`_replay_tail`)
    — the instrumented plane iterates it out.

    Returns a :class:`NewtonResult`; ``converged`` is True only if **every**
    cell reached the relative tolerance within ``max_iterations``.
    """
    cfg = config or NewtonSolverConfig()
    ctx = ctx or FullPrecisionContext(count_ops=False, track_memory=False)

    rho = np.asarray(rho, dtype=np.float64)
    energy_target = np.asarray(energy_target, dtype=np.float64)
    # the two steps of an iteration, op by op through a context
    residual_in = lambda temp, c: _residual(table, rho, temp, energy_target, c)
    update_in = lambda temp, residual, c: _update(table, rho, temp, residual, cfg.relaxation, c)
    residual_of = lambda temp: residual_in(temp, ctx)
    update_of = lambda temp, residual: update_in(temp, residual, ctx)
    const, plain = ctx.const, ctx.asplain
    fused = fused_kind(ctx) is not None
    if fused:
        steps = keos.NewtonSteps(
            table, rho, energy_target, cfg.relaxation, fused_rounder(ctx), DERIVATIVE_EPS
        )
        residual_of, update_of = steps.residual, steps.update
        const, plain = steps.const, steps.plain
        if ctx.ledger:
            static = (rho.shape, energy_target.shape, cfg.relaxation != 1.0)
            residual_of = _Counted(residual_of, residual_in, "newton-residual", static, ctx)
            update_of = _Counted(update_of, update_in, "newton-update", static, ctx)

    # the fused planes spot a stalled solve's cycle (see _replay_tail):
    # every iterate so far, and the first index of each iterate's bytes
    iterates, first_index = [], {}

    def first_of(iterate) -> int:
        """Append ``iterate``; the index of the first iterate bitwise equal
        to it."""
        iterates.append(iterate)
        return first_index.setdefault((iterate.shape, iterate.tobytes()), len(iterates) - 1)

    temp = const(np.asarray(temperature_guess, dtype=np.float64))
    if fused:
        first_of(plain(temp))
    history = []
    max_res = np.inf
    # A stalled low-precision solve divides by a zero derivative by design
    # (both perturbed lookups round to the same energy), and the clip below
    # bounds the infinite step: those warnings are expected.
    with np.errstate(divide="ignore", invalid="ignore"):
        for iteration in range(1, cfg.max_iterations + 1):
            residual = residual_of(temp)
            rel = np.abs(plain(residual)) / np.maximum(np.abs(energy_target), 1e-300)
            max_res = float(np.max(rel))
            history.append(max_res)
            if max_res < cfg.tolerance:
                return NewtonResult(plain(temp), iteration, True, max_res, history)

            temp_old_plain = plain(temp)
            temp = update_of(temp, residual)
            # keep the iterate inside the table and bound the per-iteration
            # change (plain clamps: control flow / safeguarding, not
            # floating-point physics)
            temp_plain = np.clip(
                plain(temp),
                np.maximum(cfg.temperature_floor, temp_old_plain / cfg.max_step_factor),
                np.minimum(cfg.temperature_ceiling, temp_old_plain * cfg.max_step_factor),
            )
            temp = const(temp_plain)
            if fused and iteration < cfg.max_iterations:
                first = first_of(plain(temp))
                if first < iteration:
                    return _replay_tail(iterates, history, first, cfg.max_iterations,
                                        residual_of, update_of, residual, ctx)

    return NewtonResult(plain(temp), cfg.max_iterations, False, max_res, history)


def _replay_tail(iterates, history, first, n, residual_of, update_of, residual,
                 ctx) -> NewtonResult:
    """The result of a fused solve whose latest iterate ``k`` equals
    iterate ``first`` bitwise, with ``k < n`` iterations run.

    An iteration is a function of its iterate alone (``rho``, the target,
    the relaxation and the clip settings are fixed for the call, and the
    clip bounds follow from the iterate), so the iterates repeat with
    period ``k - first`` from ``first`` on, and none of them converges —
    the residual of each cycle iterate was computed and rejected.  The
    remaining ``n - k`` iterations are replayed: the final iterate and the
    residual history come from the cycle, and a counted context is charged
    ``n - k`` residual and update ledgers.
    """
    k = len(iterates) - 1
    period = k - first
    history.extend(history[first + (m - first) % period] for m in range(k, n))
    if ctx.ledger:
        temp = iterates[k]
        residual_of.ledger(temp).replay(ctx.runtime, times=n - k)
        update_of.ledger(temp, residual).replay(ctx.runtime, times=n - k)
    return NewtonResult(iterates[first + (n - first) % period], n, False, history[-1], history)
