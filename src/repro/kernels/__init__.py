"""repro.kernels — the kernel-plane layer between policies and solvers.

Solver kernels (:mod:`repro.hydro`, :mod:`repro.incomp`) express their
arithmetic against the :class:`~repro.core.opmode.FPContext` interface;
*this* package decides which execution plane a given context actually runs
on:

* the **instrumented plane** — the op-by-op contexts of
  :mod:`repro.core.opmode` / :mod:`repro.core.memmode` (counters,
  truncation, shadow tracking; unchanged semantics), and
* the **fused binary64 fast plane** — :class:`FastPlaneContext` plus the
  pre-fused stencils of :mod:`repro.kernels.fused` and the full fused
  flux pipeline of :mod:`repro.kernels.flux` (EOS helpers, wave speeds,
  HLL/HLLC/HLLE Riemann solvers, whole-block updates), threaded through
  the preallocated scratch workspaces of :mod:`repro.kernels.scratch` —
  non-truncating, non-instrumenting contexts run as plain vectorized
  numpy with zero per-op bookkeeping and (steady-state) zero temporary
  allocation, bit-identical to the instrumented plane, and
* the **fused truncating fast plane** — :class:`TruncFastPlaneContext`:
  non-counting truncating contexts run the *same* fused kernels with a
  :class:`~repro.kernels.trunc.Round` rounder, which quantises every op
  result at exactly the op boundaries the instrumented plane rounds at,
  bit-identical to the optimized op-by-op truncating path, and
* the **counted fused plane** — :class:`LedgerTruncatedContext` /
  :class:`LedgerFullContext` of :mod:`repro.kernels.ledger`: counting
  contexts whose kernels run fused and replay op/byte ledgers (per block,
  per operator call, per Newton iteration) recorded once from the
  instrumented code, so the counters stay byte-identical to the
  instrumented plane.

Every fused kernel is written once, against a rounder ``q``
(:mod:`repro.kernels.trunc`): :data:`~repro.kernels.trunc.EXACT`, the
identity, evaluates its binary64 op tree; a ``Round`` rounds each op
result to a format.  The precision is swapped underneath one physics
source, as RAPTOR swaps each instruction for an emulated one.

Alongside the context planes, :mod:`repro.kernels.grid` holds the
context-free *grid* side — the slot-index topology plan that fills guard
cells with stacked gathers over the AMR block store, and a stacked
``compute_dt``; it is plain binary64 numpy outside any context, so
instrumented counters stay byte-identical.
:mod:`repro.kernels.bubble` does the same for the incompressible bubble
solver — scratch-buffered twins of its advection/diffusion/level-set/
projection operators, the truncatable ones written against a rounder —
gated by ``RAPTOR_FAST_NO_BUBBLE`` (:func:`bubble_plane_enabled`).
:mod:`repro.kernels.eos` holds the rounder-parameterised twins of the
cellular EOS table interpolation and Newton steps.

Plane selection (:func:`select_context`) is applied centrally by
:class:`~repro.core.selective.TruncationPolicy`, so every workload honours
``plane="instrumented" | "fast" | "auto"`` without solver changes; the
experiment engine threads the choice through ``SweepSpec`` /
``AdaptiveSpec`` and routes reference tasks to the fast plane by default
(:func:`reference_plane`).

For convenience this package re-exports the context interface the solvers
consume, so kernel code depends on ``repro.kernels`` alone.
"""
from ..core.memmode import ShadowContext
from ..core.opmode import FPContext, FullPrecisionContext, TruncatedContext, make_context
from . import bubble, flux, fused, grid, ledger, scratch, trunc
from .dispatch import (
    DEFAULT_PLANE,
    PLANES,
    is_fast_eligible,
    is_ledger_eligible,
    is_trunc_fast_eligible,
    reference_plane,
    select_context,
    validate_plane,
)
from .fast import FastPlaneContext
from .ledger import LedgerFullContext, LedgerTruncatedContext
from .scratch import (
    Workspace,
    bubble_plane_enabled,
    make_workspace,
    scratch_enabled,
)
from .trunc import TruncFastPlaneContext

__all__ = [
    # the context interface solver kernels consume
    "FPContext",
    "FullPrecisionContext",
    "TruncatedContext",
    "ShadowContext",
    "make_context",
    # the fast planes
    "FastPlaneContext",
    "TruncFastPlaneContext",
    "LedgerTruncatedContext",
    "LedgerFullContext",
    "fused",
    "flux",
    "grid",
    "bubble",
    "trunc",
    "ledger",
    # scratch workspaces
    "scratch",
    "Workspace",
    "make_workspace",
    "scratch_enabled",
    "bubble_plane_enabled",
    # plane selection
    "PLANES",
    "DEFAULT_PLANE",
    "validate_plane",
    "is_fast_eligible",
    "is_trunc_fast_eligible",
    "is_ledger_eligible",
    "select_context",
    "reference_plane",
]
