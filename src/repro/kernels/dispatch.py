"""Kernel-plane selection: which execution plane a context runs on.

The kernel plane decides *how* a numerics context executes, never *what* it
computes.  There are two:

* ``"instrumented"`` — every context stays on the classic op-by-op plane
  (:mod:`repro.core.opmode` / :mod:`repro.core.memmode`): per-op counter
  updates, truncation, error tracking, shadow values.  Bit-for-bit the
  pre-kernel-plane behaviour, counters included.
* ``"auto"`` (default) — fused wherever the counters survive.  Contexts
  that record nothing (``count_ops`` and ``track_memory`` both off) move to
  a fused context: plain binary64 ones become the
  :class:`~repro.kernels.fast.FastPlaneContext`, optimized truncating ones
  the :class:`~repro.kernels.trunc.TruncFastPlaneContext`.  Counting
  op-mode contexts move to the **counted fused plane** of
  :mod:`repro.kernels.ledger` — ledger-aware kernels (the compressible
  block update, the bubble operators, the cellular EOS and burn network)
  run fused and replay op/byte ledgers, any other kernel counts op by op.
  States are bit-identical to the instrumented plane and reported
  counters byte-identical.

A context tells a solver operator how to run through one method,
``ctx.rounder(ws)`` (:mod:`repro.kernels.trunc`): the
:data:`~repro.kernels.trunc.EXACT` rounder on ``FastPlaneContext``, a
:class:`~repro.kernels.trunc.Round` of its format on
``TruncFastPlaneContext``, and None on every context that computes op by
op.  A counted context (``ctx.ledger``) first replays its ledger and then
computes on ``ctx.fused_twin()``, whose rounder the kernels take.  Only
whole solver operators ask; the helpers below them compute op by op.

Error-tracking, naive (``optimized=False``) and shadow contexts always
remain instrumented on both planes.

Reference runs need no plane of their own: the experiment engine never
consumes their counters, so it builds them non-counting
(``NoTruncationPolicy(count_ops=False, track_memory=False)``), which
``"auto"`` runs on ``FastPlaneContext`` — a reference simply carries zeroed
counters in its snapshot.
"""
from __future__ import annotations

from ..core.opmode import FPContext, FullPrecisionContext, TruncatedContext
from .fast import FastPlaneContext
from .ledger import LedgerFullContext, LedgerTruncatedContext
from .trunc import TruncFastPlaneContext

__all__ = [
    "PLANES",
    "DEFAULT_PLANE",
    "validate_plane",
    "select_context",
]

#: the kernel planes a policy / spec may request
PLANES = ("instrumented", "auto")

#: plane used when nothing is requested explicitly
DEFAULT_PLANE = "auto"


def validate_plane(plane: str) -> str:
    """Check a plane name and return it (fail fast at spec-validation time)."""
    if plane not in PLANES:
        raise ValueError(f"unknown kernel plane {plane!r}; choose from {PLANES}")
    return plane


def select_context(ctx: FPContext, plane: str = DEFAULT_PLANE) -> FPContext:
    """The context that should actually execute, given the requested plane.

    ``ctx`` itself on the ``"instrumented"`` plane, once substituted (a
    counted or fused context), and wherever substitution would change the
    measurement: error-tracking contexts (their per-location statistics
    depend on the data), naive (``optimized=False``) truncating ones (the
    fused kernels do not re-quantise operands) and shadow (mem-mode) ones.
    Otherwise an optimized truncating context moves to the counted fused
    plane (:class:`LedgerTruncatedContext`) when it counts — its counters
    depend only on the op stream and the array shapes, so a replayed
    ledger keeps them byte-identical — and to :class:`TruncFastPlaneContext`
    when it records nothing; a plain binary64 context likewise moves to
    :class:`LedgerFullContext` or :class:`FastPlaneContext`.
    """
    validate_plane(plane)
    if plane == "instrumented" or ctx.ledger or ctx.rounder() is not None:
        return ctx
    if isinstance(ctx, TruncatedContext):
        if not ctx.optimized or ctx.track_errors:
            return ctx
        if ctx.count_ops or ctx.track_memory:
            return LedgerTruncatedContext.from_context(ctx)
        return TruncFastPlaneContext.from_context(ctx)
    if not isinstance(ctx, FullPrecisionContext) or ctx.truncating:
        return ctx
    if ctx.count_ops or ctx.track_memory:
        return LedgerFullContext.from_context(ctx)
    return FastPlaneContext(runtime=ctx.runtime, module=ctx.module)
