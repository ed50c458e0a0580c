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

A context tells its kernels how to run through one method,
``ctx.rounder(ws)`` (:mod:`repro.kernels.trunc`): the
:data:`~repro.kernels.trunc.EXACT` rounder on ``FastPlaneContext``, a
:class:`~repro.kernels.trunc.Round` of its format on
``TruncFastPlaneContext``, and None on every context that computes op by
op.  A counted context (``ctx.ledger``) first replays its ledger and then
computes on ``ctx.fused_twin()``, whose rounder the kernels take.

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
    "is_fast_eligible",
    "is_trunc_fast_eligible",
    "is_ledger_eligible",
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


def is_fast_eligible(ctx: FPContext) -> bool:
    """Whether the fused binary64 context preserves ``ctx``'s semantics bit
    for bit.

    True exactly for plain binary64 contexts: a (subclass of)
    :class:`FullPrecisionContext` that does not truncate.  Truncated and
    shadow contexts perform the measurement and are never substituted.
    """
    return isinstance(ctx, FullPrecisionContext) and not ctx.truncating


def is_trunc_fast_eligible(ctx: FPContext) -> bool:
    """Whether the fused truncating context preserves ``ctx``'s semantics bit
    for bit *and* loses nothing by dropping the counters.

    True exactly for optimized op-mode :class:`TruncatedContext`\\ s that
    record nothing: ``count_ops``/``track_memory``/``track_errors`` all
    off.  A counting truncating context *is* the measurement and keeps its
    counters (see :func:`is_ledger_eligible`); shadow (mem-mode) contexts are not
    ``TruncatedContext`` subclasses and are excluded structurally; the
    naive (``optimized=False``) path re-quantises every operand, which the
    fused twins do not reproduce.
    """
    return (
        isinstance(ctx, TruncatedContext)
        and ctx.optimized
        and not (ctx.count_ops or ctx.track_memory or ctx.track_errors)
    )


def is_ledger_eligible(ctx: FPContext) -> bool:
    """Whether ``ctx`` may ride the counted fused plane
    (:mod:`repro.kernels.ledger`) with byte-identical counters.

    True exactly for *counting* op-mode contexts whose records depend only
    on the op stream and the array shapes: optimized
    :class:`TruncatedContext`\\ s without ``track_errors`` (per-location
    error statistics depend on the data) and plain binary64 contexts.
    Shadow (mem-mode) and naive truncating contexts never qualify.
    """
    if not (getattr(ctx, "count_ops", False) or getattr(ctx, "track_memory", False)):
        return False
    if isinstance(ctx, TruncatedContext):
        return ctx.optimized and not ctx.track_errors
    return is_fast_eligible(ctx)


def select_context(ctx: FPContext, plane: str = DEFAULT_PLANE) -> FPContext:
    """The context that should actually execute, given the requested plane.

    Returns ``ctx`` itself whenever substitution would change semantics
    (error-tracking / naive truncating / shadow contexts, the
    ``"instrumented"`` plane) or has already happened.  Counting op-mode
    contexts move to the counted fused plane, which keeps their counters
    byte-identical; contexts that record nothing move to their fused
    context.
    """
    validate_plane(plane)
    if plane == "instrumented" or ctx.ledger or ctx.rounder() is not None:
        return ctx
    if is_trunc_fast_eligible(ctx):
        return TruncFastPlaneContext.from_context(ctx)
    if isinstance(ctx, TruncatedContext):
        # a counting truncating context is the measurement: it keeps every
        # counter, replayed from a ledger where it can
        return LedgerTruncatedContext.from_context(ctx) if is_ledger_eligible(ctx) else ctx
    if not is_fast_eligible(ctx):
        return ctx
    if ctx.count_ops or ctx.track_memory:
        return LedgerFullContext.from_context(ctx)
    return FastPlaneContext(runtime=ctx.runtime, module=ctx.module)
