"""Kernel-plane selection: which execution plane a context runs on.

The kernel plane decides *how* a numerics context executes, never *what* it
computes:

* ``"instrumented"`` — every context stays on the classic op-by-op plane
  (:mod:`repro.core.opmode` / :mod:`repro.core.memmode`): per-op counter
  updates, truncation, error tracking, shadow values.  Bit-for-bit the
  pre-kernel-plane behaviour, counters included.
* ``"fast"`` — non-counting contexts move to their fused plane: plain
  binary64 contexts become the :class:`~repro.kernels.fast.FastPlaneContext`
  and non-counting truncating contexts become the
  :class:`~repro.kernels.trunc.TruncFastPlaneContext`; the solvers route
  their hot paths through the pre-fused kernels of
  :mod:`repro.kernels.fused` / :mod:`repro.kernels.flux` /
  :mod:`repro.kernels.trunc` (scratch-buffered and block-batched); the
  bubble solver routes its advection/diffusion/level-set operators through
  the twins of :mod:`repro.kernels.bubble` the same way.  States
  are bit-identical (the fused planes evaluate the same ufunc expression
  trees, quantised at the same op boundaries); the trade is that
  substituted binary64 contexts no longer feed the op/mem counters —
  substituting a counting one is reported with a :class:`UserWarning`.
  *Counting* truncating contexts are the measurement itself and keep
  their counters: they move to the counted fused plane (below).
* ``"auto"`` (default) — fused only where counters survive: contexts that
  would record nothing anyway (``count_ops`` and ``track_memory`` both
  off) take the fused planes above, and counting op-mode contexts take the
  **counted fused plane** of :mod:`repro.kernels.ledger` — ledger-aware
  kernels (the compressible block update, the bubble operators, the
  cellular EOS and burn network) run fused and replay op/byte ledgers,
  any other kernel counts op by op.  Reported counters are byte-identical
  to the instrumented plane.

Error-tracking, naive (``optimized=False``) and shadow contexts always
remain instrumented on every plane.

Reference runs are the special case: the experiment engine never consumes
their counters (point metrics come exclusively from the point runs, and
references are compared by state), so it resolves ``"auto"`` to ``"fast"``
for reference tasks (:func:`reference_plane`) — the cold-sweep hot path
runs fused by default, and a fast-plane reference simply carries zeroed
counters in its snapshot.
"""
from __future__ import annotations

import warnings

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
    "reference_plane",
]

#: the kernel planes a policy / spec may request
PLANES = ("instrumented", "fast", "auto")

#: plane used when nothing is requested explicitly
DEFAULT_PLANE = "auto"


def validate_plane(plane: str) -> str:
    """Check a plane name and return it (fail fast at spec-validation time)."""
    if plane not in PLANES:
        raise ValueError(f"unknown kernel plane {plane!r}; choose from {PLANES}")
    return plane


def is_fast_eligible(ctx: FPContext) -> bool:
    """Whether the binary64 fast plane preserves ``ctx``'s semantics bit
    for bit.

    True exactly for plain binary64 contexts: a (subclass of)
    :class:`FullPrecisionContext` that does not truncate.  Truncated and
    shadow contexts perform the measurement and are never substituted.
    """
    return isinstance(ctx, FullPrecisionContext) and not ctx.truncating


def is_trunc_fast_eligible(ctx: FPContext) -> bool:
    """Whether the truncating fast plane preserves ``ctx``'s semantics bit
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
    ``"instrumented"`` plane).  Counting op-mode contexts move to the
    counted fused plane, which keeps their counters byte-identical — except
    that an explicit ``plane="fast"`` request on a counting binary64
    context substitutes the non-counting fast plane (states stay
    bit-identical, every consumer runs fused) and warns that the counters
    will read zero.
    """
    validate_plane(plane)
    if plane == "instrumented" or getattr(ctx, "plane", "instrumented") != "instrumented":
        return ctx
    if is_trunc_fast_eligible(ctx):
        # non-counting truncating context: the fused truncating plane is a
        # pure, bit-identical win under both "fast" and "auto"
        return TruncFastPlaneContext.from_context(ctx)
    if isinstance(ctx, TruncatedContext):
        # a counting truncating context is the measurement: it keeps every
        # counter on every plane, replayed from a ledger where it can
        return LedgerTruncatedContext.from_context(ctx) if is_ledger_eligible(ctx) else ctx
    if not is_fast_eligible(ctx):
        return ctx
    if ctx.count_ops or ctx.track_memory:
        if plane == "auto":
            return LedgerFullContext.from_context(ctx)
        # explicit "fast" on a counting binary64 context: honour the
        # request, but the caller loses its op/mem counters — say so
        warnings.warn(
            f"plane='fast' substitutes the non-counting fast plane for a "
            f"counting binary64 context (module={ctx.module!r}): its op/mem "
            f"counters will read zero; request plane='auto' to keep them "
            f"(counted fused plane)",
            UserWarning,
            stacklevel=2,
        )
    return FastPlaneContext(runtime=ctx.runtime, module=ctx.module)


def reference_plane(plane: str) -> str:
    """The plane a full-precision *reference* run executes on.

    The engine never consumes reference counters — references are compared
    by state — so ``"auto"`` resolves to ``"fast"``; only an explicit
    ``"instrumented"`` request keeps the counting reference path (needed
    when the reference's own op counts are the object of study).
    """
    validate_plane(plane)
    return "instrumented" if plane == "instrumented" else "fast"
