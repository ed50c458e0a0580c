"""The counted fused plane: replay a per-block op/byte ledger.

A *counting* context — the sweep default, ``count_ops``/``track_memory``
on, ``track_errors`` off — used to pin every solver to the instrumented
plane: hundreds of thousands of op-by-op ``_apply`` calls per point, each
quantising a fresh array and updating four runtime counters.  Yet in that
configuration the counters of a compressible block update depend only on
the *operation stream* and the *array shapes*, never on the data: every
context op runs on whole arrays (``where`` selects, it does not branch),
``n`` is the result size and the byte charge is
``8 * (n + Σ input sizes)``.  So the counters of one block update are a
fixed **ledger** per (solver configuration, block shape, context kind) —

* record it once, by running the instrumented update of a probe block of
  that shape against a :class:`LedgerRecorder` (a duck-typed runtime that
  only adds integers), and
* replay it per *logical* block afterwards — ``times=len(stack)`` for a
  batched ``(nblocks, nx, ny)`` call, so scalar and broadcast operands are
  charged once per block exactly as on the per-block instrumented path —

while the state itself comes from the fused kernels of
:mod:`repro.kernels.flux`, run with the rounder of :func:`fused_rounder`,
bit-identical to the instrumented update.  Snapshots are byte-identical to the
instrumented plane: the same totals, the same per-module counters, no
per-location entries (those only exist with ``track_errors``).

The other solvers replay a ledger per call of a whole operator through
:func:`replay_fused`, which charges the call's ledger and hands back the
context's non-counting fused twin to compute with: the bubble's
advection, diffusion and level-set operators, the cellular table
interpolation, the burn network, and the Newton EOS inversion — whose
iteration count depends on the data, so it replays one residual ledger
per iteration and one update ledger per iteration that does not converge.

:class:`LedgerTruncatedContext` / :class:`LedgerFullContext` mark a
counting context as eligible (``ledger = True``).  They *are* the counting
contexts in every other respect: a kernel without a ledger-aware path
calls their op-by-op methods and counts exactly as before.
Error-tracking, naive (``optimized=False``) and shadow (mem-mode) contexts
never qualify: their records depend on the data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from ..core.opmode import FPContext, FullPrecisionContext, TruncatedContext
from .fast import FastPlaneContext
from .scratch import Workspace
from .trunc import EXACT, Round, TruncFastPlaneContext

__all__ = [
    "OpLedger",
    "LedgerRecorder",
    "LedgerTruncatedContext",
    "LedgerFullContext",
    "fused_kind",
    "fused_rounder",
    "ledger_for",
    "replay_fused",
]


def fused_kind(ctx: FPContext) -> Optional[str]:
    """The fused twins ``ctx`` runs on: ``"b64"`` (binary64), ``"trunc"``
    (quantize at every op boundary), or None for the op-by-op path."""
    if getattr(ctx, "fused", False):
        return "b64"
    if getattr(ctx, "fused_trunc", False):
        return "trunc"
    if getattr(ctx, "ledger", False):
        return "trunc" if ctx.truncating else "b64"
    return None


def fused_rounder(ctx: FPContext, ws: Optional[Workspace] = None):
    """The rounder of the fused twin ``ctx`` runs (:func:`fused_kind`):
    :data:`~repro.kernels.trunc.EXACT` for ``"b64"``, a
    :class:`~repro.kernels.trunc.Round` of the context's format for
    ``"trunc"``."""
    if fused_kind(ctx) == "trunc":
        return Round(ctx.fmt, ctx.rounding, ws)
    return EXACT


@dataclass(frozen=True)
class OpLedger:
    """The counters one logical block update charges to its runtime."""

    #: ``(module, truncated ops, full ops)`` in first-recorded order
    modules: Tuple[Tuple[Optional[str], int, int], ...]
    truncated_bytes: int
    full_bytes: int

    def replay(self, runtime, times: int = 1) -> None:
        """Charge ``times`` block updates' worth of counters to ``runtime``
        — one runtime call per counter instead of one per op."""
        for module, truncated, full in self.modules:
            runtime.record_truncated_ops(truncated * times, module=module)
            runtime.record_full_ops(full * times, module=module)
        runtime.record_truncated_bytes(self.truncated_bytes * times)
        runtime.record_full_bytes(self.full_bytes * times)


class LedgerRecorder:
    """Runtime stand-in that sums what an instrumented context records.

    Implements the four ``record_*`` methods the op-mode contexts call.
    It is deliberately not a :class:`~repro.core.runtime.RaptorRuntime`:
    recording a ledger must not look like a run to anything that tracks
    runtimes.
    """

    def __init__(self) -> None:
        self._ops: Dict[Optional[str], list] = {}
        self._bytes = [0, 0]

    def record_truncated_ops(self, n, location=None, module=None, abs_err=None,
                             rel_err=None, flagged=0) -> None:
        if n > 0:
            self._ops.setdefault(module, [0, 0])[0] += int(n)

    def record_full_ops(self, n, module=None) -> None:
        if n > 0:
            self._ops.setdefault(module, [0, 0])[1] += int(n)

    def record_truncated_bytes(self, n) -> None:
        if n > 0:
            self._bytes[0] += int(n)

    def record_full_bytes(self, n) -> None:
        if n > 0:
            self._bytes[1] += int(n)

    def ledger(self) -> OpLedger:
        return OpLedger(
            modules=tuple((module, t, f) for module, (t, f) in self._ops.items()),
            truncated_bytes=self._bytes[0],
            full_bytes=self._bytes[1],
        )


class LedgerTruncatedContext(TruncatedContext):
    """A counting optimized truncating context on the counted fused plane.

    Ledger-aware kernels run the fused truncating twins and replay the
    block's ledger; everything else uses the inherited op-by-op methods.
    """

    plane = "fast"
    ledger = True

    @classmethod
    def from_context(cls, ctx: TruncatedContext) -> "LedgerTruncatedContext":
        return cls(
            ctx.fmt,
            runtime=ctx.runtime,
            module=ctx.module,
            optimized=True,
            count_ops=ctx.count_ops,
            track_memory=ctx.track_memory,
            track_errors=False,
            rounding=ctx.rounding,
        )

    def recording_twin(self, sink) -> TruncatedContext:
        """The instrumented context this one stands for, counting into ``sink``."""
        return TruncatedContext(
            self.fmt,
            runtime=sink,
            module=self.module,
            optimized=True,
            count_ops=self.count_ops,
            track_memory=self.track_memory,
            rounding=self.rounding,
        )

    def fused_twin(self) -> TruncFastPlaneContext:
        """The non-counting fused truncating context that computes the
        bits while the ledger supplies the counters."""
        return TruncFastPlaneContext.from_context(self)


class LedgerFullContext(FullPrecisionContext):
    """A counting binary64 context on the counted fused plane."""

    plane = "fast"
    ledger = True

    @classmethod
    def from_context(cls, ctx: FullPrecisionContext) -> "LedgerFullContext":
        return cls(
            runtime=ctx.runtime,
            count_ops=ctx.count_ops,
            track_memory=ctx.track_memory,
            module=ctx.module,
        )

    def recording_twin(self, sink) -> FullPrecisionContext:
        return FullPrecisionContext(
            runtime=sink,
            count_ops=self.count_ops,
            track_memory=self.track_memory,
            module=self.module,
        )

    def fused_twin(self) -> FastPlaneContext:
        return FastPlaneContext(runtime=self.runtime, module=self.module)


#: recorded ledgers, keyed by the caller's op-stream signature plus the
#: context's counting signature.  A ledger is a pure function of its key,
#: so one table serves every run in the process; two threads missing the
#: same key at once both record it and store equal values.
_LEDGERS: Dict[Hashable, OpLedger] = {}


def ledger_for(key: Hashable, ctx: FPContext, run: Callable[[FPContext], object]) -> OpLedger:
    """The ledger of one block update under ``ctx``.

    ``key`` must pin everything that shapes the update's op stream apart
    from the context (solver configuration, block shape); the context's
    kind, module and counting flags are added here.  On a miss, ``run`` is
    called once with the instrumented recording twin of ``ctx`` — its
    result is discarded, only the counters it charged are kept, so its
    floating-point warnings are silenced.
    """
    full_key = (key, type(ctx), ctx.module, ctx.count_ops, ctx.track_memory)
    ledger = _LEDGERS.get(full_key)
    if ledger is None:
        sink = LedgerRecorder()
        with np.errstate(all="ignore"):
            run(ctx.recording_twin(sink))
        ledger = _LEDGERS[full_key] = sink.ledger()
    return ledger


def replay_fused(key: Hashable, ctx: FPContext, run: Callable[[FPContext], object]) -> FPContext:
    """Charge one ledger of ``run`` (see :func:`ledger_for`) to ``ctx``'s
    runtime and return the non-counting fused context that computes the
    call's bits.

    The counted-plane idiom for a whole-operator call whose op stream
    depends only on shapes::

        if ctx.ledger:
            ctx = replay_fused(key, ctx, lambda twin: self.op(x, twin))
        ...  # the fused path of ``ctx`` from here on
    """
    ledger_for(key, ctx, run).replay(ctx.runtime)
    return ctx.fused_twin()
