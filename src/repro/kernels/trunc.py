"""The rounders of the fused kernels, and the truncating fast-plane context.

Every fused kernel of :mod:`repro.kernels.fused`, :mod:`repro.kernels.flux`,
:mod:`repro.kernels.bubble` and :mod:`repro.kernels.eos` is written once,
against a *rounder* ``q`` that it applies to the result of every arithmetic
op.  The rounder picks the precision underneath the physics, the way
RAPTOR swaps each op for an emulated one:

* :data:`EXACT` (:class:`Exact`) is the identity: the kernels evaluate
  their binary64 op tree, bit-identical to the instrumented binary64 plane.
* :class:`Round` rounds each result in place to a format and rounding mode
  through :func:`quantize_into`, optionally with the scratch buffers of a
  :class:`~repro.kernels.scratch.Workspace`: the kernels are then
  bit-identical to the optimized instrumented truncating plane.

Bit-identity contract
---------------------
The reference semantics of a :class:`Round` are those of an *optimized*
:class:`~repro.core.opmode.TruncatedContext` (``optimized=True``): every
FLOP is evaluated in binary64 and its **result** is quantised to the
context's format/rounding; operands are assumed to already be
representable (they are, as long as every value in the region was produced
by the same context — the same contract the optimized instrumented path
relies on).  The kernels reproduce that op stream term for term:

* ``q(x)`` follows every ``add``/``sub``/``mul``/``div``/``sqrt``/
  ``square`` — the same boundaries ``TruncatedContext._apply`` rounds at.
* ``maximum``/``minimum``/``abs``/``negative``/``where``/constant fills are
  *closed* over representable operands: quantising their result is the
  identity, so the kernels skip it.  This is never applied to arithmetic
  ops, whose results can fall between representable values.
* Literals go through ``q.const`` exactly like ``TruncatedContext.const``:
  derived constants (``gamma - 1.0``, ``1.0 / 6.0``…) are computed in
  binary64 *first* and then quantised.  Per-step values (``dt / dx``) go
  through the uncached ``q.dyn``, and whole input arrays (the solver's
  ``ctx.const`` lift) through ``q.array``.
* Predicates compare the same values the instrumented twins compare:
  sign agreement in minmod uses the *rounded* product, HLL/HLLC region
  selection uses the *rounded* wave speeds, magnitude comparison uses the
  raw operands (``abs`` being quantise-closed).

Under :data:`EXACT` every one of those calls is the identity, so the same
source evaluates the instrumented binary64 op tree; ``q.array`` returns its
input itself, so the lift costs nothing.

Rounding is element-wise, so stacked lanes — blocks of every AMR level,
the four primitive variables, both sweep directions, both WENO edges —
flow through unchanged and round exactly as standalone calls would.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.fpformat import FPFormat
from ..core.opmode import TruncatedContext
from ..core.quantize import RoundingMode, quantize, quantize_into
from .scratch import Workspace

__all__ = [
    "EXACT",
    "Exact",
    "Round",
    "TruncFastPlaneContext",
    "plane_rounder",
    "quantize_into",
]


class Exact:
    """The binary64 rounder: every op result is already final."""

    __slots__ = ()

    def __call__(self, arr):
        return arr

    def const(self, x: float) -> float:
        return x

    def dyn(self, x):
        return x

    def array(self, x, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``x`` itself (as binary64); ``out`` is not written."""
        return np.asarray(x, dtype=np.float64)


#: the binary64 rounder (stateless: one instance serves every kernel)
EXACT = Exact()

#: quantised scalar constants, keyed by (format, rounding, value) —
#: bounded: only the literal stencil/EOS constants land here (per-step
#: values like dt/dx go through the uncached ``Round.dyn``)
_CONST_CACHE: Dict[Tuple[int, int, str, float], float] = {}


class Round:
    """The truncating rounder bound to one (format, rounding, workspace).

    Every rounding resolves :func:`quantize_into` (arrays) or
    :func:`~repro.core.quantize.quantize` (literals, per-step values, 0-d
    results) through this module's namespace, so tooling that wraps those
    two names here sees every rounding of every fused kernel.
    """

    __slots__ = ("fmt", "rounding", "ws")

    def __init__(self, fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN,
                 ws: Optional[Workspace] = None) -> None:
        self.fmt = fmt
        self.rounding = rounding
        self.ws = ws

    def __call__(self, arr):
        """Round a fresh op result in place (scratch or fresh buffers only,
        never views of caller data).  Ufuncs return scalars for 0-d
        operands: those come back as new 0-d arrays."""
        if isinstance(arr, np.ndarray):
            return quantize_into(arr, self.fmt, self.rounding, self.ws, out=arr)
        return quantize(arr, self.fmt, self.rounding)

    def const(self, x: float) -> float:
        """Cached quantised literal — the twin of ``TruncatedContext.const``."""
        key = (self.fmt.exp_bits, self.fmt.man_bits, self.rounding, x)
        v = _CONST_CACHE.get(key)
        if v is None:
            v = float(quantize(x, self.fmt, self.rounding))
            _CONST_CACHE[key] = v
        return v

    def dyn(self, x):
        """Uncached quantised per-step value (``dt/dx``…): a scalar, or an
        array quantised element-wise (per-block spacings of a stack)."""
        if np.ndim(x):
            return quantize(x, self.fmt, self.rounding)
        return float(quantize(x, self.fmt, self.rounding))

    def array(self, x, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``x`` rounded whole — the twin of ``ctx.const`` on an array —
        into ``out`` (which may be ``x`` itself) or a fresh array."""
        return quantize_into(x, self.fmt, self.rounding, self.ws, out=out)


def plane_rounder(ctx, ws: Optional[Workspace] = None):
    """The rounder a helper-level call site hands the fused kernels.

    :data:`EXACT` on the binary64 fast plane (``ctx.fused``), a
    :class:`Round` of the context's format on the truncating fast plane
    (``ctx.fused_trunc``), and None for every other context: instrumented
    and counted contexts evaluate such helpers op by op, so every op is
    counted where it happens.
    """
    if getattr(ctx, "fused", False):
        return EXACT
    if getattr(ctx, "fused_trunc", False):
        return Round(ctx.fmt, ctx.rounding, ws)
    return None


# ---------------------------------------------------------------------------
# the truncating fast-plane context
# ---------------------------------------------------------------------------
class TruncFastPlaneContext(TruncatedContext):
    """A truncating context living on the fused fast plane.

    Carries the point's :class:`~repro.core.fpformat.FPFormat` and rounding
    mode; ``count_ops``/``track_memory``/``track_errors`` are forced off —
    a context whose counters matter takes the counted fused plane of
    :mod:`repro.kernels.ledger` instead.  Inherits the optimized ``TruncatedContext`` op-by-op
    semantics verbatim for any code path without a fused kernel (the incomp
    advection tail, level-set transport, diffusion…), so every operation —
    fused or not — is bit-identical to the instrumented plane.

    Solvers recognise the plane via the ``fused_trunc`` flag and run the
    fused kernels with a :class:`Round` of this context's format; ``fused``
    stays False because it selects the :data:`EXACT` rounder, which would
    skip the quantisation entirely.
    """

    plane = "fast"
    fused = False
    fused_trunc = True

    def __init__(
        self,
        fmt: FPFormat,
        runtime=None,
        module: Optional[str] = None,
        rounding: str = RoundingMode.NEAREST_EVEN,
    ) -> None:
        super().__init__(
            fmt,
            runtime=runtime,
            module=module,
            optimized=True,
            count_ops=False,
            track_memory=False,
            track_errors=False,
            rounding=rounding,
        )
        self.name = f"e{fmt.exp_bits}m{fmt.man_bits}-fast"

    @classmethod
    def from_context(cls, ctx: TruncatedContext) -> "TruncFastPlaneContext":
        """Clone an eligible instrumented truncating context onto the plane."""
        return cls(ctx.fmt, runtime=ctx.runtime, module=ctx.module, rounding=ctx.rounding)

    # no recording: evaluate in binary64, round the result — the exact
    # optimized TruncatedContext stream minus the counters
    def _apply(self, ufunc, inputs, label: str = ""):
        arrs = [np.asarray(x, dtype=np.float64) for x in inputs]
        return quantize(ufunc(*arrs), self.fmt, self.rounding)

    def _reduce(self, ufunc, a, axis: Optional[int] = None, label: str = ""):
        arr = np.asarray(a, dtype=np.float64)
        return quantize(ufunc.reduce(arr, axis=axis), self.fmt, self.rounding)

    def describe(self) -> str:
        return (
            f"TruncFastPlaneContext(e{self.fmt.exp_bits}m{self.fmt.man_bits}, "
            f"rounding={self.rounding}, fused truncating kernels, no counters)"
        )
