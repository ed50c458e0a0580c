"""The fused binary64 plane.

:class:`FastPlaneContext` is a drop-in :class:`~repro.core.opmode.FPContext`
that executes every operation as plain vectorized numpy on binary64 data —
no operand re-quantisation, no per-op counter updates, no runtime locks, no
label/location bookkeeping: its ``_apply``/``_reduce`` call the ufunc and
nothing else.  Kernels that want to shed even the method dispatch ask the
context for its rounder — :meth:`FastPlaneContext.rounder` is
:data:`~repro.kernels.trunc.EXACT` — and call the pre-fused numpy kernels
in :mod:`repro.kernels.fused` — or, for the whole compressible flux stack
(EOS, wave speeds, Riemann solvers, block updates), the fused pipeline of
:mod:`repro.kernels.flux`, which additionally threads preallocated scratch
buffers (:mod:`repro.kernels.scratch`) and batches same-shaped AMR blocks.

The contract — and the reason the plane may be substituted silently for a
non-truncating context that records nothing — is **bitwise identity**: for
binary64 inputs every method returns exactly the bits the instrumented
:class:`~repro.core.opmode.FullPrecisionContext` would return, because both
evaluate the same ufuncs in the same order (reductions included, which go
through ``ufunc.reduce`` on both planes).  The plane is therefore only ever
selected for contexts that neither truncate nor record (see
:mod:`repro.kernels.dispatch`); truncating and shadow contexts *are* the
measurement and never land here.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.opmode import FullPrecisionContext
from ..core.runtime import RaptorRuntime
from .trunc import EXACT

__all__ = ["FastPlaneContext"]


class FastPlaneContext(FullPrecisionContext):
    """Plain-numpy binary64 execution with zero per-op instrumentation.

    Subclasses :class:`FullPrecisionContext` so call sites that dispatch on
    context type (``isinstance(ctx, FullPrecisionContext)``, ``truncating``,
    ``ShadowContext`` checks) treat it exactly like the full-precision
    context it replaces.  ``count_ops`` / ``track_memory`` are forced off:
    nothing this context executes reaches the runtime counters.
    """

    name = "fp64-fast"

    def __init__(
        self,
        runtime: Optional[RaptorRuntime] = None,
        module: Optional[str] = None,
    ) -> None:
        super().__init__(runtime=runtime, count_ops=False, track_memory=False, module=module)

    def rounder(self, ws=None):
        return EXACT

    def _apply(self, ufunc, inputs, label):
        return ufunc(*inputs)

    def _reduce(self, ufunc, a, axis, label):
        return ufunc.reduce(np.asarray(a, dtype=np.float64), axis=axis)

    def describe(self) -> str:
        return "FastPlaneContext(binary64, fused)"
