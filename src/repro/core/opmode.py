"""Op-mode numerics contexts.

In RAPTOR's op-mode every floating-point operation inside the truncated
region is redirected to a runtime call that (1) converts the operands to the
target precision, (2) performs the operation at that precision, and
(3) converts the result back to the original IEEE type (Figure 5a).  The
scratch-pad optimisation (Figure 4b) removes the repeated conversion of
operands that are already held at the target precision.

In this reproduction the redirection is expressed through a *numerics
context*: solver kernels perform their arithmetic through the methods of an
:class:`FPContext` instead of raw numpy operators.  A
:class:`FullPrecisionContext` is plain numpy (and optionally counts
operations); a :class:`TruncatedContext` additionally rounds every result —
and, on the naive path, every operand — into the configured
:class:`~repro.core.fpformat.FPFormat` and feeds the
:class:`~repro.core.runtime.RaptorRuntime` counters.

Kernels that use plain numpy expressions instead can be instrumented
transparently with :class:`repro.core.array.TruncatedArray`, which routes
``__array_ufunc__`` calls through a context.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .config import TruncationConfig
from .fpformat import FP64, FPFormat
from .quantize import RoundingMode, quantize
from .registry import SourceLocation, capture_location
from .runtime import RaptorRuntime, get_runtime

__all__ = [
    "FPContext",
    "FullPrecisionContext",
    "TruncatedContext",
    "make_context",
]

ArrayLike = Union[float, int, np.ndarray]


class FPContext:
    """Abstract numerics context.

    Every arithmetic method mirrors the corresponding numpy ufunc; the
    context decides at what precision the operation is evaluated and what
    profiling data is recorded.  ``where``/``select`` and comparisons are
    provided for convenience but are not counted as floating-point work
    (they are data movement / predicate evaluation, matching RAPTOR which
    only instruments FP arithmetic and libm calls).
    """

    #: human-readable name used in reports
    name: str = "base"
    #: True when the context rounds results to a reduced format
    truncating: bool = False
    #: format results are representable in (FP64 for the full context)
    fmt: FPFormat = FP64
    #: True when ledger-aware kernels may run fused and replay the
    #: counters of :mod:`repro.kernels.ledger` instead of counting op by op
    ledger: bool = False

    def rounder(self, ws=None):
        """The rounder (:mod:`repro.kernels.trunc`) the fused kernels run
        for this context, rounding through the scratch workspace ``ws``;
        None when the context computes op by op — every instrumented and
        counted context (a counted one computes fused through
        ``fused_twin()``)."""
        return None

    # -- to be provided by subclasses ---------------------------------------
    def _apply(self, ufunc, inputs: Sequence[ArrayLike], label: str):
        raise NotImplementedError

    # -- constants -----------------------------------------------------------
    def const(self, x: ArrayLike) -> np.ndarray:
        """Bring a literal/constant into the context's working precision."""
        return np.asarray(x, dtype=np.float64)

    # -- binary arithmetic ----------------------------------------------------
    def add(self, a: ArrayLike, b: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.add, (a, b), label)

    def sub(self, a: ArrayLike, b: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.subtract, (a, b), label)

    def mul(self, a: ArrayLike, b: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.multiply, (a, b), label)

    def div(self, a: ArrayLike, b: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.divide, (a, b), label)

    def power(self, a: ArrayLike, b: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.power, (a, b), label)

    def maximum(self, a: ArrayLike, b: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.maximum, (a, b), label)

    def minimum(self, a: ArrayLike, b: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.minimum, (a, b), label)

    def copysign(self, a: ArrayLike, b: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.copysign, (a, b), label)

    # -- unary arithmetic -----------------------------------------------------
    def neg(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.negative, (a,), label)

    def abs(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.abs, (a,), label)

    def sqrt(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.sqrt, (a,), label)

    def exp(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.exp, (a,), label)

    def log(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.log, (a,), label)

    def log10(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.log10, (a,), label)

    def sin(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.sin, (a,), label)

    def cos(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.cos, (a,), label)

    def tanh(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.tanh, (a,), label)

    def square(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.square, (a,), label)

    def reciprocal(self, a: ArrayLike, label: str = "") -> np.ndarray:
        return self._apply(np.reciprocal, (a,), label)

    # -- composite helpers ------------------------------------------------------
    def fma(self, a: ArrayLike, b: ArrayLike, c: ArrayLike, label: str = "") -> np.ndarray:
        """a*b + c, evaluated as two context operations."""
        return self.add(self.mul(a, b, label), c, label)

    def axpy(self, alpha: ArrayLike, x: ArrayLike, y: ArrayLike, label: str = "") -> np.ndarray:
        """alpha*x + y."""
        return self.fma(alpha, x, y, label)

    def dot(self, a: np.ndarray, b: np.ndarray, label: str = "") -> float:
        """Inner product evaluated as mul + tree of adds in the context."""
        prod = self.mul(np.asarray(a).ravel(), np.asarray(b).ravel(), label)
        return self.sum(prod, label=label)

    def sum(self, a: ArrayLike, axis: Optional[int] = None, label: str = "") -> np.ndarray:
        """Reduction; counted as (n-1) additions along the reduced axis."""
        return self._reduce(np.add, a, axis, label)

    def max(self, a: ArrayLike, axis: Optional[int] = None, label: str = "") -> np.ndarray:
        return self._reduce(np.maximum, a, axis, label)

    def min(self, a: ArrayLike, axis: Optional[int] = None, label: str = "") -> np.ndarray:
        return self._reduce(np.minimum, a, axis, label)

    def _reduce(self, ufunc, a: ArrayLike, axis: Optional[int], label: str):
        raise NotImplementedError

    # -- non-arithmetic helpers (not counted as FLOPs) --------------------------
    def where(self, cond: ArrayLike, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        return np.where(cond, a, b)

    def sign(self, a: ArrayLike) -> np.ndarray:
        return np.sign(np.asarray(a, dtype=np.float64))

    def clip_nonnegative(self, a: ArrayLike, floor: float = 0.0) -> np.ndarray:
        return np.maximum(np.asarray(a, dtype=np.float64), floor)

    # -- structural operations (data movement, never counted as FLOPs) ----------
    def stack(self, arrays: Sequence[ArrayLike], axis: int = 0) -> np.ndarray:
        return np.stack([np.asarray(a, dtype=np.float64) for a in arrays], axis=axis)

    def concatenate(self, arrays: Sequence[ArrayLike], axis: int = 0) -> np.ndarray:
        return np.concatenate([np.asarray(a, dtype=np.float64) for a in arrays], axis=axis)

    def zeros_like(self, a: ArrayLike) -> np.ndarray:
        return np.zeros(getattr(a, "shape", np.shape(a)), dtype=np.float64)

    def full_like(self, a: ArrayLike, value: float) -> np.ndarray:
        return np.full(getattr(a, "shape", np.shape(a)), self.const(value), dtype=np.float64)

    def asplain(self, a: ArrayLike) -> np.ndarray:
        """Return the plain binary64 payload of a context value (used for
        diagnostics and I/O; not counted as floating-point work)."""
        return np.asarray(a, dtype=np.float64)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return f"{type(self).__name__}(fmt=e{self.fmt.exp_bits}m{self.fmt.man_bits})"


def _nelems(x: ArrayLike) -> int:
    return int(np.size(x))


class FullPrecisionContext(FPContext):
    """Plain binary64 numpy arithmetic, optionally counted by the runtime.

    This is the context handed to code *outside* the truncated scope (or to
    blocks excluded by a selective policy); counting its operations is what
    produces the orange "full precision" bars in Figure 7.
    """

    name = "fp64"
    truncating = False
    fmt = FP64

    def __init__(
        self,
        runtime: Optional[RaptorRuntime] = None,
        count_ops: bool = True,
        track_memory: bool = True,
        module: Optional[str] = None,
    ) -> None:
        self.runtime = runtime if runtime is not None else get_runtime()
        self.count_ops = count_ops
        self.track_memory = track_memory
        self.module = module

    def _record(self, result: np.ndarray, inputs: Sequence[ArrayLike]) -> None:
        n = _nelems(result)
        if self.count_ops:
            self.runtime.record_full_ops(n, module=self.module)
        if self.track_memory:
            nbytes = 8 * (n + sum(_nelems(x) for x in inputs))
            self.runtime.record_full_bytes(nbytes)

    def _apply(self, ufunc, inputs: Sequence[ArrayLike], label: str):
        arrs = [np.asarray(x, dtype=np.float64) for x in inputs]
        result = ufunc(*arrs)
        self._record(result, arrs)
        return result

    def _reduce(self, ufunc, a: ArrayLike, axis: Optional[int], label: str):
        arr = np.asarray(a, dtype=np.float64)
        result = ufunc.reduce(arr, axis=axis)
        # n-1 scalar operations per reduced lane
        n = max(_nelems(arr) - _nelems(result), 0)
        if self.count_ops:
            self.runtime.record_full_ops(n, module=self.module)
        if self.track_memory:
            self.runtime.record_full_bytes(8 * (_nelems(arr) + _nelems(result)))
        return result


class TruncatedContext(FPContext):
    """Numerics context that emulates a reduced-precision FPU.

    Parameters
    ----------
    fmt:
        Target format for 64-bit operations.
    runtime:
        Profiling runtime (defaults to the process-wide one).
    module:
        Logical module name ("hydro", "eos", ...) used for per-module
        operation accounting.
    optimized:
        Scratch-pad optimised path: operands are assumed to already be
        representable in ``fmt`` (they are, as long as all values in the
        region are produced by this context) and are not re-quantised.
        The naive path re-quantises every operand on every call, exactly
        like the un-optimised runtime in Figure 5a re-initialises MPFR
        temporaries — numerically identical, just slower.
    track_errors:
        Record per-location statistics of the rounding error committed by
        each operation (|rounded - exact| where "exact" is the binary64
        evaluation on the same operands).
    """

    truncating = True

    def __init__(
        self,
        fmt: FPFormat,
        runtime: Optional[RaptorRuntime] = None,
        module: Optional[str] = None,
        optimized: bool = True,
        count_ops: bool = True,
        track_memory: bool = True,
        track_errors: bool = False,
        rounding: str = RoundingMode.NEAREST_EVEN,
    ) -> None:
        self.fmt = fmt
        self.name = f"e{fmt.exp_bits}m{fmt.man_bits}"
        self.runtime = runtime if runtime is not None else get_runtime()
        self.module = module
        self.optimized = optimized
        self.count_ops = count_ops
        self.track_memory = track_memory
        self.track_errors = track_errors
        self.rounding = rounding

    @classmethod
    def from_config(
        cls,
        config: TruncationConfig,
        runtime: Optional[RaptorRuntime] = None,
        module: Optional[str] = None,
    ) -> "TruncatedContext":
        return cls(
            config.fmt,
            runtime=runtime,
            module=module,
            optimized=config.optimized,
            count_ops=config.count_ops,
            track_memory=config.track_memory,
            track_errors=config.track_errors,
            rounding=config.rounding,
        )

    # ------------------------------------------------------------------
    def const(self, x: ArrayLike) -> np.ndarray:
        return quantize(np.asarray(x, dtype=np.float64), self.fmt, self.rounding)

    def _location(self, label: str) -> Optional[SourceLocation]:
        if not self.track_errors:
            return None
        # depth 4: capture_location -> _location -> _apply/_reduce -> FPContext.<op> -> kernel
        return capture_location(depth=4, label=label)

    def _record(
        self,
        result: np.ndarray,
        inputs: Sequence[np.ndarray],
        exact: Optional[np.ndarray],
        label: str,
    ) -> None:
        n = _nelems(result)
        abs_err = rel_err = None
        if self.track_errors and exact is not None:
            abs_err = np.abs(result - exact)
            scale = np.abs(exact)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel_err = np.where(scale > 0, abs_err / scale, abs_err)
        if self.count_ops or self.track_errors:
            self.runtime.record_truncated_ops(
                n,
                location=self._location(label),
                module=self.module,
                abs_err=abs_err,
                rel_err=rel_err,
            )
        if self.track_memory:
            nbytes = 8 * (n + sum(_nelems(x) for x in inputs))
            self.runtime.record_truncated_bytes(nbytes)

    def _apply(self, ufunc, inputs: Sequence[ArrayLike], label: str):
        arrs = [np.asarray(x, dtype=np.float64) for x in inputs]
        if not self.optimized:
            arrs = [quantize(a, self.fmt, self.rounding) for a in arrs]
        exact = ufunc(*arrs)
        result = quantize(exact, self.fmt, self.rounding)
        self._record(result, arrs, exact if self.track_errors else None, label)
        return result

    def _reduce(self, ufunc, a: ArrayLike, axis: Optional[int], label: str):
        arr = np.asarray(a, dtype=np.float64)
        if not self.optimized:
            arr = quantize(arr, self.fmt, self.rounding)
        # Sequential reduction with per-step rounding would be O(n) python
        # calls; we emulate it by reducing in binary64 and rounding once,
        # then charging (n-1) truncated operations.  For the target formats
        # used in the experiments the difference in the reduced value is far
        # below the truncation error of the element-wise work feeding it.
        exact = ufunc.reduce(arr, axis=axis)
        result = quantize(exact, self.fmt, self.rounding)
        n = max(_nelems(arr) - _nelems(result), 0)
        if self.count_ops:
            self.runtime.record_truncated_ops(n, location=self._location(label), module=self.module)
        if self.track_memory:
            self.runtime.record_truncated_bytes(8 * (_nelems(arr) + _nelems(result)))
        return result


def make_context(
    config: Optional[TruncationConfig],
    runtime: Optional[RaptorRuntime] = None,
    module: Optional[str] = None,
) -> FPContext:
    """Build the appropriate context for a configuration.

    ``None`` or a no-op configuration yields a (counting) full-precision
    context; otherwise a :class:`TruncatedContext` for the configured format.
    """
    if config is None or config.is_noop():
        count = config.count_ops if config is not None else True
        track = config.track_memory if config is not None else True
        return FullPrecisionContext(runtime=runtime, count_ops=count, track_memory=track, module=module)
    return TruncatedContext.from_config(config, runtime=runtime, module=module)
