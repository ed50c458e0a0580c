"""The fused truncating plane: quantize-at-op-boundary kernel twins.

PRs 4–5 gave *binary64* contexts a fast plane — straight-line numpy twins
of the reconstruction stencils and the flux pipeline with no per-op context
dispatch.  Truncated points, the overwhelming bulk of any sweep or cliff
search, still paid the instrumented path.  This module closes that gap:
fused truncating twins of :mod:`repro.kernels.fused` and
:mod:`repro.kernels.flux` that apply vectorised
:func:`repro.core.quantize.quantize` rounding at **exactly the op
boundaries** the instrumented plane rounds at — truncation only, no
counters — plus the :class:`TruncFastPlaneContext` the dispatch layer
routes eligible truncating contexts onto.

Bit-identity contract
---------------------
The reference semantics are those of an *optimized*
:class:`~repro.core.opmode.TruncatedContext` (``optimized=True``): every
FLOP is evaluated in binary64 and its **result** is quantised to the
context's format/rounding; operands are assumed to already be
representable (they are, as long as every value in the region was produced
by the same context — the same contract the optimized instrumented path
relies on).  The twins reproduce that op stream term for term:

* A quantisation is inserted after every ``add``/``sub``/``mul``/``div``/
  ``sqrt``/``square`` — the same boundaries ``TruncatedContext._apply``
  rounds at.
* ``maximum``/``minimum``/``abs``/``negative``/``where``/constant fills are
  *closed* over representable operands: quantising their result is the
  identity, so the twins skip it.  This is never applied to arithmetic
  ops, whose results can fall between representable values.
* Constants go through :func:`quantize` exactly like
  ``TruncatedContext.const``: derived constants (``gamma - 1.0``,
  ``1.0 / 6.0``, ``dt / dx``…) are computed in binary64 *first* and then
  quantised, matching the instrumented call sites.
* Predicates compare the same values the instrumented twins compare:
  sign agreement in minmod uses the *quantised* product, HLL/HLLC region
  selection uses the *quantised* wave speeds, magnitude comparison uses
  the raw operands (``abs`` being quantise-closed).

Like :mod:`repro.kernels.flux`, everything operates on the trailing two
dimensions and quantises element-wise, so the stacked lanes of
:func:`advance` — blocks of every AMR level, the four primitive variables,
both sweep directions, both WENO edges — flow through unchanged and the
solver's batched stepping stays bit-identical to the per-block loop.  All
intermediates live in the shared :class:`~repro.kernels.scratch.Workspace`;
final outputs are fresh.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.fpformat import FPFormat
from ..core.opmode import TruncatedContext
from ..core.quantize import RoundingMode, quantize, quantize_rne_bits
from . import fused
from .flux import PRIMITIVES, conserved_fluxes, stack_primitives, sweep_inputs
from .fused import where
from .scratch import Workspace
from .scratch import out_accessor as _o

__all__ = [
    "TRUNC_SCHEMES",
    "TRUNC_SOLVERS",
    "TruncFastPlaneContext",
    "quantize_into",
    "pcm",
    "plm",
    "weno5",
    "weno5_edge",
    "eos_sound_speed",
    "eos_internal_energy",
    "eos_pressure_from_internal_energy",
    "eos_total_energy",
    "eos_pressure_from_total_energy",
    "davis_wave_speeds",
    "einfeldt_wave_speeds",
    "conserved_state",
    "euler_flux",
    "hll_flux",
    "hllc_flux",
    "hlle_flux",
    "directional_flux",
    "advance",
]

#: matches ``repro.hydro.reconstruction._WENO_EPS``
_WENO_EPS = 1e-6

#: flux components, in the order the instrumented solvers iterate them
COMPONENTS = ("dens", "momn", "momt", "ener")

#: scratch key family reserved for :func:`quantize_into` intermediates —
#: no quantisation scratch survives a call, so one family is shared by
#: every call site (kernel buffers use their own keys and never collide)
_QZ = "qz"

#: per-format scalar cache: (exp_bits, man_bits) -> (emin, man_bits, max_value)
#: — the FPFormat properties recompute these from the bias on every access,
#: which is measurable at quantise-per-op call rates
_FMT_CACHE: Dict[Tuple[int, int], Tuple[int, int, float]] = {}


def _fmt_scalars(fmt: FPFormat) -> Tuple[int, int, float]:
    key = (fmt.exp_bits, fmt.man_bits)
    v = _FMT_CACHE.get(key)
    if v is None:
        v = (fmt.emin, fmt.man_bits, fmt.max_value)
        _FMT_CACHE[key] = v
    return v


# ---------------------------------------------------------------------------
# buffered quantisation
# ---------------------------------------------------------------------------
def quantize_into(
    arr: np.ndarray,
    fmt: FPFormat,
    rounding: str = RoundingMode.NEAREST_EVEN,
    ws: Optional[Workspace] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`repro.core.quantize.quantize`, bit-identical, with scratch.

    Evaluates the same decompose/round/recompose formulas as ``quantize``
    on **all** lanes (every step is element-wise, so finite lanes see the
    same bits as the compressed-subset original; non-finite and zero lanes
    are restored from ``arr`` at the end), writing every intermediate into
    preallocated workspace buffers instead of allocating ~a dozen
    temporaries per call.  ``out`` may be ``arr`` itself (the hot in-place
    case: all reads of ``arr`` precede the single masked write) or any
    non-overlapping array; ``None`` allocates a fresh result.

    Round-to-nearest-even first tries the bit-level fast path of
    :func:`~repro.core.quantize.quantize_rne_bits`, exactly like
    ``quantize``; the formulas handle every call it declines.
    """
    if rounding not in RoundingMode.ALL:
        raise ValueError(f"unknown rounding mode: {rounding!r}")
    arr = np.asarray(arr, dtype=np.float64)
    shp = arr.shape
    if fmt.is_fp64() and rounding == RoundingMode.NEAREST_EVEN:
        if out is None:
            return arr.copy()
        if out is not arr:
            np.copyto(out, arr)
        return out

    if ws is None:
        # no workspace: fall back to fresh buffers (frexp/ldexp need real
        # out arrays — the chain reads them back)
        o = lambda key, shape, dtype=np.float64: np.empty(shape, np.dtype(dtype))
    else:
        o = _o(ws)
    if rounding == RoundingMode.NEAREST_EVEN:
        fast = quantize_rne_bits(arr, fmt, out=out, scratch=o((_QZ, "bits"), shp, np.uint64))
        if fast is not None:
            return fast
    fmt_emin, fmt_man_bits, fmt_max_value = _fmt_scalars(fmt)
    finite = np.isfinite(arr, out=o((_QZ, "fin"), shp, bool))
    mask = np.not_equal(arr, 0.0, out=o((_QZ, "msk"), shp, bool))
    np.logical_and(finite, mask, out=finite)
    if not finite.any():
        if out is None:
            return arr.copy()
        if out is not arr:
            np.copyto(out, arr)
        return out

    sign = np.signbit(arr, out=o((_QZ, "sgn"), shp, bool))
    mag = np.abs(arr, out=o((_QZ, "mag"), shp))

    # The formulas run on non-finite lanes too (restored below), so ldexp
    # overflow / frexp-of-inf warnings that the compressed original never
    # sees must be silenced; the finite-lane values are unaffected.
    with np.errstate(over="ignore", invalid="ignore"):
        m = o((_QZ, "m"), shp)
        e = o((_QZ, "e"), shp, np.int32)
        np.frexp(mag, m, e)
        E = np.subtract(e, 1, out=e)
        prec = np.subtract(fmt_emin, E, out=o((_QZ, "p"), shp, np.int32))
        np.maximum(prec, 0, out=prec)
        np.subtract(fmt_man_bits, prec, out=prec)
        p1 = np.add(prec, 1, out=o((_QZ, "p1"), shp, np.int32))
        scaled = np.ldexp(m, p1, out=m)
        if rounding == RoundingMode.NEAREST_EVEN:
            rounded = np.rint(scaled, out=scaled)
        elif rounding == RoundingMode.TOWARD_ZERO:
            rounded = np.trunc(scaled, out=scaled)
        elif rounding == RoundingMode.UP:
            other = np.floor(scaled, out=o((_QZ, "aux"), shp))
            rounded = np.ceil(scaled, out=scaled)
            np.copyto(rounded, other, where=sign)
        else:  # DOWN
            other = np.ceil(scaled, out=o((_QZ, "aux"), shp))
            rounded = np.floor(scaled, out=scaled)
            np.copyto(rounded, other, where=sign)
        expo = np.subtract(E, prec, out=E)
        q = np.ldexp(rounded, expo, out=rounded)
        neg = np.negative(q, out=o((_QZ, "aux"), shp))
        np.copyto(q, neg, where=sign)

        absq = np.abs(q, out=o((_QZ, "aux"), shp))
        over = np.greater(absq, fmt_max_value, out=mask)
        if over.any():
            if rounding == RoundingMode.TOWARD_ZERO:
                clamp = np.copysign(fmt_max_value, q, out=absq)
                np.copyto(q, clamp, where=over)
            elif rounding == RoundingMode.UP:
                pos = np.logical_not(sign, out=o((_QZ, "b2"), shp, bool))
                np.logical_and(over, pos, out=pos)
                np.copyto(q, np.inf, where=pos)
                np.logical_and(over, sign, out=over)
                np.copyto(q, -fmt_max_value, where=over)
            elif rounding == RoundingMode.DOWN:
                neg_over = np.logical_and(over, sign, out=o((_QZ, "b2"), shp, bool))
                np.copyto(q, -np.inf, where=neg_over)
                pos = np.logical_not(sign, out=o((_QZ, "b3"), shp, bool))
                np.logical_and(over, pos, out=pos)
                np.copyto(q, fmt_max_value, where=pos)
            else:
                clamp = np.copysign(np.inf, q, out=absq)
                np.copyto(q, clamp, where=over)

        zero = np.equal(q, 0.0, out=mask)
        np.logical_and(zero, sign, out=zero)
        np.copyto(q, -0.0, where=zero)

    if out is None:
        out = arr.copy()
    elif out is not arr:
        np.copyto(out, arr)
    np.copyto(out, q, where=finite)
    return out


#: quantised scalar constants, keyed by (format, rounding, value) —
#: bounded: only the literal stencil/EOS constants land here (per-step
#: values like dt/dx go through the uncached ``_Q.dyn``)
_CONST_CACHE: Dict[Tuple[int, int, str, float], float] = {}


class _Q:
    """In-place rounding helper bound to one (format, rounding, workspace)."""

    __slots__ = ("fmt", "rounding", "ws")

    def __init__(self, fmt: FPFormat, rounding: str, ws: Optional[Workspace]) -> None:
        self.fmt = fmt
        self.rounding = rounding
        self.ws = ws

    def __call__(self, arr: np.ndarray) -> np.ndarray:
        """Round ``arr`` in place (scratch/fresh buffers only, never views
        of caller data)."""
        return quantize_into(arr, self.fmt, self.rounding, self.ws, out=arr)

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


# ---------------------------------------------------------------------------
# the truncating fast-plane context
# ---------------------------------------------------------------------------
class TruncFastPlaneContext(TruncatedContext):
    """A truncating context living on the fused fast plane.

    Carries the point's :class:`~repro.core.fpformat.FPFormat` and rounding
    mode; ``count_ops``/``track_memory``/``track_errors`` are forced off —
    a context whose counters matter takes the counted fused plane of
    :mod:`repro.kernels.ledger` instead.  Inherits the optimized ``TruncatedContext`` op-by-op
    semantics verbatim for any code path without a fused twin (the incomp
    advection tail, level-set transport, diffusion…), so every operation —
    fused or not — is bit-identical to the instrumented plane.

    Solvers recognise the plane via the ``fused_trunc`` flag and
    short-circuit into the :mod:`repro.kernels.trunc` kernels; ``fused``
    stays False because the binary64 twins of :mod:`repro.kernels.flux`
    would skip the quantisation entirely.
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


# ---------------------------------------------------------------------------
# reconstruction stencils (twins of repro.kernels.fused)
# ---------------------------------------------------------------------------
def pcm(u, axis: int, ng: int, n: int, ws=None, key=(), *,
        fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """Piecewise-constant reconstruction: pure data movement, no FLOPs, so
    the truncating twin *is* the binary64 twin (views of ``u``)."""
    return fused.pcm(u, axis, ng, n)


def _minmod(a, b, q: _Q, ws=None, key=()):
    """minmod(a, b) with rounding at the product — the sign test uses the
    *quantised* product, exactly like the instrumented limiter."""
    o = _o(ws)
    shp = a.shape
    ab = np.multiply(a, b, out=o((*key, "ab"), shp))
    q(ab)
    same_sign = np.greater(ab, 0.0, out=o((*key, "ss"), shp, bool))
    # |a| < |b| on the raw operands: abs is quantise-closed
    absa = np.abs(a, out=o((*key, "absa"), shp))
    absb = np.abs(b, out=o((*key, "absb"), shp))
    lt = np.less(absa, absb, out=o((*key, "lt"), shp, bool))
    mag = where(lt, a, b, out=ab)  # ab's value is consumed; reuse its storage
    np.logical_not(same_sign, out=same_sign)
    np.copyto(mag, 0.0, where=same_sign)
    return mag


def plm(u, axis: int, ng: int, n: int, ws=None, key=(), *,
        fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """Piecewise-linear (minmod-limited) reconstruction, fused + truncating."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    um1 = fused._shift(u, axis, -1, ng, n)
    uc = fused._shift(u, axis, 0, ng, n)
    up1 = fused._shift(u, axis, 1, ng, n)
    up2 = fused._shift(u, axis, 2, ng, n)
    shp = uc.shape

    dl = np.subtract(uc, um1, out=o((*key, "dl"), shp))
    q(dl)
    dr = np.subtract(up1, uc, out=o((*key, "dr"), shp))
    q(dr)
    slope_left = _minmod(dl, dr, q, ws, (*key, "ml"))

    dl2 = np.subtract(up1, uc, out=dl)
    q(dl2)
    dr2 = np.subtract(up2, up1, out=dr)
    q(dr2)
    slope_right = _minmod(dl2, dr2, q, ws, (*key, "mr"))

    half = q.const(0.5)
    np.multiply(half, slope_left, out=slope_left)
    q(slope_left)
    left = np.add(uc, slope_left, out=o((*key, "left"), shp))
    q(left)
    np.multiply(half, slope_right, out=slope_right)
    q(slope_right)
    right = np.subtract(up1, slope_right, out=o((*key, "right"), shp))
    q(right)
    return left, right


def weno5_edge(um2, um1, u0, up1, up2, ws=None, key=(), out=None, *,
               fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """Jiang–Shu WENO5 right-edge value, fused + truncating.

    Same choreography as :func:`repro.kernels.fused.weno5_edge` with a
    rounding after every FLOP; the parenthesisation is the contract.
    """
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    shp = np.shape(u0)
    sixth = q.const(1.0 / 6.0)
    eps = q.const(_WENO_EPS)

    # candidate polynomials
    q0 = np.multiply(q.const(2.0), um2, out=o((*key, "q0"), shp))
    q(q0)
    t = np.multiply(q.const(7.0), um1, out=o((*key, "t"), shp))
    q(t)
    np.subtract(q0, t, out=q0)
    q(q0)
    t = np.multiply(q.const(11.0), u0, out=t)
    q(t)
    np.add(q0, t, out=q0)
    q(q0)
    np.multiply(sixth, q0, out=q0)
    q(q0)

    q1 = np.multiply(q.const(5.0), u0, out=o((*key, "q1"), shp))
    q(q1)
    np.subtract(q1, um1, out=q1)
    q(q1)
    t = np.multiply(q.const(2.0), up1, out=t)
    q(t)
    np.add(q1, t, out=q1)
    q(q1)
    np.multiply(sixth, q1, out=q1)
    q(q1)

    q2 = np.multiply(q.const(2.0), u0, out=o((*key, "q2"), shp))
    q(q2)
    t = np.multiply(q.const(5.0), up1, out=t)
    q(t)
    np.add(q2, t, out=q2)
    q(q2)
    np.subtract(q2, up2, out=q2)
    q(q2)
    np.multiply(sixth, q2, out=q2)
    q(q2)

    # smoothness indicators: beta_k = 13/12 d1^2 + 1/4 d2^2
    c1312 = q.const(13.0 / 12.0)
    quarter = q.const(0.25)
    t2 = o((*key, "t2"), shp)
    d1 = np.multiply(q.const(2.0), um1, out=t)
    q(d1)
    d1 = np.subtract(um2, d1, out=d1)
    q(d1)
    d1 = np.add(d1, u0, out=d1)
    q(d1)
    beta0 = np.multiply(d1, d1, out=o((*key, "b0"), shp))
    q(beta0)
    np.multiply(c1312, beta0, out=beta0)
    q(beta0)
    d2 = np.multiply(q.const(4.0), um1, out=t)
    q(d2)
    d2 = np.subtract(um2, d2, out=d2)
    q(d2)
    u3 = np.multiply(q.const(3.0), u0, out=t2)
    q(u3)
    d2 = np.add(d2, u3, out=d2)
    q(d2)
    sq = np.multiply(d2, d2, out=d2)
    q(sq)
    np.multiply(quarter, sq, out=sq)
    q(sq)
    np.add(beta0, sq, out=beta0)
    q(beta0)

    d1 = np.multiply(q.const(2.0), u0, out=t)
    q(d1)
    d1 = np.subtract(um1, d1, out=d1)
    q(d1)
    d1 = np.add(d1, up1, out=d1)
    q(d1)
    beta1 = np.multiply(d1, d1, out=o((*key, "b1"), shp))
    q(beta1)
    np.multiply(c1312, beta1, out=beta1)
    q(beta1)
    d2 = np.subtract(um1, up1, out=t)
    q(d2)
    sq = np.multiply(d2, d2, out=d2)
    q(sq)
    np.multiply(quarter, sq, out=sq)
    q(sq)
    np.add(beta1, sq, out=beta1)
    q(beta1)

    d1 = np.multiply(q.const(2.0), up1, out=t)
    q(d1)
    d1 = np.subtract(u0, d1, out=d1)
    q(d1)
    d1 = np.add(d1, up2, out=d1)
    q(d1)
    beta2 = np.multiply(d1, d1, out=o((*key, "b2"), shp))
    q(beta2)
    np.multiply(c1312, beta2, out=beta2)
    q(beta2)
    a3 = np.multiply(q.const(3.0), u0, out=t)
    q(a3)
    b4 = np.multiply(q.const(4.0), up1, out=t2)
    q(b4)
    d2 = np.subtract(a3, b4, out=a3)
    q(d2)
    d2 = np.add(d2, up2, out=d2)
    q(d2)
    sq = np.multiply(d2, d2, out=d2)
    q(sq)
    np.multiply(quarter, sq, out=sq)
    q(sq)
    np.add(beta2, sq, out=beta2)
    q(beta2)

    # nonlinear weights: w_k = c_k / (eps + beta_k)^2
    np.add(eps, beta0, out=beta0)
    q(beta0)
    np.square(beta0, out=beta0)
    q(beta0)
    w0 = np.divide(q.const(0.1), beta0, out=beta0)
    q(w0)
    np.add(eps, beta1, out=beta1)
    q(beta1)
    np.square(beta1, out=beta1)
    q(beta1)
    w1 = np.divide(q.const(0.6), beta1, out=beta1)
    q(w1)
    np.add(eps, beta2, out=beta2)
    q(beta2)
    np.square(beta2, out=beta2)
    q(beta2)
    w2 = np.divide(q.const(0.3), beta2, out=beta2)
    q(w2)

    wsum = np.add(w0, w1, out=t)
    q(wsum)
    np.add(wsum, w2, out=wsum)
    q(wsum)
    num = np.multiply(w0, q0, out=q0)
    q(num)
    t2 = np.multiply(w1, q1, out=q1)
    q(t2)
    np.add(num, t2, out=num)
    q(num)
    t2 = np.multiply(w2, q2, out=q2)
    q(t2)
    np.add(num, t2, out=num)
    q(num)
    if out is None:
        out = o((*key, "res"), shp)
    out = np.divide(num, wsum, out=out)
    return q(out)


def weno5(u, axis: int, ng: int, n: int, ws=None, key=(), *,
          fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """Fifth-order WENO reconstruction at the interior faces, truncating:
    both edges in one stacked :func:`weno5_edge` call (quantisation is
    element-wise, so each slot rounds exactly as a standalone edge)."""
    operands = fused.weno5_operands(u, axis, ng, n, ws, key)
    edges = weno5_edge(*operands, ws, (*key, "e"), fmt=fmt, rounding=rounding)
    return edges[0], edges[1]


#: scheme name -> truncating implementation (same keys as fused.FUSED_SCHEMES)
TRUNC_SCHEMES = {"pcm": pcm, "plm": plm, "weno5": weno5}


# ---------------------------------------------------------------------------
# gamma-law EOS helpers (truncating twins of repro.kernels.flux)
# ---------------------------------------------------------------------------
def eos_sound_speed(dens, pres, gamma: float, ws=None, key=("cs",), *,
                    fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """c = sqrt(gamma * p / rho), truncating."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(pres))
    gp = np.multiply(q.const(gamma), pres, out=o((*key, "gp"), shp))
    q(gp)
    np.divide(gp, dens, out=gp)
    q(gp)
    np.sqrt(gp, out=gp)
    return q(gp)


def eos_internal_energy(dens, pres, gamma: float, ws=None, key=("eint",), *,
                        fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """e_int = p / ((gamma - 1) rho), truncating."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(pres))
    denom = np.multiply(q.const(gamma - 1.0), dens, out=o((*key, "denom"), shp))
    q(denom)
    np.divide(pres, denom, out=denom)
    return q(denom)


def eos_pressure_from_internal_energy(dens, eint, gamma: float, pressure_floor: float,
                                      ws=None, key=("pei",), *,
                                      fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """p = max((gamma - 1) rho e_int, floor), truncating."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(eint))
    rho_e = np.multiply(dens, eint, out=o((*key, "rho_e"), shp))
    q(rho_e)
    pres = np.multiply(q.const(gamma - 1.0), rho_e, out=rho_e)
    q(pres)
    # maximum of two representable values is quantise-closed
    return np.maximum(pres, q.const(pressure_floor), out=pres)


def eos_total_energy(dens, velx, vely, pres, gamma: float, ws=None, key=("etot",),
                     out=None, *,
                     fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """E = rho e_int + 0.5 rho (u^2 + v^2), truncating."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(velx), np.shape(vely), np.shape(pres))
    eint = eos_internal_energy(dens, pres, gamma, ws, (*key, "ei"),
                               fmt=fmt, rounding=rounding)
    u2 = np.multiply(velx, velx, out=o((*key, "u2"), shp))
    q(u2)
    v2 = np.multiply(vely, vely, out=o((*key, "v2"), shp))
    q(v2)
    kin = np.add(u2, v2, out=u2)
    q(kin)
    np.multiply(dens, kin, out=kin)
    q(kin)
    ke = np.multiply(q.const(0.5), kin, out=kin)
    q(ke)
    rho_eint = np.multiply(dens, eint, out=eint)
    q(rho_eint)
    if out is None:
        out = o((*key, "res"), shp)
    out = np.add(rho_eint, ke, out=out)
    return q(out)


def eos_pressure_from_total_energy(dens, momx, momy, ener, gamma: float,
                                   pressure_floor: float, density_floor: float,
                                   ws=None, key=("pte",), out=None, *,
                                   fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """Pressure from conserved variables (with floors), truncating."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(momx), np.shape(momy), np.shape(ener))
    dens_f = np.maximum(dens, q.const(density_floor), out=o((*key, "df"), shp))
    velx = np.divide(momx, dens_f, out=o((*key, "u"), shp))
    q(velx)
    vely = np.divide(momy, dens_f, out=o((*key, "v"), shp))
    q(vely)
    mu_u = np.multiply(momx, velx, out=velx)
    q(mu_u)
    mv_v = np.multiply(momy, vely, out=vely)
    q(mv_v)
    kin = np.add(mu_u, mv_v, out=mu_u)
    q(kin)
    ke = np.multiply(q.const(0.5), kin, out=kin)
    q(ke)
    eint_dens = np.subtract(ener, ke, out=ke)
    q(eint_dens)
    pres = np.multiply(q.const(gamma - 1.0), eint_dens, out=eint_dens)
    q(pres)
    if out is None:
        out = o((*key, "res"), shp)
    return np.maximum(pres, q.const(pressure_floor), out=out)


# ---------------------------------------------------------------------------
# wave-speed estimates
# ---------------------------------------------------------------------------
def davis_wave_speeds(left: Dict, right: Dict, gamma: float, ws=None, key=("dws",), *,
                      fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """Davis estimates S_L = min(ul-cl, ur-cr), S_R = max(ul+cl, ur+cr)."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    cl = eos_sound_speed(left["dens"], left["pres"], gamma, ws, (*key, "cl"),
                         fmt=fmt, rounding=rounding)
    cr = eos_sound_speed(right["dens"], right["pres"], gamma, ws, (*key, "cr"),
                         fmt=fmt, rounding=rounding)
    shp = cl.shape
    a = np.subtract(left["velx"], cl, out=o((*key, "a"), shp))
    q(a)
    b = np.subtract(right["velx"], cr, out=o((*key, "b"), shp))
    q(b)
    sl = np.minimum(a, b, out=a)
    a2 = np.add(left["velx"], cl, out=cl)
    q(a2)
    b2 = np.add(right["velx"], cr, out=cr)
    q(b2)
    sr = np.maximum(a2, b2, out=a2)
    return sl, sr


def einfeldt_wave_speeds(left: Dict, right: Dict, gamma: float, ws=None, key=("ews",), *,
                         fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN):
    """Einfeldt (HLLE) estimates from Roe averages, truncating."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    cl = eos_sound_speed(left["dens"], left["pres"], gamma, ws, (*key, "cl"),
                         fmt=fmt, rounding=rounding)
    cr = eos_sound_speed(right["dens"], right["pres"], gamma, ws, (*key, "cr"),
                         fmt=fmt, rounding=rounding)
    shp = cl.shape
    sql = np.sqrt(left["dens"], out=o((*key, "sql"), shp))
    q(sql)
    sqr = np.sqrt(right["dens"], out=o((*key, "sqr"), shp))
    q(sqr)
    wsum = np.add(sql, sqr, out=o((*key, "wsum"), shp))
    q(wsum)
    # Roe-averaged normal velocity
    n1 = np.multiply(sql, left["velx"], out=o((*key, "n1"), shp))
    q(n1)
    n2 = np.multiply(sqr, right["velx"], out=o((*key, "n2"), shp))
    q(n2)
    np.add(n1, n2, out=n1)
    q(n1)
    u_roe = np.divide(n1, wsum, out=n1)
    q(u_roe)
    # Roe-averaged sound speed with Einfeldt's eta2 velocity-jump term
    cl2 = np.multiply(cl, cl, out=o((*key, "cl2"), shp))
    q(cl2)
    cr2 = np.multiply(cr, cr, out=o((*key, "cr2"), shp))
    q(cr2)
    np.multiply(sql, cl2, out=cl2)
    q(cl2)
    np.multiply(sqr, cr2, out=cr2)
    q(cr2)
    c2 = np.add(cl2, cr2, out=cl2)
    q(c2)
    c2_bar = np.divide(c2, wsum, out=c2)
    q(c2_bar)
    du = np.subtract(right["velx"], left["velx"], out=o((*key, "du"), shp))
    q(du)
    sqlr = np.multiply(sql, sqr, out=o((*key, "sqlr"), shp))
    q(sqlr)
    w2 = np.multiply(wsum, wsum, out=o((*key, "w2"), shp))
    q(w2)
    np.divide(sqlr, w2, out=sqlr)
    q(sqlr)
    eta = np.multiply(q.const(0.5), sqlr, out=sqlr)
    q(eta)
    du2 = np.multiply(du, du, out=o((*key, "du2"), shp))
    q(du2)
    np.multiply(eta, du2, out=du2)
    q(du2)
    croe2 = np.add(c2_bar, du2, out=c2_bar)
    q(croe2)
    c_roe = np.sqrt(croe2, out=croe2)
    q(c_roe)
    # S_L = min(ul - cl, u_roe - c_roe); S_R = max(ur + cr, u_roe + c_roe)
    a = np.subtract(left["velx"], cl, out=cl)
    q(a)
    b = np.subtract(u_roe, c_roe, out=o((*key, "b"), shp))
    q(b)
    sl = np.minimum(a, b, out=a)
    a2 = np.add(right["velx"], cr, out=cr)
    q(a2)
    b2 = np.add(u_roe, c_roe, out=b)
    q(b2)
    sr = np.maximum(a2, b2, out=a2)
    return sl, sr


# ---------------------------------------------------------------------------
# conserved state and physical flux
# ---------------------------------------------------------------------------
def conserved_state(state: Dict, gamma: float, ws=None, key=("cons",), *,
                    fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN) -> Dict:
    """Conserved variables of a primitive face state, truncating.

    ``dens`` aliases the input array (as in the instrumented twin).
    """
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    dens, velx, vely = state["dens"], state["velx"], state["vely"]
    shp = np.shape(dens)
    momn = np.multiply(dens, velx, out=o((*key, "momn"), shp))
    q(momn)
    momt = np.multiply(dens, vely, out=o((*key, "momt"), shp))
    q(momt)
    ener = eos_total_energy(dens, velx, vely, state["pres"], gamma, ws, (*key, "en"),
                            out=o((*key, "ener"), shp), fmt=fmt, rounding=rounding)
    return {"dens": dens, "momn": momn, "momt": momt, "ener": ener}


def euler_flux(state: Dict, gamma: float, ws=None, key=("ef",),
               cons: Optional[Dict] = None, *,
               fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN) -> Dict:
    """Physical Euler flux normal to the face, truncating."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    velx, pres = state["velx"], state["pres"]
    if cons is None:
        cons = conserved_state(state, gamma, ws, (*key, "c"), fmt=fmt, rounding=rounding)
    shp = np.shape(cons["momn"])
    f_dens = cons["momn"]
    mn_u = np.multiply(cons["momn"], velx, out=o((*key, "momn"), shp))
    q(mn_u)
    f_momn = np.add(mn_u, pres, out=mn_u)
    q(f_momn)
    f_momt = np.multiply(cons["momt"], velx, out=o((*key, "momt"), shp))
    q(f_momt)
    ep = np.add(cons["ener"], pres, out=o((*key, "ener"), shp))
    q(ep)
    f_ener = np.multiply(ep, velx, out=ep)
    q(f_ener)
    return {"dens": f_dens, "momn": f_momn, "momt": f_momt, "ener": f_ener}


# ---------------------------------------------------------------------------
# Riemann solvers
# ---------------------------------------------------------------------------
def _hll_from_speeds(sl, sr, left: Dict, right: Dict, gamma: float, ws, key, *,
                     fmt: FPFormat, rounding: str) -> Dict:
    """HLL combination for given (already quantised) wave speeds."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    ul = conserved_state(left, gamma, ws, (*key, "ul"), fmt=fmt, rounding=rounding)
    ur = conserved_state(right, gamma, ws, (*key, "ur"), fmt=fmt, rounding=rounding)
    fl = euler_flux(left, gamma, ws, (*key, "fl"), cons=ul, fmt=fmt, rounding=rounding)
    fr = euler_flux(right, gamma, ws, (*key, "fr"), cons=ur, fmt=fmt, rounding=rounding)

    shp = np.shape(sl)
    # region predicates on the quantised wave speeds (the instrumented
    # solver compares ctx.asplain(sl/sr), which are these very values)
    use_left = np.greater_equal(sl, 0.0, out=o((*key, "usel"), shp, bool))
    use_right = np.less_equal(sr, 0.0, out=o((*key, "user"), shp, bool))
    denom = np.subtract(sr, sl, out=o((*key, "den"), shp))
    q(denom)
    slsr = np.multiply(sl, sr, out=o((*key, "slsr"), shp))
    q(slsr)

    flux: Dict = {}
    for comp in COMPONENTS:
        a = np.multiply(sr, fl[comp], out=o((*key, "t1"), shp))
        q(a)
        b = np.multiply(sl, fr[comp], out=o((*key, "t2"), shp))
        q(b)
        diff = np.subtract(a, b, out=a)
        q(diff)
        du = np.subtract(ur[comp], ul[comp], out=b)
        q(du)
        np.multiply(slsr, du, out=du)
        q(du)
        num = np.add(diff, du, out=diff)
        q(num)
        middle = np.divide(num, denom, out=num)
        q(middle)
        inner = where(use_right, fr[comp], middle, out=middle)
        flux[comp] = where(use_left, fl[comp], inner, out=o((*key, "f", comp), shp))
    return flux


def hll_flux(left: Dict, right: Dict, gamma: float, ws=None, key=("hll",), *,
             fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN) -> Dict:
    """Harten–Lax–van Leer flux, truncating (Davis wave speeds)."""
    sl, sr = davis_wave_speeds(left, right, gamma, ws, (*key, "w"),
                               fmt=fmt, rounding=rounding)
    return _hll_from_speeds(sl, sr, left, right, gamma, ws, key,
                            fmt=fmt, rounding=rounding)


def hlle_flux(left: Dict, right: Dict, gamma: float, ws=None, key=("hlle",), *,
              fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN) -> Dict:
    """HLLE flux, truncating (Einfeldt wave speeds on the HLL combination)."""
    sl, sr = einfeldt_wave_speeds(left, right, gamma, ws, (*key, "w"),
                                  fmt=fmt, rounding=rounding)
    return _hll_from_speeds(sl, sr, left, right, gamma, ws, key,
                            fmt=fmt, rounding=rounding)


def hllc_flux(left: Dict, right: Dict, gamma: float, ws=None, key=("hllc",), *,
              fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN) -> Dict:
    """HLLC flux, truncating (restores the contact wave missing from HLL)."""
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    sl, sr = davis_wave_speeds(left, right, gamma, ws, (*key, "w"),
                               fmt=fmt, rounding=rounding)
    ul = conserved_state(left, gamma, ws, (*key, "ul"), fmt=fmt, rounding=rounding)
    ur = conserved_state(right, gamma, ws, (*key, "ur"), fmt=fmt, rounding=rounding)
    fl = euler_flux(left, gamma, ws, (*key, "fl"), cons=ul, fmt=fmt, rounding=rounding)
    fr = euler_flux(right, gamma, ws, (*key, "fr"), cons=ur, fmt=fmt, rounding=rounding)

    dl, dr = left["dens"], right["dens"]
    vl, vr = left["velx"], right["velx"]
    pl, pr = left["pres"], right["pres"]
    shp = np.shape(sl)

    # contact (star) speed
    t = np.subtract(sl, vl, out=o((*key, "slvl"), shp))
    q(t)
    dl_slvl = np.multiply(dl, t, out=t)
    q(dl_slvl)
    t = np.subtract(sr, vr, out=o((*key, "srvr"), shp))
    q(t)
    dr_srvr = np.multiply(dr, t, out=t)
    q(dr_srvr)
    dp = np.subtract(pr, pl, out=o((*key, "dp"), shp))
    q(dp)
    m1 = np.multiply(dl_slvl, vl, out=o((*key, "m1"), shp))
    q(m1)
    m2 = np.multiply(dr_srvr, vr, out=o((*key, "m2"), shp))
    q(m2)
    mom_diff = np.subtract(m1, m2, out=m1)
    q(mom_diff)
    num = np.add(dp, mom_diff, out=dp)
    q(num)
    den = np.subtract(dl_slvl, dr_srvr, out=o((*key, "sden"), shp))
    q(den)
    s_star = np.divide(num, den, out=num)
    q(s_star)

    def star_state(state, cons, s_k, d_slv, k):
        """Conserved state in the star region behind wave ``s_k``."""
        t1 = np.subtract(s_k, s_star, out=o((*k, "t1"), shp))
        q(t1)
        factor = np.divide(d_slv, t1, out=t1)
        q(factor)
        momn_star = np.multiply(factor, s_star, out=o((*k, "mn"), shp))
        q(momn_star)
        momt_star = np.multiply(factor, state["vely"], out=o((*k, "mt"), shp))
        q(momt_star)
        e_over_d = np.divide(cons["ener"], state["dens"], out=o((*k, "eod"), shp))
        q(e_over_d)
        t2 = np.subtract(s_k, state["velx"], out=o((*k, "t2"), shp))
        q(t2)
        d_skv = np.multiply(state["dens"], t2, out=t2)
        q(d_skv)
        p_term = np.divide(state["pres"], d_skv, out=d_skv)
        q(p_term)
        a = np.subtract(s_star, state["velx"], out=o((*k, "a"), shp))
        q(a)
        b = np.add(s_star, p_term, out=p_term)
        q(b)
        m = np.multiply(a, b, out=a)
        q(m)
        bracket = np.add(e_over_d, m, out=e_over_d)
        q(bracket)
        ener_star = np.multiply(factor, bracket, out=bracket)
        q(ener_star)
        return {"dens": factor, "momn": momn_star, "momt": momt_star, "ener": ener_star}

    ul_star = star_state(left, ul, sl, dl_slvl, (*key, "sL"))
    ur_star = star_state(right, ur, sr, dr_srvr, (*key, "sR"))

    # region predicates on the quantised speeds
    region_l = np.greater_equal(sl, 0.0, out=o((*key, "rl"), shp, bool))
    b1 = np.less(sl, 0.0, out=o((*key, "b1"), shp, bool))
    b2 = np.greater_equal(s_star, 0.0, out=o((*key, "b2"), shp, bool))
    region_ls = np.logical_and(b1, b2, out=b1)
    b3 = np.less(s_star, 0.0, out=o((*key, "b3"), shp, bool))
    b4 = np.greater(sr, 0.0, out=o((*key, "b4"), shp, bool))
    region_rs = np.logical_and(b3, b4, out=b3)

    flux: Dict = {}
    for comp in COMPONENTS:
        d1 = np.subtract(ul_star[comp], ul[comp], out=o((*key, "d1"), shp))
        q(d1)
        np.multiply(sl, d1, out=d1)
        q(d1)
        fl_star = np.add(fl[comp], d1, out=d1)
        q(fl_star)
        d2 = np.subtract(ur_star[comp], ur[comp], out=o((*key, "d2"), shp))
        q(d2)
        np.multiply(sr, d2, out=d2)
        q(d2)
        fr_star = np.add(fr[comp], d2, out=d2)
        q(fr_star)
        out_ = where(region_l, fl[comp], fr[comp], out=o((*key, "f", comp), shp))
        out_ = where(region_ls, fl_star, out_, out=out_)
        out_ = where(region_rs, fr_star, out_, out=out_)
        flux[comp] = out_
    return flux


#: solver name -> truncating implementation (same keys as riemann.SOLVERS)
TRUNC_SOLVERS = {"hll": hll_flux, "hllc": hllc_flux, "hlle": hlle_flux}


# ---------------------------------------------------------------------------
# the full directional sweep and block update
# ---------------------------------------------------------------------------
def directional_flux(prims: np.ndarray, axis: int, ng: int, n: int, scheme: str, solver: str,
                     gamma: float, dens_floor: float, pres_floor: float,
                     ws: Optional[Workspace] = None, *,
                     fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN) -> Dict:
    """Fluxes at the ``n+1`` interior faces along ``axis``, truncating.

    ``prims`` is a ``(4, ...)`` stack of (dens, normal velocity, transverse
    velocity, pres) rows, already representable in ``fmt`` (the
    instrumented solver lifts them through ``ctx.const``; :func:`advance`
    does the same before calling here).  Returns the ``dens``/``momn``/
    ``momt``/``ener`` fluxes.
    """
    o = _o(ws)
    q = _Q(fmt, rounding, ws)
    rec_l, rec_r = TRUNC_SCHEMES[scheme](prims, axis, ng, n, ws=ws, key=(axis, "r"),
                                         fmt=fmt, rounding=rounding)
    left = dict(zip(PRIMITIVES, rec_l))
    right = dict(zip(PRIMITIVES, rec_r))

    # keep reconstructed density/pressure physical (never in place: pcm
    # returns views of the caller's primitive arrays); the floors are
    # quantise-closed maxima of representable values
    shp = rec_l.shape[1:]
    qdf = q.const(dens_floor)
    qpf = q.const(pres_floor)
    left["dens"] = np.maximum(left["dens"], qdf, out=o((axis, "lfd"), shp))
    right["dens"] = np.maximum(right["dens"], qdf, out=o((axis, "rfd"), shp))
    left["pres"] = np.maximum(left["pres"], qpf, out=o((axis, "lfp"), shp))
    right["pres"] = np.maximum(right["pres"], qpf, out=o((axis, "rfp"), shp))

    return TRUNC_SOLVERS[solver](left, right, gamma, ws, (axis, solver),
                                 fmt=fmt, rounding=rounding)


def advance(prims, dt: float, dx, dy, ng: int, nxb: int, nyb: int, *,
            scheme: str, solver: str, gamma: float, dens_floor: float, pres_floor: float,
            gravity: Tuple[float, float] = (0.0, 0.0),
            fmt: FPFormat, rounding: str = RoundingMode.NEAREST_EVEN,
            ws: Optional[Workspace] = None) -> Dict:
    """One flux-divergence update of a block (or stack of blocks), truncating.

    Twin of ``HydroSolver.advance_block`` under an optimized truncating
    context, with the inputs of :func:`repro.kernels.flux.advance`
    (stacked blocks of any AMR level, per-block ``dx``/``dy``).  The
    guard-cell-filled primitives are first *lifted* — rounded whole into
    ``fmt``, the twin of the solver's ``ctx.const`` lift — then the fused
    truncating pipeline runs with a quantisation at every op boundary.
    Returns the new interior primitives as **fresh** arrays.
    """
    o = _o(ws)
    q = _Q(fmt, rounding, ws)

    # lift: quantise the guard-filled inputs once at block entry
    stacked = stack_primitives(prims, ws, ("lift",))
    lift_buf = stacked if stacked is not prims else o(("lift",), stacked.shape)
    lifted = quantize_into(stacked, fmt, rounding, ws, out=lift_buf)

    sweeps = [
        directional_flux(stack, axis, ng, n, scheme, solver, gamma, dens_floor, pres_floor,
                         ws, fmt=fmt, rounding=rounding)
        for stack, axis, n in sweep_inputs(lifted, ng, nxb, nyb, ws)
    ]
    flux_x, flux_y = conserved_fluxes(sweeps)

    dens, velx, vely, pres = lifted[..., ng:ng + nxb, ng:ng + nyb]
    shp = np.shape(dens)
    momx = np.multiply(dens, velx, out=o(("u", "momx"), shp))
    q(momx)
    momy = np.multiply(dens, vely, out=o(("u", "momy"), shp))
    q(momy)
    ener = eos_total_energy(dens, velx, vely, pres, gamma, ws, ("u", "en"),
                            out=o(("u", "ener"), shp), fmt=fmt, rounding=rounding)
    cons = {"dens": dens, "momx": momx, "momy": momy, "ener": ener}

    # per-step scalars are quantised like ctx.const(dt / dx) — uncached,
    # element-wise for per-block spacings
    dtdx = q.dyn(np.divide(dt, dx))
    dtdy = q.dyn(np.divide(dt, dy))
    new_cons: Dict = {}
    for comp in ("dens", "momx", "momy", "ener"):
        fx = flux_x[comp]
        fy = flux_y[comp]
        div_x = np.subtract(fx[..., 1:, :], fx[..., :-1, :], out=o(("u", "divx"), shp))
        q(div_x)
        div_y = np.subtract(fy[..., :, 1:], fy[..., :, :-1], out=o(("u", "divy"), shp))
        q(div_y)
        np.multiply(dtdx, div_x, out=div_x)
        q(div_x)
        np.multiply(dtdy, div_y, out=div_y)
        q(div_y)
        change = np.add(div_x, div_y, out=div_x)
        q(change)
        new_cons[comp] = np.subtract(cons[comp], change, out=o(("u", "new", comp), shp))
        q(new_cons[comp])

    # constant-gravity source term (matches the instrumented operation
    # stream: skipped entirely when gravity is off)
    gx, gy = gravity
    if gx != 0.0 or gy != 0.0:
        if gx != 0.0:
            dtgx = q.dyn(dt * gx)
            src = np.multiply(dens, dtgx, out=o(("u", "src"), shp))
            q(src)
            np.add(new_cons["momx"], src, out=new_cons["momx"])
            q(new_cons["momx"])
            np.multiply(momx, dtgx, out=src)
            q(src)
            np.add(new_cons["ener"], src, out=new_cons["ener"])
            q(new_cons["ener"])
        if gy != 0.0:
            dtgy = q.dyn(dt * gy)
            src = np.multiply(dens, dtgy, out=o(("u", "src"), shp))
            q(src)
            np.add(new_cons["momy"], src, out=new_cons["momy"])
            q(new_cons["momy"])
            np.multiply(momy, dtgy, out=src)
            q(src)
            np.add(new_cons["ener"], src, out=new_cons["ener"])
            q(new_cons["ener"])

    # conserved -> primitive, with floors; outputs are deliberately fresh
    new_dens = np.maximum(new_cons["dens"], q.const(dens_floor))
    new_velx = np.divide(new_cons["momx"], new_dens)
    q(new_velx)
    new_vely = np.divide(new_cons["momy"], new_dens)
    q(new_vely)
    new_pres = eos_pressure_from_total_energy(
        new_dens, new_cons["momx"], new_cons["momy"], new_cons["ener"],
        gamma, pres_floor, dens_floor, ws, ("u", "pte"), out=np.empty(shp),
        fmt=fmt, rounding=rounding,
    )
    return {"dens": new_dens, "velx": new_velx, "vely": new_vely, "pres": new_pres}
