"""Vectorised quantisation of IEEE doubles to arbitrary reduced formats.

This is the reproduction's substitute for GNU MPFR: every truncated
floating-point operation is performed in binary64 and the *result* is rounded
to the requested :class:`~repro.core.fpformat.FPFormat` with a configurable
rounding mode (round-to-nearest-even by default, matching MPFR's
``MPFR_RNDN``).  For target precisions well below 52 mantissa bits — the
regime exercised by every experiment in the paper — this matches a correctly
rounded arbitrary-precision computation except for rare double-rounding
events, and it is fully vectorised over numpy arrays.

Subnormals, signed zeros, overflow-to-infinity and NaN propagation follow
IEEE-754 semantics for the target format.

Round-to-nearest-even, the mode of every truncated op in the experiments,
has a fast path (:func:`quantize_rne_bits`).  A range check on the bit
patterns admits an array only when every lane is zero or a normal number
of the format that cannot overflow it (nor reach ``2**(1023 - s)``, where
``s = 52 - man_bits`` bits are dropped).  Then Dekker's form of
Veltkamp's split rounds all lanes in three float passes: ``g = x *
(2**s + 1)``, ``out = g - (g - x)``.  Any other array, and every other
rounding mode, takes the general frexp/ldexp path, which is exact on
every lane.  The split's operand order is Dekker's, not the textbook
``g + (x - g)``, because only that order keeps the sign of ``-0.0``.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from .fpformat import FPFormat

__all__ = [
    "RoundingMode",
    "quantize",
    "quantize_into",
    "is_representable",
    "ulp",
    "quantization_error",
    "quantize_rne_bits",
]

ArrayLike = Union[float, np.ndarray]


class RoundingMode:
    """Supported rounding modes (subset of MPFR's).

    Op-mode contexts evaluate each operation in binary64 and then round
    the binary64 result in the chosen mode.  Under ``NEAREST_EVEN`` that
    is the correctly rounded true result for every target up to fp32; the
    directed modes round the binary64 result, not the exact one, so when
    binary64 itself rounds (``1.0 + 2**-80`` is 1.0) ``UP`` or
    ``TOWARD_ZERO`` can miss the neighbour the true result lies past.
    """

    NEAREST_EVEN = "nearest-even"
    TOWARD_ZERO = "toward-zero"
    UP = "up"
    DOWN = "down"

    ALL = (NEAREST_EVEN, TOWARD_ZERO, UP, DOWN)


#: the magnitude bits of a binary64 pattern (everything but the sign)
_ABS_BITS = np.uint64(0x7FFF_FFFF_FFFF_FFFF)
_ONE = np.uint64(1)

#: per-format constants of :func:`quantize_rne_bits`, keyed by
#: (exp_bits, man_bits): (split factor ``2**s + 1``, or None when no bit is
#: dropped; min-normal bits - 1, or None for binary64, where every lane is
#: its own rounding; largest magnitude bits the split takes)
_RNE_CACHE: Dict[Tuple[int, int], tuple] = {}


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _rne_params(fmt: FPFormat) -> tuple:
    key = (fmt.exp_bits, fmt.man_bits)
    params = _RNE_CACHE.get(key)
    if params is None:
        shift = 52 - fmt.man_bits
        if fmt.is_fp64():
            params = (None, None, None)
        elif not shift:
            # every binary64 past max_value lies a binade above it and
            # overflows; zeros and normals below it are their own rounding
            params = (None, np.uint64(_bits(fmt.min_normal) - 1),
                      np.uint64(_bits(fmt.max_value)))
        else:
            # below the midpoint between max_value and the next grid value
            # (the midpoint itself ties to the even, overflowing side), and
            # below 2**(1023 - s), so that (2**s + 1) * x stays finite
            top = min(_bits(fmt.max_value) + (1 << (shift - 1)) - 1,
                      _bits(2.0 ** (1023 - shift)) - 1)
            # numpy scalars: a Python int operand is converted on every call
            params = (float(2 ** shift + 1), np.uint64(_bits(fmt.min_normal) - 1),
                      np.uint64(top))
        _RNE_CACHE[key] = params
    return params


def quantize_rne_bits(
    arr: np.ndarray,
    fmt: FPFormat,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Round-to-nearest-even of a binary64 array by a Veltkamp split.

    A range check on the bit patterns comes first: every lane must be zero,
    or a normal number of ``fmt`` that neither overflows it nor reaches
    ``2**(1023 - s)``, with ``s = 52 - man_bits`` the number of dropped
    bits.  Then three float passes round all lanes at once:
    ``g = x * (2**s + 1)`` and ``out = g - (g - x)``.  That is Dekker's form
    of Veltkamp's split (T. J. Dekker, Numer. Math. 18, 1971; S. Boldo,
    IJCAR 2006): under binary64 round-to-nearest-even, ``g - (g - x)`` is
    ``x`` rounded to nearest, ties to even, on ``53 - s`` significant bits,
    a carry into the next binade included (at ``man_bits = 0``, where every
    significand is odd, a tie goes up to the even multiple of the grid
    spacing, as on the general path).  On the checked lanes that is the
    rounding :func:`quantize` performs.  The bound keeps
    ``(2**s + 1) * x`` finite for 11-bit exponents.  The ordering is
    Dekker's on purpose: a zero lane gives ``g - x = +0``, and
    ``±0 - (+0)`` keeps the sign, where the textbook ``g + (x - g)`` turns
    ``-0`` into ``+0``.

    A format with all 52 fraction bits (and a narrower exponent than
    binary64) drops no bits, so there the rounding of the checked lanes is
    a copy, or nothing when ``out`` is ``arr``; binary64 itself is a copy
    of every lane, unchecked.

    Returns None, having written nothing, when any lane needs the general
    path (a target-subnormal, non-finite, overflowing or too-large lane)
    or when ``arr`` is empty.  The result lands in ``out`` (which may be
    ``arr`` itself: each pass reads a lane before it writes it) or in a
    fresh array; ``scratch`` is an optional float64 buffer of ``arr``'s
    shape.
    """
    if not arr.size:
        return None
    sigma, low_m1, top = _RNE_CACHE.get((fmt.exp_bits, fmt.man_bits)) or _rne_params(fmt)
    if low_m1 is not None:
        if scratch is None:
            # an explicit buffer keeps 0-d inputs arrays (ufuncs return scalars)
            scratch = np.empty(arr.shape)
        mag = np.bitwise_and(arr.view(np.uint64), _ABS_BITS, out=scratch.view(np.uint64))
        if np.maximum.reduce(mag, axis=None) > top:
            return None
        # zeros wrap to the top of the range and pass; (0, min_normal) fails
        np.subtract(mag, _ONE, out=mag)
        if np.minimum.reduce(mag, axis=None) < low_m1:
            return None
    if sigma is None:
        if out is None:
            return arr.copy()
        if out is not arr:
            np.copyto(out, arr)
        return out
    g = np.multiply(arr, sigma, out=scratch)
    if out is None:
        out = np.empty(arr.shape)
    np.subtract(g, arr, out=out)
    return np.subtract(g, out, out=out)


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


#: scratch key family of the :func:`quantize_into` intermediates — no
#: quantisation scratch survives a call, so one family serves every caller
_QZ = "qz"
#: the fast path's scratch key
_QZ_SPLIT = (_QZ, "split")


def _fresh(key, shape, dtype=np.float64) -> np.ndarray:
    return np.empty(shape, np.dtype(dtype))


def quantize_into(
    arr: ArrayLike,
    fmt: FPFormat,
    rounding: str = RoundingMode.NEAREST_EVEN,
    ws=None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Round ``arr`` to ``fmt`` into ``out``, with optional scratch buffers.

    ``out`` may be ``arr`` itself (the hot in-place case: all reads of
    ``arr`` precede the single masked write) or any non-overlapping array;
    ``None`` allocates a fresh result.  ``ws`` is anything with an
    ``out(key, shape, dtype)`` method returning a buffer (a
    :class:`~repro.kernels.scratch.Workspace`), or ``None`` for fresh
    intermediates.

    Round-to-nearest-even first tries the split of
    :func:`quantize_rne_bits`, which also answers binary64 itself (a copy).
    The general path decomposes, rounds and recomposes **all** lanes: every
    step is element-wise, so each finite non-zero lane gets its own
    rounding, and the non-finite and zero lanes are restored from ``arr``
    at the end.
    """
    arr = np.asarray(arr, dtype=np.float64)
    shp = arr.shape
    if rounding == RoundingMode.NEAREST_EVEN:
        fast = quantize_rne_bits(arr, fmt, out, None if ws is None else ws.out(_QZ_SPLIT, shp))
        if fast is not None:
            return fast
    elif rounding not in RoundingMode.ALL:
        raise ValueError(f"unknown rounding mode: {rounding!r}")

    # frexp/ldexp need real out arrays: the chain reads them back
    o = _fresh if ws is None else ws.out
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

    # The formulas run on non-finite lanes too (restored below), and
    # rounding up near the largest binary64 overflows ldexp; silence both:
    # the overflow is the rounding's real result, handled below.
    with np.errstate(over="ignore", invalid="ignore"):
        # |x| = m * 2**e with m in [0.5, 1): the leading significand bit
        # has unbiased exponent E = e - 1
        m = o((_QZ, "m"), shp)
        e = o((_QZ, "e"), shp, np.int32)
        np.frexp(mag, m, e)
        E = np.subtract(e, 1, out=e)
        # effective precision: man_bits fraction bits for normals; values
        # below emin lose one bit per binade (gradual underflow)
        prec = np.subtract(fmt_emin, E, out=o((_QZ, "p"), shp, np.int32))
        np.maximum(prec, 0, out=prec)
        np.subtract(fmt_man_bits, prec, out=prec)
        # scale so the last retained fraction bit sits at the units place
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

        # overflow: beyond the largest finite value lies ±inf under nearest
        # and away-from-zero directions, the clamp under toward-zero (as in
        # IEEE-754 / MPFR)
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

        # values that underflowed to zero keep their sign
        zero = np.equal(q, 0.0, out=mask)
        np.logical_and(zero, sign, out=zero)
        np.copyto(q, -0.0, where=zero)

    if out is None:
        out = arr.copy()
    elif out is not arr:
        np.copyto(out, arr)
    np.copyto(out, q, where=finite)
    return out


def quantize(
    x: ArrayLike,
    fmt: FPFormat,
    rounding: str = RoundingMode.NEAREST_EVEN,
) -> np.ndarray:
    """Round ``x`` to the nearest value representable in ``fmt``.

    Parameters
    ----------
    x:
        Scalar or array of binary64 values (anything ``np.asarray`` accepts).
    fmt:
        Target format.
    rounding:
        One of :class:`RoundingMode`.

    Returns
    -------
    numpy.ndarray
        A fresh array of binary64 values, every element exactly
        representable in ``fmt`` (or ±inf on overflow, NaN propagated).
        Scalars come back as 0-d arrays; use ``float(...)`` if a Python
        float is needed.  The unbuffered form of :func:`quantize_into`.
    """
    return quantize_into(x, fmt, rounding)


def is_representable(x: ArrayLike, fmt: FPFormat) -> np.ndarray:
    """Element-wise test whether ``x`` is exactly representable in ``fmt``."""
    arr = np.asarray(x, dtype=np.float64)
    q = quantize(arr, fmt)
    same = (q == arr) | (np.isnan(arr) & np.isnan(q))
    return np.asarray(same)


def ulp(x: ArrayLike, fmt: FPFormat) -> np.ndarray:
    """Unit in the last place of ``fmt`` at magnitude ``|x|``.

    For zero and subnormal magnitudes this returns the smallest subnormal
    spacing ``2**(emin - man_bits)``.
    """
    arr = np.abs(np.asarray(x, dtype=np.float64))
    out = np.full(arr.shape, fmt.min_subnormal, dtype=np.float64)
    normal = arr >= fmt.min_normal
    if np.any(normal):
        _, e = np.frexp(arr[normal])
        out_n = np.ldexp(1.0, (e - 1) - fmt.man_bits)
        out[normal] = out_n
    inf_or_nan = ~np.isfinite(arr)
    if np.any(inf_or_nan):
        out = np.where(inf_or_nan, np.nan, out)
    return out


def quantization_error(x: ArrayLike, fmt: FPFormat) -> np.ndarray:
    """Absolute rounding error committed by quantising ``x`` to ``fmt``."""
    arr = np.asarray(x, dtype=np.float64)
    q = quantize(arr, fmt)
    err = np.abs(q - arr)
    return np.where(np.isfinite(arr) & ~np.isfinite(q), np.inf, err)
