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
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from .fpformat import FPFormat

__all__ = [
    "RoundingMode",
    "quantize",
    "quantize_like",
    "is_representable",
    "ulp",
    "quantization_error",
    "quantize_rne_bits",
]

ArrayLike = Union[float, np.ndarray]


class RoundingMode:
    """Supported rounding modes (subset of MPFR's)."""

    NEAREST_EVEN = "nearest-even"
    TOWARD_ZERO = "toward-zero"
    UP = "up"
    DOWN = "down"

    ALL = (NEAREST_EVEN, TOWARD_ZERO, UP, DOWN)


#: the magnitude bits of a binary64 pattern (everything but the sign)
_ABS_BITS = np.uint64(0x7FFF_FFFF_FFFF_FFFF)
_ONE = np.uint64(1)

#: per-format constants of :func:`quantize_rne_bits`, keyed by
#: (exp_bits, man_bits): (shift, half - 1, keep mask, min-normal bits - 1,
#: largest magnitude bits that round to at most ``max_value``)
_RNE_CACHE: Dict[Tuple[int, int], Tuple[np.uint64, ...]] = {}


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _rne_params(fmt: FPFormat) -> Tuple[np.uint64, ...]:
    key = (fmt.exp_bits, fmt.man_bits)
    params = _RNE_CACHE.get(key)
    if params is None:
        shift = 52 - fmt.man_bits
        # at shift 0 no bit is dropped: nothing is added, and every
        # binary64 past max_value lies a binade above it and overflows
        half_m1 = (1 << (shift - 1)) - 1 if shift else 0
        keep = ~((1 << shift) - 1) & 0xFFFF_FFFF_FFFF_FFFF
        # below the midpoint between max_value and the next grid value;
        # the midpoint itself ties to the even (overflowing) side
        top = _bits(fmt.max_value) + half_m1
        # numpy scalars: a Python int operand is converted on every call
        params = tuple(
            np.uint64(v) for v in (shift, half_m1, keep, _bits(fmt.min_normal) - 1, top)
        )
        _RNE_CACHE[key] = params
    return params


def quantize_rne_bits(
    arr: np.ndarray,
    fmt: FPFormat,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Round-to-nearest-even of a binary64 array on its bit patterns.

    Adds ``half - 1`` plus the last retained bit to every pattern and
    masks the dropped bits off: ties go to the even neighbour, and a
    carry out of the fraction bumps the exponent exactly as rounding up to
    the next binade must.  That is the rounding :func:`quantize` performs
    for every lane that is zero or a normal number of ``fmt`` and does not
    overflow it — the common case, in a handful of integer ufuncs.  A
    format with all 52 fraction bits (and a narrower exponent than
    binary64) drops no bits, so there the rounding of such lanes is a
    copy, or nothing when ``out`` is ``arr``.

    Returns None, having written nothing, when any lane needs the general
    path (a target-subnormal, non-finite or overflowing lane) or when
    ``arr`` is empty.  The result lands in ``out`` (which may be ``arr``
    itself) or in a fresh array; ``scratch`` is an optional uint64 buffer
    of ``arr``'s shape.
    """
    if arr.size == 0:
        return None
    shift, half_m1, keep, low_m1, top = _rne_params(fmt)
    bits = arr.view(np.uint64)
    if scratch is None:
        # an explicit buffer keeps 0-d inputs arrays (ufuncs return scalars)
        scratch = np.empty(arr.shape, dtype=np.uint64)
    mag = np.bitwise_and(bits, _ABS_BITS, out=scratch)
    if np.maximum.reduce(mag, axis=None) > top:
        return None
    # zeros wrap to the top of the range and pass; (0, min_normal) fails
    np.subtract(mag, _ONE, out=mag)
    if np.minimum.reduce(mag, axis=None) < low_m1:
        return None
    if not shift:
        if out is None:
            return arr.copy()
        if out is not arr:
            np.copyto(out, arr)
        return out
    lsb = np.right_shift(bits, shift, out=mag)
    np.bitwise_and(lsb, _ONE, out=lsb)
    if out is None:
        out = np.empty(arr.shape, dtype=np.float64)
    dst = out.view(np.uint64)
    np.add(bits, lsb, out=dst)
    np.add(dst, half_m1, out=dst)
    np.bitwise_and(dst, keep, out=dst)
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
        Array of binary64 values, every element exactly representable in
        ``fmt`` (or ±inf on overflow, NaN propagated).  Scalars come back as
        0-d arrays; use ``float(...)`` if a Python float is needed.
    """
    if rounding not in RoundingMode.ALL:
        raise ValueError(f"unknown rounding mode: {rounding!r}")

    arr = np.asarray(x, dtype=np.float64)
    if fmt.is_fp64() and rounding == RoundingMode.NEAREST_EVEN:
        return arr.copy()
    if rounding == RoundingMode.NEAREST_EVEN:
        fast = quantize_rne_bits(arr, fmt)
        if fast is not None:
            return fast

    out = arr.copy()
    finite = np.isfinite(arr) & (arr != 0.0)
    if not np.any(finite):
        return out

    vals = arr[finite]
    sign = np.signbit(vals)
    mag = np.abs(vals)

    # Decompose |x| = m * 2**e with m in [0.5, 1).  The unbiased exponent of
    # the leading significand bit is then E = e - 1 and the significand is
    # s = 2*m in [1, 2).
    m, e = np.frexp(mag)
    E = e - 1

    # Effective precision: man_bits fraction bits for normals; values whose
    # exponent falls below emin lose one bit per binade (gradual underflow).
    prec = fmt.man_bits - np.maximum(fmt.emin - E, 0)

    # Scale so the last retained fraction bit sits at the units place:
    # scaled = s * 2**prec = m * 2**(prec + 1).
    scaled = np.ldexp(m, prec + 1)
    if rounding == RoundingMode.NEAREST_EVEN:
        rounded = np.rint(scaled)
    elif rounding == RoundingMode.TOWARD_ZERO:
        rounded = np.trunc(scaled)
    elif rounding == RoundingMode.UP:
        rounded = np.where(sign, np.floor(scaled), np.ceil(scaled))
    else:  # DOWN
        rounded = np.where(sign, np.ceil(scaled), np.floor(scaled))

    q = np.ldexp(rounded, E - prec)
    q = np.where(sign, -q, q)

    # Overflow handling: magnitudes beyond the largest finite value become
    # ±inf under nearest/away-from-zero directions, and are clamped to the
    # largest finite value under toward-zero (as in IEEE-754 / MPFR).
    over = np.abs(q) > fmt.max_value
    if np.any(over):
        if rounding == RoundingMode.TOWARD_ZERO:
            q = np.where(over, np.copysign(fmt.max_value, q), q)
        elif rounding == RoundingMode.UP:
            q = np.where(over & ~sign, np.inf, q)
            q = np.where(over & sign, -fmt.max_value, q)
        elif rounding == RoundingMode.DOWN:
            q = np.where(over & sign, -np.inf, q)
            q = np.where(over & ~sign, fmt.max_value, q)
        else:
            q = np.where(over, np.copysign(np.inf, q), q)

    # Preserve the sign of values that underflowed to zero.
    q = np.where((q == 0.0) & sign, -0.0, q)

    out[finite] = q
    return out


def quantize_like(x: ArrayLike, fmt: FPFormat, template: np.ndarray) -> np.ndarray:
    """Quantise ``x`` and reshape/broadcast it to the shape of ``template``."""
    q = quantize(x, fmt)
    return np.broadcast_to(q, np.shape(template)).copy()


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
