"""Exact rational rounding — the test oracle of :mod:`repro.core.quantize`.

:func:`exact_quantize` rounds one scalar into a format with exact
:class:`~fractions.Fraction` arithmetic and no binary64 intermediates.  It
shares no code with the vectorised quantizers, so
``tests/core/test_quantize_underflow.py`` pins ``quantize``,
``quantize_into`` and ``quantize_rne_bits`` bitwise against it.

:func:`exact_round_nearest`, :func:`exact_round_directed` and
:func:`exact_sqrt_nearest` round the *true* result of an operation (an
exact rational, or a square root decided in integers) into a format, so
``tests/core/test_opmode_oracle.py`` can check whether op-mode's
binary64-then-round evaluation is correctly rounded.
"""
from __future__ import annotations

import math
from fractions import Fraction

from repro.core.fpformat import FP64, FPFormat
from repro.core.quantize import RoundingMode


def exact_quantize(
    value: float,
    fmt: FPFormat = FP64,
    rounding: str = RoundingMode.NEAREST_EVEN,
) -> float:
    """Round a scalar into ``fmt`` using exact rational arithmetic.

    An independent oracle for :func:`repro.core.quantize.quantize`: the
    representable grid of ``fmt`` around ``value`` is constructed from
    first principles (spacing ``2**(max(E, emin) - man_bits)`` in the
    binade of exponent ``E``, which covers normals, subnormals and the
    below-``min_subnormal`` regime uniformly) and the grid index is
    rounded as an exact :class:`~fractions.Fraction` — no binary64
    intermediates, so every directed-rounding decision at the underflow
    boundary is exact.  Overflow follows IEEE 754: directed modes clamp
    to ``max_value`` on the side they cannot cross, nearest goes to
    infinity past the top of the grid.
    """
    if rounding not in RoundingMode.ALL:
        raise ValueError(f"unknown rounding mode: {rounding!r}")
    x = float(value)
    # non-finite values and zeros (either sign) pass through untouched
    if not math.isfinite(x) or x == 0.0:
        return x
    m, e = math.frexp(abs(x))  # |x| = m * 2**e, m in [0.5, 1): exact
    E = e - 1
    ulp_exp = max(E, fmt.emin) - fmt.man_bits
    scaled = Fraction(x) / Fraction(2) ** ulp_exp
    if rounding == RoundingMode.NEAREST_EVEN:
        n = round(scaled)  # Fraction.__round__ is exact half-to-even
    elif rounding == RoundingMode.TOWARD_ZERO:
        n = math.trunc(scaled)
    elif rounding == RoundingMode.UP:
        n = math.ceil(scaled)
    else:  # DOWN
        n = math.floor(scaled)
    q = n * Fraction(2) ** ulp_exp
    if abs(q) > Fraction(fmt.max_value):
        if rounding == RoundingMode.TOWARD_ZERO:
            q = Fraction(fmt.max_value) if q > 0 else -Fraction(fmt.max_value)
        elif rounding == RoundingMode.UP:
            return math.inf if q > 0 else -fmt.max_value
        elif rounding == RoundingMode.DOWN:
            return -math.inf if q < 0 else fmt.max_value
        else:
            return math.copysign(math.inf, x)
    result = float(q)
    if result == 0.0 and math.copysign(1.0, x) < 0.0:
        return -0.0
    return result


def _binade(q: Fraction) -> int:
    """``floor(log2(q))`` of a positive rational, exactly."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    return e - 1 if Fraction(2) ** e > q else e


def _round_scaled_nearest(q: Fraction, ulp_exp: int, fmt: FPFormat) -> float:
    """``q`` rounded half-to-even onto the grid of spacing ``2**ulp_exp``,
    overflowing to a signed infinity past the top of ``fmt``."""
    r = round(q / Fraction(2) ** ulp_exp) * Fraction(2) ** ulp_exp
    if abs(r) > Fraction(fmt.max_value):
        return math.inf if q > 0 else -math.inf
    if r == 0:
        return -0.0 if q < 0 else 0.0
    return float(r)


def exact_round_nearest(q: Fraction, fmt: FPFormat) -> float:
    """Round an exact rational (the true result of ``+``, ``-``, ``*`` or
    ``/`` on floats) into ``fmt`` half-to-even, with no binary64 step."""
    q = Fraction(q)
    if q == 0:
        return 0.0
    return _round_scaled_nearest(q, max(_binade(abs(q)), fmt.emin) - fmt.man_bits, fmt)


def exact_round_directed(q: Fraction, fmt: FPFormat, rounding: str) -> float:
    """Round a nonzero exact rational into ``fmt`` in a directed mode, with
    no binary64 step.  The result must lie inside the format's range."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("exact_round_directed takes a nonzero rational")
    ulp_exp = max(_binade(abs(q)), fmt.emin) - fmt.man_bits
    scaled = q / Fraction(2) ** ulp_exp
    n = {
        RoundingMode.TOWARD_ZERO: math.trunc,
        RoundingMode.UP: math.ceil,
        RoundingMode.DOWN: math.floor,
    }[rounding](scaled)
    r = n * Fraction(2) ** ulp_exp
    if abs(r) > Fraction(fmt.max_value):
        raise ValueError(f"{float(q)!r} rounds past the range of {fmt}")
    return -0.0 if r == 0 and q < 0 else float(r)


def exact_sqrt_nearest(x: float, fmt: FPFormat) -> float:
    """The true square root of a non-negative float, rounded into ``fmt``
    half-to-even: the grid index ``sqrt(x) / 2**ulp_exp`` is rounded by
    comparing its square against the squared midpoint, in integers."""
    q = Fraction(x)
    if q < 0:
        raise ValueError(f"sqrt of a negative value: {x!r}")
    if q == 0:
        return x
    # floor(log2(sqrt(q))) == floor(floor(log2(q)) / 2)
    ulp_exp = max(_binade(q) // 2, fmt.emin) - fmt.man_bits
    y = q / Fraction(4) ** ulp_exp  # sqrt(y) is the grid index
    k = math.isqrt(y.numerator // y.denominator)  # floor(sqrt(y))
    mid = Fraction(2 * k + 1, 2) ** 2
    n = k + 1 if y > mid or (y == mid and k % 2 == 1) else k
    # n * 2**ulp_exp already lies on the grid; this only applies the overflow rule
    return _round_scaled_nearest(n * Fraction(2) ** ulp_exp, ulp_exp, fmt)
