"""Directed-rounding audit of core/quantize at the underflow boundary.

:func:`exact_quantize` (``tests/quantize_oracle.py``) reconstructs the representable
grid of a format with exact :class:`~fractions.Fraction` arithmetic — no
binary64 intermediates — so it is an independent oracle for every rounding
decision the vectorised :func:`repro.core.quantize.quantize` makes.  These
tests pin the two implementations bitwise-equal exactly where the scaled
ldexp/rint chain is most delicate: the subnormal range around ``2**emin``,
the below-``min_subnormal`` regime where directed modes must snap to zero
or the smallest subnormal, and the overflow clamp at ``max_value``.  The
round-to-nearest-even fast path both quantizers try first (a Veltkamp
split behind a range check) is pinned against the same oracle over raw bit
patterns, exact ties of both parities, signed zeros and the edges of its
range.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from quantize_oracle import exact_quantize

from repro.core import FPFormat, RoundingMode, quantize
from repro.core.quantize import quantize_rne_bits
from repro.kernels.scratch import Workspace
from repro.kernels.trunc import quantize_into

# small formats put the underflow boundary within easy reach; e5m10/e8m7 are
# fp16/bf16, e4m3/e5m2 are the FP8 pair, e8m10 is the paper's sweep format
FORMATS = [
    FPFormat(exp_bits=4, man_bits=3),
    FPFormat(exp_bits=5, man_bits=2),
    FPFormat(exp_bits=5, man_bits=10),
    FPFormat(exp_bits=8, man_bits=7),
    FPFormat(exp_bits=8, man_bits=10),
]
FORMAT_IDS = [f"e{f.exp_bits}m{f.man_bits}" for f in FORMATS]
ROUNDINGS = list(RoundingMode.ALL)


def assert_same_bits(x, fmt, rounding):
    got = float(quantize(x, fmt, rounding))
    want = exact_quantize(x, fmt, rounding)
    # bitwise comparison: distinguishes +0.0 from -0.0 and catches any
    # one-ulp disagreement a value comparison with tolerance would mask
    assert math.copysign(1.0, got) == math.copysign(1.0, want) and (
        got == want or (math.isnan(got) and math.isnan(want))
    ), f"quantize({x!r}, {fmt.spec}, {rounding}) = {got!r}, oracle says {want!r}"


# ---------------------------------------------------------------------------
# dense deterministic sweep across the underflow boundary
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("rounding", ROUNDINGS)
def test_subnormal_grid_and_midpoints(fmt, rounding):
    """Every multiple of the subnormal spacing up past min_normal, plus the
    halfway points between them where ties-to-even decides."""
    step = fmt.min_subnormal
    top = int(round(fmt.min_normal / step))
    for n in range(0, 4 * top + 1):
        for x in (n * step, (n + 0.5) * step, (n + 0.25) * step):
            assert_same_bits(x, fmt, rounding)
            assert_same_bits(-x, fmt, rounding)


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("rounding", ROUNDINGS)
def test_below_min_subnormal(fmt, rounding):
    """Magnitudes strictly inside (0, min_subnormal): directed modes must
    snap to the correct side — UP to +min_subnormal, DOWN to -0.0 for
    positive inputs (and mirrored for negative) — with no double rounding."""
    tiny = fmt.min_subnormal
    for frac in (1e-6, 0.25, 0.5 * (1 - 1e-9), 0.5, 0.5 * (1 + 1e-9), 0.75, 1 - 1e-9):
        assert_same_bits(frac * tiny, fmt, rounding)
        assert_same_bits(-frac * tiny, fmt, rounding)


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("rounding", ROUNDINGS)
def test_signed_zero_agreement(fmt, rounding):
    assert_same_bits(0.0, fmt, rounding)
    assert_same_bits(-0.0, fmt, rounding)


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@pytest.mark.parametrize("rounding", ROUNDINGS)
def test_overflow_boundary(fmt, rounding):
    """Just below, at, and beyond max_value: the oracle enforces the IEEE
    clamp rules (directed modes stop at max_value on the side they cannot
    cross, nearest overflows to infinity)."""
    top = fmt.max_value
    for x in (top * (1 - 1e-9), top, top * (1 + 1e-9), top * 2.0, np.nextafter(top, np.inf)):
        assert_same_bits(x, fmt, rounding)
        assert_same_bits(-x, fmt, rounding)


# ---------------------------------------------------------------------------
# hypothesis sweep concentrated at emin
# ---------------------------------------------------------------------------
@given(
    fmt=st.sampled_from(FORMATS),
    rounding=st.sampled_from(ROUNDINGS),
    mantissa=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    sign=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=600, deadline=None)
def test_random_values_near_emin_match_oracle(fmt, rounding, mantissa, sign):
    x = sign * mantissa * (2.0 ** fmt.emin)
    assert_same_bits(x, fmt, rounding)


@given(
    fmt=st.sampled_from(FORMATS),
    rounding=st.sampled_from(ROUNDINGS),
    x=st.floats(allow_nan=False, allow_infinity=False, width=64),
)
@settings(max_examples=400, deadline=None)
def test_arbitrary_doubles_match_oracle(fmt, rounding, x):
    assert_same_bits(x, fmt, rounding)


@given(
    fmt=st.sampled_from(FORMATS),
    rounding=st.sampled_from(ROUNDINGS),
    x=st.floats(allow_nan=False, allow_infinity=False, width=64),
)
@settings(max_examples=200, deadline=None)
def test_oracle_is_idempotent(fmt, rounding, x):
    once = exact_quantize(x, fmt, rounding)
    assert exact_quantize(once, fmt, rounding) == once or math.isnan(once)


# ---------------------------------------------------------------------------
# the round-to-nearest-even fast path (range check + Veltkamp split)
# ---------------------------------------------------------------------------
#: the fast path's formats: the small ones above, the sweep formats and
#: both ends of the exponent range
RNE_FORMATS = FORMATS + [
    FPFormat(exp_bits=8, man_bits=23),
    FPFormat(exp_bits=8, man_bits=52),
    FPFormat(exp_bits=11, man_bits=51),
    FPFormat(exp_bits=11, man_bits=0),
    FPFormat(exp_bits=2, man_bits=5),
]


def _oracle_bits(values, fmt):
    want = np.array([exact_quantize(float(v), fmt) for v in values.ravel()])
    return want.reshape(values.shape).view(np.uint64)


@given(
    fmt=st.sampled_from(RNE_FORMATS),
    patterns=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=12),
)
@settings(max_examples=600, deadline=None)
def test_rne_raw_bit_patterns_match_oracle(fmt, patterns):
    """Arbitrary binary64 bit patterns — normals, subnormals, ±0, ±inf,
    NaN payloads — through both quantizers, fast path or fallback."""
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    want = _oracle_bits(values, fmt)
    got = quantize(values, fmt).view(np.uint64)
    into = quantize_into(values.copy(), fmt).view(np.uint64)
    nan = np.isnan(values)
    assert np.array_equal(np.isnan(got.view(np.float64)), nan)
    assert np.array_equal(got[~nan], want[~nan])
    assert np.array_equal(into, got)


@given(
    fmt=st.sampled_from(RNE_FORMATS),
    exponents=st.lists(st.integers(min_value=-30, max_value=30), min_size=6, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_rne_fast_path_on_arrays_matches_oracle(fmt, exponents, seed):
    """Normal-range 2-D arrays with zeros (the fast path's own domain):
    in place, into a separate buffer and fresh, all bitwise the oracle."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((6, 5)) * np.exp2(np.array(exponents))[:, None]
    values[0, 0], values[-1, -1] = 0.0, -0.0
    want = _oracle_bits(values, fmt)
    assert np.array_equal(quantize(values, fmt).view(np.uint64), want)
    out = np.empty_like(values)
    assert np.array_equal(quantize_into(values, fmt, out=out).view(np.uint64), want)
    in_place = values.copy()
    quantize_into(in_place, fmt, out=in_place)
    assert np.array_equal(in_place.view(np.uint64), want)


def _split_limit(fmt):
    """The largest magnitude the fast path takes: below the overflow
    midpoint (which ties to the even, overflowing side) and, when bits are
    dropped, below ``2**(1023 - s)``, where ``(2**s + 1) * x`` would
    overflow binary64."""
    ulp_top = 2.0 ** (fmt.emax - fmt.man_bits)
    limit = np.nextafter(fmt.max_value + ulp_top / 2, 0.0)
    shift = 52 - fmt.man_bits
    if shift:
        limit = min(limit, np.nextafter(2.0 ** (1023 - shift), 0.0))
    return limit


@pytest.mark.parametrize("fmt", RNE_FORMATS, ids=lambda f: f"e{f.exp_bits}m{f.man_bits}")
def test_rne_fast_path_declines_exactly_the_hard_lanes(fmt):
    """The fast path takes zeros and in-range normals, and declines (writing
    nothing) a target-subnormal, non-finite, overflowing or too-large lane."""
    limit = _split_limit(fmt)
    normal = np.array([1.0, -0.0, 0.0, fmt.min_normal, -limit])
    assert quantize_rne_bits(normal, fmt) is not None
    ulp_top = 2.0 ** (fmt.emax - fmt.man_bits)
    # the overflow midpoint ties to the even side: past max_value
    for bad in (np.nextafter(fmt.min_normal, 0.0), np.inf, np.nan,
                fmt.max_value + ulp_top / 2, np.nextafter(limit, np.inf)):
        out = np.full(2, 7.0)
        assert quantize_rne_bits(np.array([1.0, bad]), fmt, out=out) is None
        assert np.array_equal(out, [7.0, 7.0])
    # just below the overflow midpoint still rounds down to max_value, on
    # the fast path where it reaches that far (formats narrower than e11)
    below = np.nextafter(fmt.max_value + ulp_top / 2, 0.0)
    assert quantize(np.array([below]), fmt)[0] == fmt.max_value
    if below <= limit:
        assert quantize_rne_bits(np.array([below]), fmt)[0] == fmt.max_value
    assert quantize_rne_bits(np.array([]), fmt) is None


@pytest.mark.parametrize("fmt", [FPFormat(exp_bits=8, man_bits=52),
                                 FPFormat(exp_bits=5, man_bits=52)],
                         ids=lambda f: f"e{f.exp_bits}m{f.man_bits}")
def test_rne_fast_path_at_52_bits_copies_in_range_lanes(fmt):
    """With all 52 fraction bits the fast path takes in-range lanes (zeros
    and normals up to ``max_value``) as a copy, bitwise the general path's
    oracle, and still declines the hard lanes, writing nothing."""
    rng = np.random.default_rng(52)
    values = (rng.choice([-1.0, 1.0], 9) * rng.uniform(1.0, 2.0, 9)
              * np.exp2(rng.integers(fmt.emin, fmt.emax + 1, 9)))
    values = np.concatenate([values, [0.0, -0.0, fmt.min_normal, -fmt.max_value]])
    want = _oracle_bits(values, fmt)
    assert np.array_equal(quantize_rne_bits(values, fmt).view(np.uint64), want)
    out = np.empty_like(values)
    assert quantize_rne_bits(values, fmt, out=out) is out
    assert np.array_equal(out.view(np.uint64), want)
    in_place = values.copy()
    assert quantize_rne_bits(in_place, fmt, out=in_place) is in_place
    assert np.array_equal(in_place.view(np.uint64), want)
    zero_d = quantize_rne_bits(np.array(fmt.max_value), fmt)
    assert zero_d.shape == () and zero_d == fmt.max_value
    # past max_value is the next binade: it overflows
    for bad in (np.nextafter(fmt.min_normal, 0.0), np.inf, -np.inf, np.nan,
                np.nextafter(fmt.max_value, np.inf)):
        out = np.full(2, 7.0)
        assert quantize_rne_bits(np.array([1.0, bad]), fmt, out=out) is None
        assert np.array_equal(out, [7.0, 7.0])


def _split_domain(fmt, rng, n):
    """``n`` fast-path lanes of ``fmt`` per kind: random normals, exact
    ties between grid neighbours with even and with odd last bits, the
    binary64 neighbours of those ties, and zeros of both signs — over every
    binade from ``min_normal`` up to the split's limit."""
    limit = _split_limit(fmt)
    lo, hi = fmt.emin, int(math.floor(math.log2(limit)))
    expo = rng.integers(lo, hi + 1, n).astype(float)
    sign = rng.choice([-1.0, 1.0], n)
    normals = sign * rng.uniform(1.0, 2.0, n) * np.exp2(expo)
    # a tie: man_bits + 1 retained bits, then a single one bit; the grid
    # value below ends in k's last bit: even in the first half, odd in the
    # second (a one-bit significand has no odd fraction)
    k = 2 * rng.integers(0, 2 ** max(fmt.man_bits - 1, 0), n)
    if fmt.man_bits:
        k[n // 2:] += 1
    ties = sign * (2.0 ** fmt.man_bits + k + 0.5) * np.exp2(expo - fmt.man_bits)
    values = np.concatenate([normals, ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
                             [0.0, -0.0, fmt.min_normal, -limit]])
    values = values[(np.abs(values) <= limit) & ((np.abs(values) >= fmt.min_normal) | (values == 0))]
    return rng.permutation(values)


@given(
    exp_bits=st.integers(min_value=2, max_value=11),
    man_bits=st.integers(min_value=0, max_value=51),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_split_matches_oracle_across_formats(exp_bits, man_bits, seed):
    """Every exponent width, every dropped-bit count: the split takes the
    whole domain (ties of both parities and signed zeros mixed in with
    ordinary lanes) and agrees bitwise with the oracle fresh, out of place,
    in place and through ``quantize_into``."""
    fmt = FPFormat(exp_bits=exp_bits, man_bits=man_bits)
    values = _split_domain(fmt, np.random.default_rng(seed), 16)
    want = _oracle_bits(values, fmt)
    fresh = quantize_rne_bits(values, fmt)
    assert fresh is not None
    assert np.array_equal(fresh.view(np.uint64), want)
    out = np.full_like(values, 7.0)
    assert quantize_rne_bits(values, fmt, out=out) is out
    assert np.array_equal(out.view(np.uint64), want)
    in_place = values.copy()
    assert quantize_rne_bits(in_place, fmt, out=in_place) is in_place
    assert np.array_equal(in_place.view(np.uint64), want)
    buffered = values.copy()
    quantize_into(buffered, fmt, ws=Workspace(), out=buffered)
    assert np.array_equal(buffered.view(np.uint64), want)


@pytest.mark.parametrize("fmt", [FPFormat(exp_bits=11, man_bits=20),
                                 FPFormat(exp_bits=8, man_bits=10),
                                 FPFormat(exp_bits=5, man_bits=2),
                                 FPFormat(exp_bits=11, man_bits=0)],
                         ids=lambda f: f"e{f.exp_bits}m{f.man_bits}")
def test_split_ties_and_zeros(fmt):
    """Exact ties round to the even grid neighbour, whichever parity the
    lower one has (at ``man_bits=0`` the even one is always the upper
    binade), and zero lanes keep their sign on the fast path, in 1-d and
    0-d calls."""
    ulp = 2.0 ** -fmt.man_bits
    lower_even, lower_odd = 1.0, 1.0 + ulp
    values = np.array([lower_even + ulp / 2, -(lower_even + ulp / 2),
                       lower_odd + ulp / 2, -(lower_odd + ulp / 2), 0.0, -0.0, 3.0])
    want = _oracle_bits(values, fmt)
    got = quantize_rne_bits(values, fmt)
    assert got is not None and np.array_equal(got.view(np.uint64), want)
    if fmt.man_bits:
        assert got[0] == lower_even and got[2] == lower_odd + ulp
    else:
        assert got[0] == 2.0 and got[6] == 4.0
    assert np.array_equal(np.signbit(got[4:6]), [False, True])
    for value in values:
        zero_d = np.array(value)
        got = quantize_rne_bits(zero_d, fmt, out=zero_d)
        assert got is zero_d and got.shape == ()
        assert got.view(np.uint64) == _oracle_bits(np.array(value), fmt)
        fresh = quantize_into(np.array(value), fmt, ws=Workspace())
        assert fresh.shape == () and fresh.view(np.uint64) == got.view(np.uint64)


@pytest.mark.parametrize("man_bits", [0, 1, 20, 51])
def test_split_bound_at_2_pow_1023_minus_s(man_bits):
    """With an 11-bit exponent the split's limit is ``2**(1023 - s)``: the
    lanes just below it take the fast path, the lanes at and just above it
    decline (writing nothing) and still round exactly on the general
    path."""
    fmt = FPFormat(exp_bits=11, man_bits=man_bits)
    bound = 2.0 ** (1023 - (52 - man_bits))
    below = np.array([np.nextafter(bound, 0.0), -np.nextafter(bound, 0.0),
                      np.nextafter(np.nextafter(bound, 0.0), 0.0), bound / 2 * 1.75])
    got = quantize_rne_bits(below, fmt)
    assert got is not None
    assert np.array_equal(got.view(np.uint64), _oracle_bits(below, fmt))
    above = np.array([bound, -bound, np.nextafter(bound, np.inf), bound * 1.5,
                      bound * (1.0 + 2.0 ** -man_bits / 2), fmt.max_value])
    for value in above:
        out = np.full(2, 7.0)
        assert quantize_rne_bits(np.array([1.0, value]), fmt, out=out) is None
        assert np.array_equal(out, [7.0, 7.0])
    want = _oracle_bits(above, fmt)
    assert np.array_equal(quantize(above, fmt).view(np.uint64), want)
    in_place = np.concatenate([above, below])
    quantize_into(in_place, fmt, ws=Workspace(), out=in_place)
    assert np.array_equal(in_place.view(np.uint64),
                          _oracle_bits(np.concatenate([above, below]), fmt))
