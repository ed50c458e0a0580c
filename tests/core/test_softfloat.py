"""Tests for the scalar EmulatedFloat (MPFR-variable analogue)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FP16, FP32, FPFormat, EmulatedFloat, emulated_math


class TestConstruction:
    def test_value_is_quantised_on_construction(self):
        e = EmulatedFloat(0.1, FP16)
        assert e.value == float(np.float16(0.1))

    def test_float_conversion(self):
        assert float(EmulatedFloat(1.5, FP16)) == 1.5

    def test_default_format_is_fp64(self):
        assert EmulatedFloat(0.1).value == 0.1


class TestArithmetic:
    def test_add_rounds_result(self):
        fmt = FPFormat(8, 4)
        a = EmulatedFloat(1.0, fmt)
        b = EmulatedFloat(2.0 ** -6, fmt)  # representable (subnormal exponent range is wide)
        c = a + b
        # 1 + 2^-6 rounds to 1.0 with 4 fraction bits (tie -> even)
        assert c.value == 1.0

    def test_operations_preserve_format(self):
        a = EmulatedFloat(1.5, FP16)
        assert (a * 2).fmt == FP16
        assert (2 * a).fmt == FP16
        assert (-a).fmt == FP16

    def test_mixed_operand_types(self):
        a = EmulatedFloat(2.0, FP32)
        assert (a + 1).value == 3.0
        assert (1 + a).value == 3.0
        assert (a - 0.5).value == 1.5
        assert (4.0 - a).value == 2.0
        assert (a * 3).value == 6.0
        assert (a / 2).value == 1.0
        assert (8.0 / a).value == 4.0

    def test_division_by_zero_gives_inf(self):
        a = EmulatedFloat(1.0, FP32)
        z = EmulatedFloat(0.0, FP32)
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            assert math.isinf(float(a / z))

    def test_pow_and_abs_and_neg(self):
        a = EmulatedFloat(-3.0, FP32)
        assert abs(a).value == 3.0
        assert (-a).value == 3.0
        assert (a ** 2).value == 9.0

    def test_fma_single_rounding_into_target(self):
        fmt = FPFormat(8, 4)
        a = EmulatedFloat(1.0, fmt)
        out = a.fma(1.0, 2.0 ** -6)
        assert out.value == 1.0  # rounded once into e8m4


class TestComparisons:
    def test_compare_with_floats(self):
        a = EmulatedFloat(1.5, FP16)
        assert a == 1.5
        assert a != 1.0
        assert a < 2.0
        assert a <= 1.5
        assert a > 1.0
        assert a >= 1.5

    def test_compare_emulated(self):
        assert EmulatedFloat(1.0, FP16) < EmulatedFloat(2.0, FP16)

    def test_hashable(self):
        assert hash(EmulatedFloat(1.5, FP16)) == hash(1.5)


class TestElementaryFunctions:
    def test_sqrt(self):
        assert EmulatedFloat(4.0, FP16).sqrt().value == 2.0

    def test_sqrt_negative_is_nan(self):
        assert math.isnan(EmulatedFloat(-1.0, FP16).sqrt().value)

    def test_log_of_zero(self):
        assert EmulatedFloat(0.0, FP32).log().value == -math.inf

    def test_exp_log_roundtrip_low_precision(self):
        a = EmulatedFloat(1.0, FP16)
        assert a.exp().log().value == pytest.approx(1.0, abs=2e-3)

    def test_trig(self):
        assert EmulatedFloat(0.0, FP16).sin().value == 0.0
        assert EmulatedFloat(0.0, FP16).cos().value == 1.0


class TestEmulatedMath:
    def test_namespace_functions_round(self):
        m = emulated_math(FP16)
        assert m.sqrt(2.0) == float(np.float16(np.sqrt(np.float16(2.0))))
        assert m.fabs(-1.25) == 1.25

    def test_namespace_exp(self):
        m = emulated_math(FPFormat(8, 8))
        assert m.exp(0.0) == 1.0


@given(
    a=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    b=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_add_commutative(a, b):
    fmt = FPFormat(8, 10)
    x = EmulatedFloat(a, fmt)
    y = EmulatedFloat(b, fmt)
    assert float(x + y) == float(y + x)


@given(a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_value_always_representable(a):
    fmt = FPFormat(5, 7)
    x = EmulatedFloat(a, fmt)
    from repro.core import is_representable

    assert bool(is_representable(x.value, fmt)) or not math.isfinite(x.value)


class TestComparisonCoercion:
    """Regression tests: comparisons must coerce raw scalars through the
    same _coerce path as arithmetic (numpy scalars included), and must not
    accept operands arithmetic would reject (e.g. numeric strings)."""

    def test_eq_against_numpy_float32(self):
        x = EmulatedFloat(1.5, FP16)
        assert x == np.float32(1.5)
        assert not (x == np.float32(1.25))
        # the result is a plain bool, not a numpy array/bool_ from the
        # reflected numpy comparison that NotImplemented used to trigger
        assert isinstance(x == np.float32(1.5), bool)

    def test_ordering_against_numpy_ints(self):
        x = EmulatedFloat(2.0, FP16)
        assert x > np.int64(1)
        assert x >= np.int32(2)
        assert x < np.int64(3)
        assert x <= np.uint8(2)
        assert isinstance(x < np.int64(3), bool)

    def test_ne_matches_arithmetic_coercion(self):
        x = EmulatedFloat(0.1, FPFormat(8, 10))
        # 0.1 is rounded into the format, so it differs from the exact
        # double 0.1 in the same way (x - 0.1) is nonzero
        assert (x != 0.1) == (float(x - 0.1) != 0.0)

    def test_string_operands_are_not_numbers(self):
        x = EmulatedFloat(1.5, FP16)
        assert not (x == "1.5")
        assert x != "1.5"
        with pytest.raises(TypeError):
            x < "1.5"  # noqa: B015 - the comparison itself is the assertion

    def test_arithmetic_rejects_strings_too(self):
        x = EmulatedFloat(1.5, FP16)
        with pytest.raises(TypeError):
            x + "1"

    def test_bool_is_a_real_number(self):
        x = EmulatedFloat(1.0, FP16)
        assert x == True  # noqa: E712 - exercising the coercion explicitly
        assert x > False


class TestOperandCoercionRound2:
    """Arithmetic must accept __float__-bearing operands (0-d numpy arrays,
    Decimal) and defer via NotImplemented on the rest, like the comparisons."""

    def test_zero_dim_ndarray_operand(self):
        x = EmulatedFloat(1.5, FP16)
        assert float(x + np.array(2.0)) == 3.5
        assert float(np.array(2.0) + x) == 3.5
        assert x < np.array(2.0)

    def test_decimal_operand(self):
        from decimal import Decimal

        x = EmulatedFloat(1.5, FP16)
        assert float(x + Decimal("0.5")) == 2.0
        assert x == Decimal("1.5")

    def test_unsupported_operand_raises_standard_type_error(self):
        x = EmulatedFloat(1.5, FP16)
        with pytest.raises(TypeError):
            x + object()
        with pytest.raises(TypeError):
            x * "2"

    def test_reflected_delegation(self):
        class Wrapper:
            def __radd__(self, other):
                return "delegated"

        assert EmulatedFloat(1.0, FP16) + Wrapper() == "delegated"
