"""Tests for op-mode numerics contexts."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FP16,
    FP32,
    FPFormat,
    FullPrecisionContext,
    RaptorRuntime,
    TruncatedContext,
    TruncationConfig,
    make_context,
    quantize,
)


@pytest.fixture()
def runtime():
    return RaptorRuntime("test")


class TestFullPrecisionContext:
    def test_add_is_exact(self, runtime):
        ctx = FullPrecisionContext(runtime=runtime)
        a = np.array([0.1, 0.2])
        b = np.array([0.3, 0.4])
        assert np.array_equal(ctx.add(a, b), a + b)

    def test_counts_full_ops(self, runtime):
        ctx = FullPrecisionContext(runtime=runtime)
        ctx.mul(np.ones(10), 2.0)
        assert runtime.ops.full == 10
        assert runtime.ops.truncated == 0

    def test_counts_memory(self, runtime):
        ctx = FullPrecisionContext(runtime=runtime)
        ctx.add(np.ones(4), np.ones(4))
        # 4 result + 4 + 4 operands = 12 doubles
        assert runtime.mem.full == 12 * 8

    def test_counting_can_be_disabled(self, runtime):
        ctx = FullPrecisionContext(runtime=runtime, count_ops=False, track_memory=False)
        ctx.add(np.ones(10), 1.0)
        assert runtime.ops.total == 0
        assert runtime.mem.total == 0

    def test_reduction_counts_n_minus_1(self, runtime):
        ctx = FullPrecisionContext(runtime=runtime)
        out = ctx.sum(np.ones(10))
        assert out == 10.0
        assert runtime.ops.full == 9

    def test_module_attribution(self, runtime):
        ctx = FullPrecisionContext(runtime=runtime, module="hydro")
        ctx.add(np.ones(3), 1.0)
        assert runtime.module_ops()["hydro"].full == 3


class TestTruncatedContext:
    def test_results_are_representable(self, runtime):
        ctx = TruncatedContext(FP16, runtime=runtime)
        out = ctx.add(np.array([0.1, 0.2, 0.3]), np.array([0.7, 0.11, 1e-9]))
        assert np.array_equal(out, quantize(out, FP16))

    def test_add_matches_manual_emulation(self, runtime):
        ctx = TruncatedContext(FP16, runtime=runtime)
        a, b = np.array([1.2345]), np.array([6.789e-3])
        expected = quantize(np.asarray(a) + np.asarray(b), FP16)
        assert np.array_equal(ctx.add(a, b), expected)

    def test_counts_truncated_ops(self, runtime):
        ctx = TruncatedContext(FP16, runtime=runtime, module="hydro")
        ctx.mul(np.ones(7), 3.0)
        assert runtime.ops.truncated == 7
        assert runtime.module_ops()["hydro"].truncated == 7

    def test_sqrt_and_unary(self, runtime):
        ctx = TruncatedContext(FP32, runtime=runtime)
        out = ctx.sqrt(np.array([2.0]))
        assert float(out[0]) == float(np.float32(np.sqrt(2.0)))

    def test_div_by_zero_gives_inf(self, runtime):
        ctx = TruncatedContext(FP16, runtime=runtime)
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            out = ctx.div(np.array([1.0]), np.array([0.0]))
        assert np.isinf(out).all()

    def test_naive_and_optimized_agree_on_representable_inputs(self, runtime):
        fmt = FPFormat(8, 6)
        a = quantize(np.linspace(-3, 3, 50), fmt)
        b = quantize(np.logspace(-3, 3, 50), fmt)
        naive = TruncatedContext(fmt, runtime=runtime, optimized=False)
        opt = TruncatedContext(fmt, runtime=runtime, optimized=True)
        assert np.array_equal(naive.mul(a, b), opt.mul(a, b))
        assert np.array_equal(naive.add(a, b), opt.add(a, b))

    def test_naive_quantizes_unrepresentable_inputs(self, runtime):
        fmt = FPFormat(8, 4)
        naive = TruncatedContext(fmt, runtime=runtime, optimized=False)
        # 1 + 2^-6 is not representable; the naive path rounds it before adding 0
        out = naive.add(np.array([1.0 + 2.0 ** -6]), np.array([0.0]))
        assert float(out[0]) == 1.0

    def test_track_errors_records_location_stats(self, runtime):
        ctx = TruncatedContext(FPFormat(8, 4), runtime=runtime, track_errors=True)
        ctx.add(np.full(5, 1.0), np.full(5, 2.0 ** -7), label="tiny-add")
        stats = runtime.location_stats()
        assert len(stats) == 1
        loc, st_ = stats[0]
        assert loc.label == "tiny-add"
        assert st_.count == 5
        assert st_.max_abs_err > 0

    def test_reduce_rounds_and_counts(self, runtime):
        ctx = TruncatedContext(FPFormat(8, 4), runtime=runtime)
        out = ctx.sum(np.full(16, 1.0 + 2.0 ** -6))
        assert runtime.ops.truncated == 15
        assert float(out) == float(quantize(np.sum(np.full(16, 1.0 + 2.0 ** -6)), FPFormat(8, 4)))

    def test_const_is_quantized(self, runtime):
        ctx = TruncatedContext(FP16, runtime=runtime)
        assert float(ctx.const(0.1)) == float(np.float16(0.1))

    def test_fma_and_axpy(self, runtime):
        ctx = TruncatedContext(FP32, runtime=runtime)
        out = ctx.fma(np.array([2.0]), np.array([3.0]), np.array([1.0]))
        assert float(out[0]) == 7.0
        out = ctx.axpy(2.0, np.array([1.0]), np.array([1.0]))
        assert float(out[0]) == 3.0

    def test_dot(self, runtime):
        ctx = TruncatedContext(FP32, runtime=runtime)
        assert float(ctx.dot(np.array([1.0, 2.0]), np.array([3.0, 4.0]))) == 11.0

    def test_structural_helpers_not_counted(self, runtime):
        ctx = TruncatedContext(FP16, runtime=runtime)
        before = runtime.ops.truncated
        ctx.where(np.array([True, False]), np.ones(2), np.zeros(2))
        ctx.stack([np.ones(2), np.zeros(2)])
        ctx.concatenate([np.ones(2), np.zeros(2)])
        ctx.zeros_like(np.ones(3))
        assert runtime.ops.truncated == before

    def test_minimum_maximum(self, runtime):
        ctx = TruncatedContext(FP16, runtime=runtime)
        assert float(ctx.maximum(np.array([1.0]), np.array([2.0]))[0]) == 2.0
        assert float(ctx.minimum(np.array([1.0]), np.array([2.0]))[0]) == 1.0


class TestMakeContext:
    def test_none_gives_full_precision(self):
        assert isinstance(make_context(None), FullPrecisionContext)

    def test_noop_config_gives_full_precision(self):
        cfg = TruncationConfig()  # default: 64 -> FP64
        assert isinstance(make_context(cfg), FullPrecisionContext)

    def test_disabled_config_gives_full_precision(self):
        cfg = TruncationConfig.mantissa(10, 5, enabled=False)
        assert isinstance(make_context(cfg), FullPrecisionContext)

    def test_truncating_config(self):
        cfg = TruncationConfig.mantissa(10, exp_bits=5)
        ctx = make_context(cfg)
        assert isinstance(ctx, TruncatedContext)
        assert ctx.fmt == FP16

    def test_from_spec(self):
        cfg = TruncationConfig.from_spec("64_to_5_14")
        ctx = make_context(cfg)
        assert ctx.fmt.man_bits == 14


# ---------------------------------------------------------------------------
# property tests: emulated arithmetic error bounds
# ---------------------------------------------------------------------------
@given(
    a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    b=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_truncated_add_relative_error_bounded(a, b):
    fmt = FPFormat(8, 10)
    ctx = TruncatedContext(fmt, runtime=RaptorRuntime())
    exact = a + b
    out = float(ctx.add(np.float64(a), np.float64(b)))
    if exact != 0 and np.isfinite(out) and abs(exact) > fmt.min_normal:
        assert abs(out - exact) / abs(exact) <= 2.0 ** (-fmt.man_bits)


@given(
    a=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_truncated_sqrt_monotone(a):
    fmt = FPFormat(5, 8)
    ctx = TruncatedContext(fmt, runtime=RaptorRuntime())
    lo = float(ctx.sqrt(np.float64(a)))
    hi = float(ctx.sqrt(np.float64(a * 4.0)))
    assert hi >= lo
