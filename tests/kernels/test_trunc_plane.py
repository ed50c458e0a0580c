"""Bit-identity tests for the fused truncating plane: the fused kernels run
with a :class:`~repro.kernels.trunc.Round` rounder.

The load-bearing contracts:

* :func:`quantize_into` is **bitwise identical** to
  :func:`repro.core.quantize.quantize` — workspace or not, in place or
  not — including signed zeros, non-finite lanes, subnormals and the
  directed-rounding overflow clamps;
* every fused kernel run with a ``Round`` (stencils, EOS helpers, wave
  speeds, Riemann solvers) reproduces the optimized instrumented
  :class:`TruncatedContext` stream bit for bit on representable inputs,
  because it quantises at exactly the same op boundaries;
* plane selection routes *non-counting* truncating contexts onto
  :class:`TruncFastPlaneContext` under ``"auto"`` and never substitutes
  it for a counting, naive, error-tracking or shadow context;
* the scratch workspace and the batched per-level stepping never change a
  bit, and whole truncated workloads (states *and* counter snapshots) are
  identical across planes, backends and the engine entry points.
"""
import warnings

import grid_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BF16,
    FPFormat,
    FullPrecisionContext,
    GlobalPolicy,
    RaptorRuntime,
    RoundingMode,
    ShadowContext,
    TruncatedContext,
    TruncationConfig,
    quantize,
)
from repro.hydro.eos import GammaLawEOS
from repro.hydro.reconstruction import SCHEMES, _weno5_edge, reconstruct
from repro.hydro.riemann import SOLVERS, _einfeldt_wave_speeds, _wave_speeds
from repro.hydro.solver import PRIMITIVE_VARS, HydroSolver
from repro.kernels import (
    FastPlaneContext,
    TruncFastPlaneContext,
    flux,
    fused,
    select_context,
)
from repro.kernels.scratch import Workspace
from repro.kernels import trunc
from repro.kernels.trunc import Round, quantize_into

GAMMA = 1.4
COMPONENTS = ("dens", "momn", "momt", "ener")

#: the paper's sweep format plus the standard half-width pair and an FP8
FORMATS = [
    FPFormat(exp_bits=8, man_bits=10),
    FPFormat(exp_bits=8, man_bits=7),
    FPFormat(exp_bits=5, man_bits=10),
    FPFormat(exp_bits=5, man_bits=2),
]
FORMAT_IDS = [f"e{f.exp_bits}m{f.man_bits}" for f in FORMATS]
ROUNDINGS = list(RoundingMode.ALL)

E8M10 = FORMATS[0]


def _instrumented(fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN, **kw):
    """The optimized op-by-op truncating context the fused twins must match."""
    return TruncatedContext(fmt, runtime=RaptorRuntime(), rounding=rounding, **kw)


def _silent(fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN):
    """A non-counting truncating context (trunc-fast-plane eligible)."""
    return TruncatedContext(
        fmt, runtime=RaptorRuntime(), rounding=rounding,
        count_ops=False, track_memory=False,
    )


def _fast(fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN):
    return TruncFastPlaneContext(fmt, rounding=rounding)


# ---------------------------------------------------------------------------
# quantize_into
# ---------------------------------------------------------------------------
all_doubles = st.lists(
    st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=1, max_size=24
).map(lambda xs: np.asarray(xs, dtype=np.float64))


class TestQuantizeInto:
    @given(
        arr=all_doubles,
        fmt=st.sampled_from(FORMATS),
        rounding=st.sampled_from(ROUNDINGS),
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_quantize(self, arr, fmt, rounding):
        expected = quantize(arr, fmt, rounding)
        for ws in (None, Workspace()):
            got = quantize_into(arr.copy(), fmt, rounding, ws)
            np.testing.assert_array_equal(got, expected)
            # the bit patterns must agree too (signed zeros, NaN lanes)
            np.testing.assert_array_equal(
                got.view(np.uint64), np.asarray(expected).view(np.uint64)
            )

    @given(
        arr=all_doubles,
        fmt=st.sampled_from(FORMATS),
        rounding=st.sampled_from(ROUNDINGS),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_place_and_out_variants(self, arr, fmt, rounding):
        expected = np.asarray(quantize(arr, fmt, rounding))
        ws = Workspace()
        inplace = arr.copy()
        assert quantize_into(inplace, fmt, rounding, ws, out=inplace) is inplace
        np.testing.assert_array_equal(inplace.view(np.uint64), expected.view(np.uint64))
        dest = np.full_like(arr, 3.25)
        assert quantize_into(arr.copy(), fmt, rounding, ws, out=dest) is dest
        np.testing.assert_array_equal(dest.view(np.uint64), expected.view(np.uint64))

    @given(arr=all_doubles, fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, arr, fmt, rounding):
        ws = Workspace()
        once = quantize_into(arr.copy(), fmt, rounding, ws)
        twice = quantize_into(once.copy(), fmt, rounding, ws)
        np.testing.assert_array_equal(
            twice.view(np.uint64), once.view(np.uint64)
        )

    def test_special_lanes_restored(self):
        arr = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0 / 3.0])
        for rounding in ROUNDINGS:
            got = quantize_into(arr.copy(), BF16, rounding, Workspace())
            assert got[0] == np.inf and got[1] == -np.inf and np.isnan(got[2])
            assert got[3] == 0.0 and not np.signbit(got[3])
            assert got[4] == 0.0 and np.signbit(got[4])
            assert got[5] == float(quantize(1.0 / 3.0, BF16, rounding))

    def test_fp64_nearest_fast_path_copies(self):
        from repro.core import FP64

        arr = np.array([np.pi, -0.0, np.nan])
        got = quantize_into(arr, FP64, RoundingMode.NEAREST_EVEN, Workspace())
        assert got is not arr
        np.testing.assert_array_equal(got.view(np.uint64), arr.view(np.uint64))

    def test_unknown_rounding_rejected(self):
        with pytest.raises(ValueError, match="rounding"):
            quantize_into(np.ones(3), BF16, "stochastic")

    def test_workspace_reaches_steady_state(self):
        ws = Workspace()
        arr = np.linspace(-2.0, 2.0, 64)
        quantize_into(arr.copy(), BF16, RoundingMode.UP, ws)
        misses = ws.misses
        assert misses > 0
        quantize_into(arr.copy(), BF16, RoundingMode.UP, ws)
        assert ws.misses == misses and ws.hits > 0


class TestRoundConst:
    """``Round.const`` is the twin of ``TruncatedContext.const``: the cache
    keys literals by bit pattern, so ``-0.0`` never aliases ``0.0`` and a
    NaN literal is one entry."""

    LITERALS = (0.0, -0.0, float("nan"), -float("nan"), 1.0 / 6.0, 13.0 / 12.0,
                -2.5, 1e-6, 1e300, -1e-300)

    @pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
    @pytest.mark.parametrize("rounding", [RoundingMode.NEAREST_EVEN, RoundingMode.DOWN])
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_bitwise_equal_to_truncated_context(self, monkeypatch, fmt, rounding, order):
        monkeypatch.setattr(trunc, "_CONST_CACHE", {})
        literals = self.LITERALS if order == "forward" else self.LITERALS[::-1]
        q = Round(fmt, rounding)
        ctx = TruncatedContext(fmt, runtime=RaptorRuntime(), optimized=True, rounding=rounding)
        for _ in range(2):  # the second pass reads the cache
            for x in literals:
                got = np.float64(q.const(x)).view(np.uint64)
                want = np.asarray(ctx.const(x)).view(np.uint64)
                assert got == want, (x, q.const(x), ctx.const(x))

    def test_nan_literal_is_cached_once(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(trunc, "_CONST_CACHE", cache)
        q = Round(E8M10)
        for _ in range(5):
            assert np.isnan(q.const(float("nan")))
        q.const(0.0)
        q.const(-0.0)
        assert len(cache) == 3


# ---------------------------------------------------------------------------
# the context and plane selection
# ---------------------------------------------------------------------------
class TestTruncFastPlaneContext:
    def test_flags_and_describe(self):
        ctx = _fast(rounding=RoundingMode.UP)
        q = ctx.rounder()
        assert isinstance(q, Round) and q.fmt is E8M10 and q.rounding == RoundingMode.UP
        assert ctx.truncating and ctx.optimized
        assert not (ctx.count_ops or ctx.track_memory or ctx.track_errors)
        assert "e8m10" in ctx.describe()

    def test_from_context_clones_format_and_rounding(self):
        rt = RaptorRuntime()
        src = TruncatedContext(BF16, runtime=rt, module="hydro",
                               rounding=RoundingMode.DOWN,
                               count_ops=False, track_memory=False)
        ctx = TruncFastPlaneContext.from_context(src)
        assert ctx.fmt is src.fmt and ctx.rounding == RoundingMode.DOWN
        assert ctx.module == "hydro" and ctx.runtime is rt

    def test_records_nothing(self):
        rt = RaptorRuntime()
        ctx = TruncFastPlaneContext(E8M10, runtime=rt)
        ctx.add(np.ones(8), np.ones(8))
        ctx.sum(np.ones(8))
        assert rt.ops.total == 0 and rt.mem.total == 0

    @given(
        a=st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                   min_size=1, max_size=12).map(np.asarray),
        fmt=st.sampled_from(FORMATS),
        rounding=st.sampled_from(ROUNDINGS),
    )
    @settings(max_examples=60, deadline=None)
    def test_ops_match_instrumented(self, a, fmt, rounding):
        a = np.asarray(quantize(a, fmt, rounding))
        b = np.abs(a) + 1.0
        b = np.asarray(quantize(b, fmt, rounding))
        slow = _instrumented(fmt, rounding)
        fast = TruncFastPlaneContext(fmt, rounding=rounding)
        for op, args in (
            ("add", (a, b)), ("sub", (a, b)), ("mul", (a, b)), ("div", (a, b)),
            ("maximum", (a, b)), ("minimum", (a, b)),
            ("sqrt", (b,)), ("square", (a,)), ("abs", (a,)), ("neg", (a,)),
            ("sum", (a,)), ("max", (a,)), ("min", (a,)),
        ):
            np.testing.assert_array_equal(
                getattr(fast, op)(*args), getattr(slow, op)(*args), err_msg=op
            )


class TestTruncPlaneSelection:
    def test_only_silent_optimized_contexts_ride_the_trunc_plane(self):
        ctx = select_context(_silent(), "auto")
        assert type(ctx) is TruncFastPlaneContext and not ctx.ledger
        assert isinstance(ctx.rounder(), Round)
        counted = select_context(_instrumented(), "auto")  # counting
        assert not isinstance(counted, TruncFastPlaneContext)
        assert counted.ledger and counted.rounder() is None
        for src in (
            TruncatedContext(BF16, runtime=RaptorRuntime(), optimized=False,
                             count_ops=False, track_memory=False),
            TruncatedContext(BF16, runtime=RaptorRuntime(), track_errors=True,
                             count_ops=False, track_memory=False),
        ):
            assert select_context(src, "auto") is src
        silent_b64 = select_context(
            FullPrecisionContext(runtime=RaptorRuntime(), count_ops=False,
                                 track_memory=False), "auto")
        assert type(silent_b64) is FastPlaneContext

    @pytest.mark.parametrize("plane", ["auto"])
    def test_silent_truncating_context_rides_the_trunc_plane(self, plane):
        src = _silent(fmt=BF16, rounding=RoundingMode.TOWARD_ZERO)
        ctx = select_context(src, plane)
        assert isinstance(ctx, TruncFastPlaneContext)
        assert ctx.fmt is src.fmt and ctx.rounding == src.rounding
        assert ctx.runtime is src.runtime

    def test_instrumented_plane_never_substitutes(self):
        src = _silent()
        assert select_context(src, "instrumented") is src

    def test_counting_truncating_context_keeps_counting_without_warning(self):
        import warnings

        from repro.kernels import LedgerTruncatedContext

        counting = _instrumented()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_context(counting, "instrumented") is counting
            ctx = select_context(counting, "auto")
            # the counted fused plane: same counters, fused kernels
            assert isinstance(ctx, LedgerTruncatedContext) and ctx.ledger
            assert ctx.rounder() is None
            q = ctx.fused_twin().rounder()
            assert isinstance(q, Round) and q.fmt is counting.fmt
            assert q.rounding == counting.rounding
            assert (ctx.count_ops, ctx.track_memory) == (True, True)
            assert ctx.fmt is counting.fmt and ctx.rounding == counting.rounding
            assert ctx.runtime is counting.runtime

    def test_naive_and_shadow_contexts_stay_put(self):
        naive = TruncatedContext(BF16, runtime=RaptorRuntime(), optimized=False,
                                 count_ops=False, track_memory=False)
        shadow = ShadowContext.from_config(
            TruncationConfig(targets={64: BF16}), runtime=RaptorRuntime()
        )
        assert select_context(naive, "auto") is naive
        assert select_context(shadow, "auto") is shadow

    def test_selection_is_idempotent_on_the_plane(self):
        ctx = _fast()
        for plane in ("auto", "instrumented"):
            assert select_context(ctx, plane) is ctx

    def test_no_warning_on_auto_or_silent_binary64(self):
        import warnings

        counting = FullPrecisionContext(runtime=RaptorRuntime())
        silent = FullPrecisionContext(runtime=RaptorRuntime(),
                                      count_ops=False, track_memory=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not isinstance(select_context(counting, "auto"), FastPlaneContext)
            assert isinstance(select_context(silent, "auto"), FastPlaneContext)
            assert isinstance(select_context(_silent(), "auto"), TruncFastPlaneContext)


# ---------------------------------------------------------------------------
# per-kernel twins (hypothesis)
# ---------------------------------------------------------------------------
@st.composite
def trunc_face_states(draw):
    """Left/right primitive face states quantized into the drawn format —
    the representability contract of the fused truncating kernels."""
    fmt = draw(st.sampled_from(FORMATS))
    rounding = draw(st.sampled_from(ROUNDINGS))
    n = draw(st.integers(min_value=1, max_value=10))
    arr = lambda lo, hi: np.asarray(quantize(np.asarray(
        draw(st.lists(st.floats(min_value=lo, max_value=hi, allow_nan=False),
                      min_size=n, max_size=n)), dtype=np.float64), fmt, rounding))
    mk = lambda: {
        "dens": arr(1e-2, 1e2),
        "velx": arr(-5.0, 5.0),
        "vely": arr(-5.0, 5.0),
        "pres": arr(1e-2, 1e2),
    }
    return mk(), mk(), fmt, rounding


# the generated face states include zero and extreme values on purpose;
# both planes divide by zero / produce NaN on them identically
@pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestTruncKernelTwins:
    @pytest.mark.parametrize("scheme", sorted(fused.FUSED_SCHEMES))
    @given(
        u=st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                   min_size=14, max_size=18).map(np.asarray),
        fmt=st.sampled_from(FORMATS),
        rounding=st.sampled_from(ROUNDINGS),
    )
    @settings(max_examples=25, deadline=None)
    def test_stencils_bitwise(self, scheme, u, fmt, rounding):
        field = np.asarray(quantize(
            np.stack([np.roll(u, k) + 0.1 * k for k in range(14)]), fmt, rounding
        ))
        ng, slow = 3, _instrumented(fmt, rounding)
        for axis in (0, 1):
            nn = field.shape[axis] - 2 * ng - 1
            left_s, right_s = SCHEMES[scheme](field, axis, ng, nn, slow)
            for ws in (None, Workspace()):
                left_f, right_f = fused.FUSED_SCHEMES[scheme](
                    field, axis, ng, nn, ws=ws, key=("t",), q=Round(fmt, rounding, ws)
                )
                np.testing.assert_array_equal(left_f, left_s)
                np.testing.assert_array_equal(right_f, right_s)

    @pytest.mark.parametrize("scheme", sorted(fused.FUSED_SCHEMES))
    @pytest.mark.parametrize("rounding", ROUNDINGS)
    def test_fused_stencils_with_the_trunc_rounder_match_reconstruct(self, scheme, rounding):
        rng = np.random.default_rng(42)
        field = np.asarray(quantize(rng.normal(size=(20, 20)) + 2.0, E8M10, rounding))
        slow = _instrumented(rounding=rounding)
        q = _fast(rounding=rounding).rounder()
        for axis in (0, 1):
            left_s, right_s = reconstruct(field, axis, 3, 8, slow, scheme)
            left_f, right_f = fused.FUSED_SCHEMES[scheme](field, axis, 3, 8, q=q)
            np.testing.assert_array_equal(left_f, left_s)
            np.testing.assert_array_equal(right_f, right_s)

    @given(state=trunc_face_states())
    @settings(max_examples=30, deadline=None)
    def test_weno5_edge_bitwise(self, state):
        left, _, fmt, rounding = state
        rows = [left["dens"], left["velx"], left["vely"], left["pres"],
                np.asarray(quantize(left["dens"] + left["pres"], fmt, rounding))]
        slow = _instrumented(fmt, rounding)
        expected = _weno5_edge(*rows, slow)
        for ws in (None, Workspace()):
            got = fused.weno5_edge(*rows, ws=ws, key=("e",), q=Round(fmt, rounding, ws))
            np.testing.assert_array_equal(got, expected)

    @given(state=trunc_face_states())
    @settings(max_examples=30, deadline=None)
    def test_eos_helpers_bitwise(self, state):
        left, _, fmt, rounding = state
        dens, velx, vely, pres = (left[k] for k in ("dens", "velx", "vely", "pres"))
        eos = GammaLawEOS(gamma=GAMMA)
        slow = _instrumented(fmt, rounding)
        kw = dict(q=Round(fmt, rounding))
        np.testing.assert_array_equal(
            flux.eos_sound_speed(dens, pres, GAMMA, **kw),
            eos.sound_speed(dens, pres, slow),
        )
        np.testing.assert_array_equal(
            flux.eos_internal_energy(dens, pres, GAMMA, **kw),
            eos.internal_energy_from_pressure(dens, pres, slow),
        )
        ener_slow = eos.total_energy(dens, velx, vely, pres, slow)
        np.testing.assert_array_equal(
            flux.eos_total_energy(dens, velx, vely, pres, GAMMA, **kw), ener_slow
        )
        momx = np.asarray(quantize(dens * velx, fmt, rounding))
        momy = np.asarray(quantize(dens * vely, fmt, rounding))
        np.testing.assert_array_equal(
            flux.eos_pressure_from_total_energy(
                dens, momx, momy, ener_slow, GAMMA,
                eos.pressure_floor, eos.density_floor, **kw),
            eos.pressure_from_total_energy(dens, momx, momy, ener_slow, slow),
        )

    def test_gamma_law_eos_kernels_with_the_trunc_rounder(self):
        rng = np.random.default_rng(7)
        q = lambda a: np.asarray(quantize(a, E8M10, RoundingMode.NEAREST_EVEN))
        dens, pres = q(rng.uniform(0.1, 2.0, 32)), q(rng.uniform(0.1, 2.0, 32))
        velx, vely = q(rng.normal(size=32)), q(rng.normal(size=32))
        momx, momy = q(dens * velx), q(dens * vely)
        eos = GammaLawEOS()
        slow, kw = _instrumented(), dict(q=_fast().rounder())
        g, pf, df = eos.gamma, eos.pressure_floor, eos.density_floor
        pairs = [
            (eos.sound_speed(dens, pres, slow), flux.eos_sound_speed(dens, pres, g, **kw)),
            (eos.internal_energy_from_pressure(dens, pres, slow),
             flux.eos_internal_energy(dens, pres, g, **kw)),
            (eos.total_energy(dens, velx, vely, pres, slow),
             flux.eos_total_energy(dens, velx, vely, pres, g, **kw)),
            (eos.pressure_from_total_energy(dens, momx, momy, pres, slow),
             flux.eos_pressure_from_total_energy(dens, momx, momy, pres, g, pf, df, **kw)),
        ]
        for expected, got in pairs:
            np.testing.assert_array_equal(got, expected)

    @given(state=trunc_face_states())
    @settings(max_examples=25, deadline=None)
    def test_wave_speeds_bitwise(self, state):
        left, right, fmt, rounding = state
        eos = GammaLawEOS(gamma=GAMMA)
        slow = _instrumented(fmt, rounding)
        sl_s, sr_s = _wave_speeds(left, right, eos, slow)
        sl_f, sr_f = flux.davis_wave_speeds(left, right, GAMMA, q=Round(fmt, rounding))
        np.testing.assert_array_equal(sl_f, sl_s)
        np.testing.assert_array_equal(sr_f, sr_s)
        el_s, er_s = _einfeldt_wave_speeds(left, right, eos, slow)
        el_f, er_f = flux.einfeldt_wave_speeds(left, right, GAMMA, q=Round(fmt, rounding))
        np.testing.assert_array_equal(el_f, el_s)
        np.testing.assert_array_equal(er_f, er_s)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    @given(state=trunc_face_states())
    @settings(max_examples=20, deadline=None)
    def test_riemann_solvers_bitwise(self, name, state):
        left, right, fmt, rounding = state
        eos = GammaLawEOS(gamma=GAMMA)
        expected = SOLVERS[name](left, right, eos, _instrumented(fmt, rounding))
        for ws in (None, Workspace()):
            got = flux.FUSED_SOLVERS[name](
                left, right, GAMMA, ws=ws, q=Round(fmt, rounding, ws)
            )
            for comp in COMPONENTS:
                np.testing.assert_array_equal(got[comp], expected[comp],
                                              err_msg=f"{name}:{comp}")

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_fused_solvers_with_the_trunc_rounder(self, name):
        rng = np.random.default_rng(11)
        q = lambda a: np.asarray(quantize(a, E8M10, RoundingMode.NEAREST_EVEN))
        mk = lambda: {
            "dens": q(rng.uniform(0.1, 2.0, 48)),
            "velx": q(rng.normal(0, 2, 48)),
            "vely": q(rng.normal(0, 2, 48)),
            "pres": q(rng.uniform(0.1, 2.0, 48)),
        }
        left, right = mk(), mk()
        eos = GammaLawEOS()
        slow_flux = SOLVERS[name](left, right, eos, _instrumented())
        fast_flux = flux.FUSED_SOLVERS[name](left, right, eos.gamma, q=_fast().rounder())
        for comp in COMPONENTS:
            np.testing.assert_array_equal(fast_flux[comp], slow_flux[comp], err_msg=comp)


# ---------------------------------------------------------------------------
# scratch lifecycle on the truncating plane
# ---------------------------------------------------------------------------
def _q_states(seed=9, n=16, fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN):
    rng = np.random.default_rng(seed)
    q = lambda a: np.asarray(quantize(a, fmt, rounding))
    mk = lambda: {
        "dens": q(rng.uniform(0.1, 2.0, n)),
        "velx": q(rng.normal(0, 1, n)),
        "vely": q(rng.normal(0, 1, n)),
        "pres": q(rng.uniform(0.1, 2.0, n)),
    }
    return mk(), mk()


class TestTruncScratchLifecycle:
    def test_workspace_reuse_allocates_nothing_after_first_call(self):
        left, right = _q_states(seed=5, n=32)
        ws = Workspace()
        kw = dict(q=Round(E8M10, RoundingMode.NEAREST_EVEN, ws))
        first = flux.hllc_flux(left, right, GAMMA, ws=ws, **kw)
        first = {c: first[c].copy() for c in first}
        misses = ws.misses
        assert misses > 0
        again = flux.hllc_flux(left, right, GAMMA, ws=ws, **kw)
        assert ws.misses == misses  # steady state: zero allocations
        assert ws.hits > 0
        for comp in COMPONENTS:
            np.testing.assert_array_equal(again[comp], first[comp])

    def test_poisoned_workspace_does_not_leak_into_results(self):
        left, right = _q_states(seed=9)
        ws = Workspace()
        kw = dict(q=Round(E8M10, RoundingMode.UP, ws))
        clean = flux.hll_flux(left, right, GAMMA, ws=ws, **kw)
        clean = {c: clean[c].copy() for c in clean}
        for buf in ws._buffers.values():
            buf.fill(np.nan if buf.dtype == np.float64 else True)
        poisoned = flux.hll_flux(left, right, GAMMA, ws=ws, **kw)
        for comp in COMPONENTS:
            np.testing.assert_array_equal(poisoned[comp], clean[comp])

    def test_inputs_never_written(self):
        left, right = _q_states(seed=13, n=24)
        snap = {("L", k): v.copy() for k, v in left.items()}
        snap.update({("R", k): v.copy() for k, v in right.items()})
        for name in flux.FUSED_SOLVERS:
            ws = Workspace()
            flux.FUSED_SOLVERS[name](left, right, GAMMA, ws=ws,
                                     q=Round(E8M10, RoundingMode.DOWN, ws))
        for k, v in left.items():
            np.testing.assert_array_equal(v, snap[("L", k)])
        for k, v in right.items():
            np.testing.assert_array_equal(v, snap[("R", k)])

    def test_weno5_edge_out_may_alias_an_input(self):
        rng = np.random.default_rng(21)
        rows = [np.asarray(quantize(rng.normal(size=32) + 2.0, E8M10)) for _ in range(5)]
        expected = fused.weno5_edge(*rows, q=Round(E8M10))
        aliased = rows[2].copy()
        ws = Workspace()
        got = fused.weno5_edge(rows[0], rows[1], aliased, rows[3], rows[4],
                               ws=ws, key=("alias",), out=aliased, q=Round(E8M10, ws=ws))
        assert got is aliased
        np.testing.assert_array_equal(got, expected)


def test_e5m2_weno5_edge_flush_warns_nothing():
    """In e5m2 ``eps`` and the smoothness indicators of a flat stencil round
    to zero, so the rounded ``(eps + beta)^2`` flushes to zero and the WENO
    weights turn inf/NaN: the format's real behaviour, which the
    instrumented plane computes as well — not a warning."""
    e5m2 = FORMATS[3]
    rows = [np.full(8, 1.5)] * 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fused.weno5_edge(*rows, q=Round(e5m2))
    with np.errstate(all="ignore"):
        want = _weno5_edge(*rows, _instrumented(e5m2))
    assert not np.isfinite(got).any()
    np.testing.assert_array_equal(got, want)


def test_e5m2_instrumented_weno5_edge_warns_nothing():
    """The instrumented edge evaluates its weights under the same
    ``np.errstate`` as the fused one: on small mixed-sign e5m2 stencils the
    flushed ``(eps + beta)^2`` gives infinite weights, ``inf * 0`` and
    ``inf - inf`` numerators and ``inf / inf`` edges — silently, and
    bitwise the fused kernel's values."""
    e5m2 = FORMATS[3]
    rng = np.random.default_rng(3)
    values = np.array([0.0, 2.0 ** -10, -2.0 ** -10, 2.0 ** -9, -2.0 ** -9])
    rows = [values[rng.integers(0, len(values), 64)] for _ in range(5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _weno5_edge(*rows, _instrumented(e5m2))
        want = fused.weno5_edge(*rows, q=Round(e5m2))
    assert np.isnan(got).any()
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _sod_workload(**overrides):
    from repro.workloads import create_workload

    cfg = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
               t_end=0.01, rk_stages=1)
    cfg.update(overrides)
    return create_workload("sod", **cfg)


class TestTruncAdvance:
    """The fused truncating block update against the op-by-op path."""

    @pytest.fixture(scope="class")
    def grid(self):
        return _sod_workload(reconstruction="weno5").build_grid()

    @pytest.mark.parametrize("scheme", ["pcm", "plm", "weno5"])
    @pytest.mark.parametrize("riemann", ["hll", "hllc", "hlle"])
    def test_advance_block_bitwise(self, grid, scheme, riemann):
        solver = HydroSolver(reconstruction=scheme, riemann=riemann, rk_stages=1)
        block = grid.blocks()[0]
        slow = solver.advance_block(block, 1e-4, _instrumented())
        fast = grid_oracle.advance_alone(solver, grid, block, 1e-4, _fast())
        for name in slow:
            np.testing.assert_array_equal(fast[name], slow[name], err_msg=name)

    @pytest.mark.parametrize("rounding", ROUNDINGS)
    def test_advance_block_all_roundings(self, grid, rounding):
        solver = HydroSolver(rk_stages=1)
        block = grid.blocks()[0]
        slow = solver.advance_block(block, 1e-4, _instrumented(BF16, rounding))
        fast = grid_oracle.advance_alone(solver, grid, block, 1e-4, _fast(BF16, rounding))
        for name in slow:
            np.testing.assert_array_equal(fast[name], slow[name], err_msg=name)

    def test_advance_block_with_gravity_bitwise(self, grid):
        solver = HydroSolver(rk_stages=1, gravity=(0.3, -1.0))
        block = grid.blocks()[0]
        slow = solver.advance_block(block, 1e-4, _instrumented())
        fast = grid_oracle.advance_alone(solver, grid, block, 1e-4, _fast())
        for name in slow:
            np.testing.assert_array_equal(fast[name], slow[name], err_msg=name)

    @pytest.mark.parametrize("n_root", [2, 3])
    def test_substep_batched_vs_unbatched_vs_instrumented(self, n_root):
        """Batched truncating stacks == per-block == instrumented; the 3x3
        root grid has per-block ``dx`` differing in the last bit within a
        level, quantised per slot like ``ctx.const(dt / block.dx)``."""
        results = {}
        for label, batch, ctx in (
            ("instrumented", False, _instrumented()),
            ("trunc-perblock", False, _fast()),
            ("trunc-batched", True, _fast()),
        ):
            workload = _sod_workload(max_level=3, n_root_x=n_root, n_root_y=n_root)
            grid = workload.build_grid()
            solver = HydroSolver(rk_stages=1)
            provider = lambda module, level=None, max_level=None: ctx
            if batch:
                solver._substep(grid, 5e-4, provider)
            else:
                grid_oracle.substep_per_block(solver, grid, 5e-4, provider)
            results[label] = {
                key: {v: grid.leaves[key].interior_view(v).copy()
                      for v in ("dens", "velx", "vely", "pres")}
                for key in grid.sorted_keys()
            }
        base = results["instrumented"]
        for label, states in results.items():
            assert set(states) == set(base), label
            for key in base:
                for var in base[key]:
                    np.testing.assert_array_equal(
                        states[key][var], base[key][var], err_msg=f"{label}: {key} {var}"
                    )

    def test_mixed_format_levels_batch_by_signature(self):
        """Per-level formats must never share a batch group: the group
        signature carries (format, rounding), so a provider handing
        different formats to different levels stays bitwise equal to the
        per-block loop."""

        def provider_for(runtime_free=True):
            ctxs = {
                True: _fast(E8M10, RoundingMode.NEAREST_EVEN),
                False: _fast(BF16, RoundingMode.UP),
            }
            return lambda module, level=None, max_level=None: ctxs[(level or 1) <= 2]

        states = {}
        for label, batch in (("batched", True), ("perblock", False)):
            workload = _sod_workload(max_level=3)
            grid = workload.build_grid()
            solver = HydroSolver(rk_stages=1)
            if batch:
                solver._substep(grid, 5e-4, provider_for())
            else:
                grid_oracle.substep_per_block(solver, grid, 5e-4, provider_for())
            states[label] = {
                key: grid.leaves[key].interior_view("dens").copy()
                for key in grid.sorted_keys()
            }
        assert set(states["batched"]) == set(states["perblock"])
        for key in states["perblock"]:
            np.testing.assert_array_equal(
                states["batched"][key], states["perblock"][key], err_msg=str(key)
            )

    @pytest.mark.parametrize("n_root", [2, 3])
    def test_gathered_stack_bitwise_without_workspace(self, n_root):
        """The stacked truncating update of every leaf gathered from the
        store gives the same bits allocating every temporary (``ws=None``)
        as through a workspace."""
        grid = _sod_workload(max_level=3, n_root_x=n_root, n_root_y=n_root).build_grid()
        solver = HydroSolver(rk_stages=1)
        plan = grid.topology_plan()
        first = grid.leaves[plan.keys[0]]
        prims = grid.stack(PRIMITIVE_VARS, plan.slots)

        def advance(ws):
            return flux.advance(
                prims, 5e-4, plan.dx.reshape(-1, 1, 1), plan.dy.reshape(-1, 1, 1),
                first.ng, first.nxb, first.nyb, scheme=solver.reconstruction,
                solver=solver.riemann, gamma=solver.eos.gamma,
                dens_floor=solver.eos.density_floor, pres_floor=solver.eos.pressure_floor,
                ws=ws, q=Round(E8M10, RoundingMode.NEAREST_EVEN, ws),
            )

        allocating, scratch = advance(None), advance(Workspace())
        for name in PRIMITIVE_VARS:
            np.testing.assert_array_equal(scratch[name], allocating[name], err_msg=name)

    def test_workspace_steady_state_no_allocations(self):
        workload = _sod_workload()
        grid = workload.build_grid()
        solver = workload.build_solver()
        ctx = _fast()
        provider = lambda module, level=None, max_level=None: ctx
        solver._substep(grid, 1e-4, provider)
        misses = solver._workspace.misses
        assert misses > 0
        solver._substep(grid, 1e-4, provider)
        assert solver._workspace.misses == misses
        assert solver._workspace.hits > 0


# ---------------------------------------------------------------------------
# whole workloads across planes and engine entry points
# ---------------------------------------------------------------------------
class TestTruncWorkloadEquivalence:
    @pytest.mark.parametrize("count_ops", [True, False])
    @pytest.mark.parametrize("rounding",
                             [RoundingMode.NEAREST_EVEN, RoundingMode.UP])
    def test_sod_states_and_counters_identical_across_planes(self, count_ops, rounding):
        def run(plane):
            workload = _sod_workload(t_end=0.008)
            rt = RaptorRuntime()
            policy = GlobalPolicy(
                TruncationConfig(targets={64: E8M10}, rounding=rounding,
                                 count_ops=count_ops, track_memory=count_ops),
                runtime=rt, plane=plane,
            )
            return workload.run(policy=policy, runtime=rt)

        instrumented = run("instrumented")
        auto = run("auto")
        assert set(auto.state) == set(instrumented.state)
        for key in instrumented.state:
            np.testing.assert_array_equal(auto.state[key], instrumented.state[key],
                                          err_msg=key)
        # byte-identical counters: counting policies replay ledgers on the
        # counted plane under auto; non-counting ones record nothing
        assert auto.snapshot() == instrumented.snapshot()

    def test_run_sweep_identical_with_and_without_point_counters(self):
        from repro.experiments import PolicySpec, SweepSpec, run_sweep

        def spec(count, plane="auto", backend="serial"):
            return SweepSpec(
                workloads=["sod"],
                formats=["e8m10", "bf16"],
                policies=[PolicySpec.everywhere(modules=("hydro",))],
                workload_configs={"sod": dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2,
                                              max_level=2, t_end=0.005, rk_stages=1)},
                variables=("dens",),
                count_point_ops=count,
                plane=plane,
                backend=backend,
            )

        counting = run_sweep(spec(True))
        silent = run_sweep(spec(False))
        silent_instr = run_sweep(spec(False, plane="instrumented"))
        for a, b in zip(counting.points, silent.points):
            assert a.errors == b.errors  # bitwise: norms are exact floats
        for a, b in zip(silent.points, silent_instr.points):
            assert a.errors == b.errors
        assert all(p.ops["truncated"] > 0 for p in counting.points)
        assert all(p.ops["truncated"] == 0 for p in silent.points)

    def test_run_sweep_process_backend_matches_serial(self):
        from repro.experiments import PolicySpec, SweepSpec, run_sweep

        def spec(backend):
            return SweepSpec(
                workloads=["sod"],
                formats=["bf16"],
                policies=[PolicySpec.everywhere(modules=("hydro",))],
                workload_configs={"sod": dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2,
                                              max_level=2, t_end=0.005, rk_stages=1)},
                variables=("dens",),
                count_point_ops=False,
                backend=backend,
            )

        serial = run_sweep(spec("serial"))
        process = run_sweep(spec("process"))
        for a, b in zip(serial.points, process.points):
            assert a.errors == b.errors

    def test_find_cliff_identical_with_and_without_probe_counters(self):
        from repro.experiments import find_cliff

        kwargs = dict(
            config_kwargs=dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2,
                               max_level=2, t_end=0.005, rk_stages=1),
            min_man_bits=4, max_man_bits=12, exp_bits=8,
        )
        counting = find_cliff("sod", **kwargs, count_ops=True)
        silent = find_cliff("sod", **kwargs, count_ops=False)
        assert counting.cliff_man_bits == silent.cliff_man_bits
        assert [(e.man_bits, e.error) for e in counting.evaluations] == [
            (e.man_bits, e.error) for e in silent.evaluations
        ]
