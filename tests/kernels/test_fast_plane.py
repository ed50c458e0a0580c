"""Unit tests for the kernel-plane layer (repro.kernels).

The load-bearing contract: every :class:`FastPlaneContext` operation (and
every pre-fused stencil) is **bitwise identical** to the instrumented
:class:`FullPrecisionContext` on binary64 data, and plane selection never
substitutes a context whose semantics (truncation, shadow tracking) or
observable counters would change.
"""
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BF16,
    FullPrecisionContext,
    GlobalPolicy,
    NoTruncationPolicy,
    RaptorRuntime,
    ShadowContext,
    TruncatedContext,
    TruncationConfig,
)
from repro.hydro.reconstruction import SCHEMES, reconstruct
from repro.kernels import (
    DEFAULT_PLANE,
    PLANES,
    FastPlaneContext,
    fused,
    select_context,
    validate_plane,
)
from repro.kernels.trunc import EXACT

#: (method name, arity) of every arithmetic FPContext operation
UNARY_OPS = ("neg", "abs", "sqrt", "exp", "log", "log10", "sin", "cos",
             "tanh", "square", "reciprocal")
BINARY_OPS = ("add", "sub", "mul", "div", "power", "maximum", "minimum", "copysign")


def _positive(arr):
    return np.abs(arr) + 0.5


finite_arrays = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=16
).map(lambda xs: np.asarray(xs, dtype=np.float64))


class TestFastContextBitIdentity:
    @given(a=finite_arrays, b=finite_arrays)
    @settings(max_examples=50, deadline=None)
    def test_binary_ops_match_instrumented(self, a, b):
        n = min(a.size, b.size)
        a, b = a[:n], _positive(b[:n])
        slow = FullPrecisionContext(runtime=RaptorRuntime())
        fast = FastPlaneContext()
        for op in BINARY_OPS:
            if op == "power":
                base, expo = _positive(a), np.clip(b, 0.5, 3.0)
                expected = getattr(slow, op)(base, expo)
                got = getattr(fast, op)(base, expo)
            else:
                expected = getattr(slow, op)(a, b)
                got = getattr(fast, op)(a, b)
            np.testing.assert_array_equal(got, expected, err_msg=op)

    @given(a=finite_arrays)
    @settings(max_examples=50, deadline=None)
    def test_unary_ops_match_instrumented(self, a):
        slow = FullPrecisionContext(runtime=RaptorRuntime())
        fast = FastPlaneContext()
        pos = _positive(a)
        for op in UNARY_OPS:
            arg = pos if op in ("sqrt", "log", "log10", "reciprocal") else a
            # exp of the wide input range overflows to inf on both planes
            with np.errstate(over="ignore") if op == "exp" else contextlib.nullcontext():
                np.testing.assert_array_equal(
                    getattr(fast, op)(arg), getattr(slow, op)(arg), err_msg=op
                )

    @given(a=finite_arrays)
    @settings(max_examples=50, deadline=None)
    def test_reductions_and_composites_match(self, a):
        slow = FullPrecisionContext(runtime=RaptorRuntime())
        fast = FastPlaneContext()
        for op in ("sum", "max", "min"):
            np.testing.assert_array_equal(getattr(fast, op)(a), getattr(slow, op)(a))
        b = _positive(a)
        np.testing.assert_array_equal(fast.fma(a, b, b), slow.fma(a, b, b))
        np.testing.assert_array_equal(fast.dot(a, b), slow.dot(a, b))
        np.testing.assert_array_equal(fast.axpy(2.0, a, b), slow.axpy(2.0, a, b))

    def test_reduction_axis(self):
        a = np.arange(12.0).reshape(3, 4) / 7.0
        slow = FullPrecisionContext(runtime=RaptorRuntime())
        fast = FastPlaneContext()
        for axis in (0, 1, None):
            np.testing.assert_array_equal(fast.sum(a, axis=axis), slow.sum(a, axis=axis))

    def test_records_nothing(self):
        rt = RaptorRuntime()
        ctx = FastPlaneContext(runtime=rt)
        ctx.add(np.ones(8), np.ones(8))
        ctx.sum(np.ones(8))
        assert rt.ops.total == 0
        assert rt.mem.total == 0

    def test_is_a_full_precision_context(self):
        ctx = FastPlaneContext()
        assert isinstance(ctx, FullPrecisionContext)
        assert not ctx.truncating
        assert ctx.rounder() is EXACT
        assert not ctx.count_ops and not ctx.track_memory


class TestPlaneSelection:
    def test_validate_plane(self):
        for plane in PLANES:
            assert validate_plane(plane) == plane
        with pytest.raises(ValueError, match="kernel plane"):
            validate_plane("warp")
        assert DEFAULT_PLANE in PLANES

    def test_truncating_and_shadow_contexts_never_lose_the_measurement(self):
        rt = RaptorRuntime()
        cfg = TruncationConfig(targets={64: BF16})
        truncated = TruncatedContext.from_config(cfg, runtime=rt)
        shadow = ShadowContext.from_config(cfg, runtime=rt)
        for plane in PLANES:
            ctx = select_context(truncated, plane)
            assert ctx.truncating and ctx.count_ops and ctx.track_memory
            assert not isinstance(ctx, FastPlaneContext) and ctx.rounder() is None
            assert select_context(shadow, plane) is shadow
        assert select_context(truncated, "instrumented") is truncated

    def test_auto_keeps_counting_contexts_counting(self):
        rt = RaptorRuntime()
        counting = FullPrecisionContext(runtime=rt)
        ctx = select_context(counting, "auto")
        assert not isinstance(ctx, FastPlaneContext)
        assert ctx.ledger and ctx.count_ops and ctx.track_memory
        ctx.add(np.ones(4), np.ones(4))
        assert rt.ops.full == 4
        silent = FullPrecisionContext(
            runtime=RaptorRuntime(), count_ops=False, track_memory=False
        )
        assert isinstance(select_context(silent, "auto"), FastPlaneContext)

    def test_selection_is_idempotent(self):
        ctx = FastPlaneContext()
        for plane in PLANES:
            assert select_context(ctx, plane) is ctx


class TestPolicyPlane:
    def test_default_plane_preserves_counters(self):
        rt = RaptorRuntime()
        pol = NoTruncationPolicy(runtime=rt)  # plane="auto", counting config
        ctx = pol.context_for(module="hydro")
        assert not isinstance(ctx, FastPlaneContext)
        ctx.add(np.ones(4), np.ones(4))
        assert rt.ops.full == 4

    def test_truncating_policy_keeps_truncation_on_fast_plane(self):
        rt = RaptorRuntime()
        pol = GlobalPolicy(TruncationConfig(targets={64: BF16}), runtime=rt, plane="auto")
        ctx = pol.context_for(module="hydro")
        assert ctx.truncating  # the measurement is untouched
        full = pol.full_context("elsewhere")  # counting: keeps its counters
        assert full.ledger and full.count_ops and full.track_memory

    def test_invalid_plane_rejected(self):
        with pytest.raises(ValueError, match="kernel plane"):
            NoTruncationPolicy(plane="bogus")


class TestFusedStencils:
    @pytest.fixture()
    def field2d(self):
        rng = np.random.default_rng(42)
        return rng.normal(size=(20, 20)) + 2.0

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("axis", [0, 1])
    def test_fused_reconstruction_bitwise_equal(self, field2d, scheme, axis):
        ng, n = 3, 8
        slow = FullPrecisionContext(runtime=RaptorRuntime())
        left_s, right_s = SCHEMES[scheme](field2d, axis, ng, n, slow)
        left_f, right_f = fused.FUSED_SCHEMES[scheme](field2d, axis, ng, n)
        np.testing.assert_array_equal(left_f, left_s)
        np.testing.assert_array_equal(right_f, right_s)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_fused_stencil_with_the_fast_rounder_matches_reconstruct(self, field2d, scheme):
        slow = FullPrecisionContext(runtime=RaptorRuntime())
        q = FastPlaneContext().rounder()
        for axis in (0, 1):
            left_s, right_s = reconstruct(field2d, axis, 3, 8, slow, scheme)
            left_f, right_f = fused.FUSED_SCHEMES[scheme](field2d, axis, 3, 8, q=q)
            np.testing.assert_array_equal(left_f, left_s)
            np.testing.assert_array_equal(right_f, right_s)

    def test_fused_weno_edge_matches_context_edge(self, field2d):
        from repro.hydro.reconstruction import _weno5_edge

        slow = FullPrecisionContext(runtime=RaptorRuntime())
        rows = [field2d[i] for i in range(5)]
        np.testing.assert_array_equal(
            fused.weno5_edge(*rows), _weno5_edge(*rows, slow)
        )


class TestPlanePlumbingRegressions:
    def test_legacy_kwargs_reference_never_receives_plane(self):
        """A duck-typed scenario with the pre-plane protocol signature
        (``reference(**kwargs)`` forwarding into ``run``) must be executed
        unchanged — passing ``plane=`` through would TypeError in run()."""
        from repro.experiments.engine import run_reference

        class Legacy:
            name = "legacy"

            def run(self, policy=None, runtime=None):
                return "ran"

            def reference(self, **kwargs):
                return self.run(policy=None, **kwargs)

        assert run_reference(Legacy(), plane="auto") == "ran"
        assert run_reference(Legacy(), plane="instrumented") == "ran"

    def test_bubble_solver_honours_the_instrumented_plane(self):
        """plane="instrumented" must keep every context op by op,
        including the bubble solver's internal full-precision context."""
        from repro.incomp.solver import BubbleSolver

        assert isinstance(BubbleSolver()._full_ctx, FastPlaneContext)
        instrumented = BubbleSolver(plane="instrumented")._full_ctx
        assert not isinstance(instrumented, FastPlaneContext)
        assert instrumented.rounder() is None

    def test_cellular_burn_ops_recorded_on_the_run_runtime(self):
        """Burn ops must land on the run's runtime even when the policy
        was built on another (here: the process-global default)."""
        from repro.core import ModulePolicy
        from repro.workloads import create_workload

        workload = create_workload("cellular", n_cells=8, n_steps=2)
        policy = ModulePolicy(TruncationConfig.mantissa(40), modules=["eos"])
        outcome = workload.run(policy=policy)
        burn = outcome.snapshot()["modules"].get("burn", {})
        assert burn.get("full", 0) > 0



def _entry_points():
    """Every place a plane name enters, each as ``plane -> call``."""
    from repro.experiments import AdaptiveSpec, PolicySpec, SweepSpec
    from repro.incomp import BubbleConfig, BubbleSolver
    from repro.workloads import create_workload

    return {
        "SweepSpec.validate": lambda plane: SweepSpec(
            workloads=("sod",), plane=plane).validate(),
        "AdaptiveSpec.validate": lambda plane: AdaptiveSpec(
            workloads=("cellular",), plane=plane).validate(),
        "PolicySpec.build": lambda plane: PolicySpec(kind="global").build(
            BF16, RaptorRuntime(), plane=plane),
        "NoTruncationPolicy": lambda plane: NoTruncationPolicy(plane=plane),
        "Scenario.reference": lambda plane: create_workload(
            "cellular", n_cells=8, n_steps=1).reference(plane=plane),
        "BubbleSolver": lambda plane: BubbleSolver(BubbleConfig(nx=8, ny=12), plane=plane),
    }


def _quickstart_error(plane):
    """Exit status and stderr of the sweep CLI given ``--plane plane``."""
    root = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, str(root / "examples" / "sweep_quickstart.py"), "--plane", plane],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("entry", [
    "SweepSpec.validate", "AdaptiveSpec.validate", "PolicySpec.build",
    "NoTruncationPolicy", "Scenario.reference", "BubbleSolver", "sweep_quickstart.py",
])
def test_fast_plane_is_rejected_everywhere_the_plane_enters(entry):
    """``"fast"`` is no plane: every entry point refuses it (the CLI with
    argparse's exit status 2), naming both valid planes."""
    if entry == "sweep_quickstart.py":
        status, message = _quickstart_error("fast")
        assert status == 2
    else:
        with pytest.raises(ValueError) as excinfo:
            _entry_points()[entry]("fast")
        message = str(excinfo.value)
    assert "'fast'" in message
    for plane in PLANES:
        assert plane in message
