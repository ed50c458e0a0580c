"""Differential bit-identity harness for the fused bubble plane
(repro.kernels.bubble + the BubbleSolver/LevelSet/PoissonSolver dispatch).

The load-bearing contracts:

* every fused twin (advection WENO5/upwind, diffusion, level-set
  advect/reinitialise, curvature/heaviside/delta/material fields) is
  **bitwise identical** to the op-by-op reference it replaces — with or
  without a workspace;
* every twin run with a ``Round`` rounder rounds at exactly the op
  boundaries the optimized instrumented :class:`TruncatedContext` rounds
  at, property-tested across formats × rounding modes on representable
  inputs;
* the batched WENO5 pair reconstruction equals the op-by-op per-axis
  ``BubbleSolver._weno5_derivative`` bit for bit (ufuncs are elementwise,
  rows are independent), binary64 and truncated;
* workspace discipline: poisoned buffers never leak into results, kernel
  inputs are never written, and a warm ``BubbleSolver.step`` allocates
  nothing (``ws.misses`` stays flat through further steps, including a
  reinitialisation);
* the classic plain-numpy glue is the test oracle ``tests/bubble_oracle.py``:
  full runs — binary64 and truncated, both advection schemes — produce
  bit-identical ``velx``/``vely``/``pres``/``phi`` on the fused plane and
  on the instrumented plane inside ``bubble_oracle.swapped()``, the bubble
  workload matches through ``run_sweep`` / ``find_cliff``, counting runs
  replay byte-identical counters, and the swap is not vacuous: every
  oracle body runs, no fused glue twin does, and a one-ulp nudge of one
  oracle body is caught.
"""
import contextlib

import bubble_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FPFormat,
    FullPrecisionContext,
    GlobalPolicy,
    RaptorRuntime,
    RoundingMode,
    TruncatedContext,
    TruncationConfig,
    quantize,
)
from repro.core.selective import NoTruncationPolicy
from repro.incomp import BubbleConfig, BubbleSolver
from repro.incomp.levelset import LevelSet, upwind_derivative
from repro.kernels import FastPlaneContext, TruncFastPlaneContext
from repro.kernels import bubble as kbubble
from repro.kernels.scratch import Workspace
from repro.kernels.trunc import EXACT, Round
from repro.workloads import create_workload

FORMATS = [
    FPFormat(exp_bits=8, man_bits=10),
    FPFormat(exp_bits=8, man_bits=7),
    FPFormat(exp_bits=5, man_bits=10),
]
FORMAT_IDS = [f"e{f.exp_bits}m{f.man_bits}" for f in FORMATS]
ROUNDINGS = list(RoundingMode.ALL)
E8M10 = FORMATS[0]

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)

TINY_BUBBLE = dict(spin_up_time=0.04, truncation_time=0.04, snapshot_times=(0.04,))


def small_config(**kwargs):
    defaults = dict(
        nx=20,
        ny=28,
        xlim=(-1.0, 1.0),
        ylim=(-1.0, 2.0),
        reynolds=350.0,
        bubble_diameter=0.8,
        advection_scheme="weno5",
        reinit_interval=3,
    )
    defaults.update(kwargs)
    return BubbleConfig(**defaults)


def make_solver(plane="auto", **cfg_kw):
    """A solver on ``plane``.  The reference solvers run on the instrumented
    kernel plane, so their internal full-precision context is the classic
    op-by-op one; running them inside ``bubble_oracle.swapped()`` also puts
    the context-free glue back on the classic plain-numpy bodies."""
    return BubbleSolver(small_config(**cfg_kw), plane=plane)


def seed_state(solver, seed, fmt=None, rounding=RoundingMode.NEAREST_EVEN):
    """Deterministic, physical-ish random state; quantised when a format is
    given so truncating twins see representable operands."""
    rng = np.random.default_rng(seed)
    shape = solver.velx.shape
    velx = rng.uniform(-0.5, 0.5, shape)
    vely = rng.uniform(-0.5, 0.5, shape)
    phi = solver.levelset.phi + rng.uniform(-0.05, 0.05, shape)
    if fmt is not None:
        velx = np.asarray(quantize(velx, fmt, rounding))
        vely = np.asarray(quantize(vely, fmt, rounding))
        phi = np.asarray(quantize(phi, fmt, rounding))
    solver.velx = velx.copy()
    solver.vely = vely.copy()
    solver.levelset.phi = phi.copy()
    return velx, vely, phi


def _full(**kw):
    return FullPrecisionContext(runtime=RaptorRuntime(), count_ops=False,
                                track_memory=False, **kw)


def _silent_trunc(fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN):
    return TruncatedContext(fmt, runtime=RaptorRuntime(), rounding=rounding,
                            count_ops=False, track_memory=False)


def assert_bits(a, b, label=""):
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b), err_msg=label)


def solver_state(solver):
    return {
        "velx": solver.velx.copy(),
        "vely": solver.vely.copy(),
        "pres": solver.pres.copy(),
        "phi": solver.levelset.phi.copy(),
    }


# ---------------------------------------------------------------------------
# level-set kernel twins
# ---------------------------------------------------------------------------
class TestLevelSetTwins:
    def _pair(self, seed, ws):
        """(reference, fused) level sets of one random field: the reference
        allocates, the fused one threads ``ws``."""
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-0.4, 0.4, (12, 16))
        return LevelSet(phi, 0.05, 0.06), LevelSet(phi, 0.05, 0.06, ws=ws)

    @given(seed=seeds, with_ws=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_indicator_and_material_fields(self, seed, with_ws):
        ref, fused = self._pair(seed, Workspace() if with_ws else None)
        fields = {
            "heaviside": lambda ls: ls.heaviside(),
            "delta": lambda ls: ls.delta(),
            "density": lambda ls: ls.density(1.0, 0.1),
            "viscosity": lambda ls: ls.viscosity(2e-3, 4e-5),
            "curvature": lambda ls: ls.curvature(),
        }
        with bubble_oracle.swapped():
            want = {name: field(ref) for name, field in fields.items()}
        for name, field in fields.items():
            assert_bits(field(fused), want[name], name)

    @given(seed=seeds, iterations=st.integers(min_value=0, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_reinitialize(self, seed, iterations):
        ref, fused = self._pair(seed, Workspace())
        with bubble_oracle.swapped():
            ref.reinitialize(iterations=iterations)
        fused.reinitialize(iterations=iterations)
        assert_bits(fused.phi, ref.phi, f"reinit({iterations})")

    @staticmethod
    def _fused_advect(ls, velx, vely, dt, ctx):
        """The fused level-set transport with ``ctx``'s rounder, as the
        bubble solver runs it on a fused context."""
        return kbubble.levelset_advect(ls.phi, velx, vely, dt, ls.dx, ls.dy, ws=ls._ws,
                                       key=("ls", "adv"), q=ctx.rounder(ls._ws))

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_advect_binary64(self, seed):
        ref, fused = self._pair(seed, Workspace())
        rng = np.random.default_rng(seed + 1)
        velx = rng.uniform(-0.5, 0.5, ref.phi.shape)
        vely = rng.uniform(-0.5, 0.5, ref.phi.shape)
        ref.advect(velx, vely, 1e-3, _full())
        got = self._fused_advect(fused, velx, vely, 1e-3, FastPlaneContext())
        assert_bits(got, ref.phi, "levelset_advect")

    @given(seed=seeds, fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=60, deadline=None)
    def test_advect_truncated(self, seed, fmt, rounding):
        ref, fused = self._pair(seed, Workspace())
        rng = np.random.default_rng(seed + 1)
        velx = np.asarray(quantize(rng.uniform(-0.5, 0.5, ref.phi.shape), fmt, rounding))
        vely = np.asarray(quantize(rng.uniform(-0.5, 0.5, ref.phi.shape), fmt, rounding))
        ref.phi = np.asarray(quantize(ref.phi, fmt, rounding))
        fused.phi = ref.phi.copy()
        dt = 1e-3
        ref.advect(velx, vely, dt, _silent_trunc(fmt, rounding))
        got = self._fused_advect(fused, velx, vely, dt,
                                 TruncFastPlaneContext(fmt, rounding=rounding))
        assert_bits(got, ref.phi, f"levelset_advect_trunc {fmt} {rounding}")

    def test_shared_upwind_derivative_modes(self):
        rng = np.random.default_rng(7)
        f = rng.uniform(-1.0, 1.0, (10, 12))
        vel = rng.uniform(-1.0, 1.0, (10, 12))
        ctx = _full()
        # wrap mode equals the historical np.roll expression
        got = upwind_derivative(f, vel, 0.1, 0, ctx, boundary="wrap")
        bwd = (f - np.roll(f, 1, 0)) * (1.0 / 0.1)
        fwd = (np.roll(f, -1, 0) - f) * (1.0 / 0.1)
        assert_bits(got, np.where(vel > 0.0, bwd, fwd), "wrap")
        # edge mode slices the caller's padding
        padded = np.pad(f, 1, mode="edge")
        got = upwind_derivative(f, vel, 0.1, 1, ctx, boundary="edge", padded=padded)
        bwd = (f - padded[1:-1, :-2]) * (1.0 / 0.1)
        fwd = (padded[1:-1, 2:] - f) * (1.0 / 0.1)
        assert_bits(got, np.where(vel > 0.0, bwd, fwd), "edge")
        with pytest.raises(ValueError, match="boundary"):
            upwind_derivative(f, vel, 0.1, 0, ctx, boundary="mirror")


# ---------------------------------------------------------------------------
# solver operator twins (advection / diffusion), binary64 and truncating
# ---------------------------------------------------------------------------
class TestSolverOperatorTwins:
    @pytest.mark.parametrize("scheme", ["weno5", "upwind"])
    @pytest.mark.parametrize("op", ["advection", "diffusion"])
    def test_binary64_operators(self, scheme, op):
        ref = make_solver("instrumented", advection_scheme=scheme)
        fused = make_solver(advection_scheme=scheme)
        seed_state(ref, 11)
        seed_state(fused, 11)
        for which, field in (("u", "velx"), ("v", "vely")):
            if op == "advection":
                a = ref.advection_term(getattr(ref, field), _full(), which)
                b = fused.advection_term(getattr(fused, field), FastPlaneContext(), which)
            else:
                with bubble_oracle.swapped():
                    mu_ref = ref.levelset.viscosity(2e-3, 4e-5)
                mu_fus = fused.levelset.viscosity(2e-3, 4e-5)
                assert_bits(mu_fus, mu_ref, "mu")
                a = ref.diffusion_term(getattr(ref, field), mu_ref, _full(), which)
                b = fused.diffusion_term(getattr(fused, field), mu_fus,
                                         FastPlaneContext(), which)
            assert_bits(b, a, f"{op}/{scheme}/{which}")

    @given(seed=seeds, fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=25, deadline=None)
    def test_truncated_weno5_advection(self, seed, fmt, rounding):
        self._truncated_operator("weno5", "advection", seed, fmt, rounding)

    @given(seed=seeds, fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=25, deadline=None)
    def test_truncated_upwind_advection(self, seed, fmt, rounding):
        self._truncated_operator("upwind", "advection", seed, fmt, rounding)

    @given(seed=seeds, fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=25, deadline=None)
    def test_truncated_diffusion(self, seed, fmt, rounding):
        self._truncated_operator("weno5", "diffusion", seed, fmt, rounding)

    def _truncated_operator(self, scheme, op, seed, fmt, rounding):
        ref = make_solver("instrumented", advection_scheme=scheme)
        fused = make_solver(advection_scheme=scheme)
        seed_state(ref, seed, fmt, rounding)
        seed_state(fused, seed, fmt, rounding)
        slow = _silent_trunc(fmt, rounding)
        fast = TruncFastPlaneContext(fmt, rounding=rounding)
        for which, field in (("u", "velx"), ("v", "vely")):
            if op == "advection":
                a = ref.advection_term(getattr(ref, field), slow, which)
                b = fused.advection_term(getattr(fused, field), fast, which)
            else:
                with bubble_oracle.swapped():
                    mu = ref.levelset.viscosity(2e-3, 4e-5)
                mu = np.asarray(quantize(mu, fmt, rounding))
                a = ref.diffusion_term(getattr(ref, field), mu, slow, which)
                b = fused.diffusion_term(getattr(fused, field), mu, fast, which)
            assert_bits(b, a, f"{op}/{scheme}/{which} {fmt} {rounding}")

    @staticmethod
    def _pair_vs_op_by_op(f, velx, vely, q, ctx, label):
        """The batched (5, 8, nx, ny) WENO5 pair against two op-by-op
        ``BubbleSolver._weno5_derivative`` calls through ``ctx``."""
        padded = np.pad(f, 3, mode="edge")
        ws = Workspace()
        fx, fy = kbubble.weno5_derivative_pair(
            padded, velx, vely, 0.1, 0.2, ws=ws, key=("p",), q=q)
        solver = make_solver("instrumented")
        sx = ctx.asplain(solver._weno5_derivative(f, velx, 0.1, 0, ctx))
        sy = ctx.asplain(solver._weno5_derivative(f, vely, 0.2, 1, ctx))
        assert_bits(fx, sx, f"{label}/x")
        assert_bits(fy, sy, f"{label}/y")

    def test_pair_matches_per_axis_twins(self):
        """The batched WENO5 reconstruction equals the op-by-op per-axis
        derivative bit for bit — rows are independent lanes."""
        rng = np.random.default_rng(3)
        f = rng.uniform(-1.0, 1.0, (14, 18))
        velx = rng.uniform(-1.0, 1.0, (14, 18))
        vely = rng.uniform(-1.0, 1.0, (14, 18))
        self._pair_vs_op_by_op(f, velx, vely, EXACT, _full(), "pair")

    @given(fmt=st.sampled_from(FORMATS), rounding=st.sampled_from(ROUNDINGS))
    @settings(max_examples=20, deadline=None)
    def test_pair_trunc_matches_per_axis_twins(self, fmt, rounding):
        rng = np.random.default_rng(5)
        f = np.asarray(quantize(rng.uniform(-1.0, 1.0, (12, 14)), fmt, rounding))
        velx = np.asarray(quantize(rng.uniform(-1.0, 1.0, (12, 14)), fmt, rounding))
        vely = np.asarray(quantize(rng.uniform(-1.0, 1.0, (12, 14)), fmt, rounding))
        self._pair_vs_op_by_op(f, velx, vely, Round(fmt, rounding, Workspace()),
                               _silent_trunc(fmt, rounding), f"pair_trunc {fmt} {rounding}")


# ---------------------------------------------------------------------------
# workspace discipline
# ---------------------------------------------------------------------------
class TestWorkspaceDiscipline:
    def test_steady_state_no_allocations(self):
        """After one reinit cycle the warm step allocates nothing new from
        the workspace — misses stay flat across further full cycles."""
        solver = make_solver()
        for _ in range(solver.config.reinit_interval * 2):
            solver.step(1e-3)
        misses = solver._workspace.misses
        assert misses > 0
        for _ in range(solver.config.reinit_interval * 2):
            solver.step(1e-3)
        assert solver._workspace.misses == misses
        assert solver._workspace.hits > 0

    def test_poisoned_workspace_never_leaks(self):
        """Every kernel must fully overwrite its scratch before reading it:
        NaN-poisoning all warm buffers cannot change a single bit."""
        a = make_solver()
        b = make_solver()
        for solver in (a, b):
            seed_state(solver, 23)
            for _ in range(4):
                solver.step(1e-3)
        for buf in a._workspace._buffers.values():
            if buf.dtype.kind == "f":
                buf.fill(np.nan)
            else:
                buf.fill(1)
        a.step(1e-3)
        b.step(1e-3)
        for key, val in solver_state(b).items():
            assert_bits(solver_state(a)[key], val, f"poisoned/{key}")

    def test_kernels_do_not_write_inputs(self):
        rng = np.random.default_rng(31)
        shape = (10, 12)
        phi = rng.uniform(-0.4, 0.4, shape)
        velx = rng.uniform(-0.5, 0.5, shape)
        vely = rng.uniform(-0.5, 0.5, shape)
        nu = np.abs(rng.uniform(0.1, 1.0, shape))
        fp = np.pad(phi, 1, mode="edge")
        nup = np.pad(nu, 1, mode="edge")
        padded3 = np.pad(phi, 3, mode="edge")
        ws = Workspace()
        originals = [x.copy() for x in (phi, velx, vely, nu, fp, nup, padded3)]
        kbubble.heaviside(phi, 0.1, ws=ws, key=("h",))
        kbubble.delta(phi, 0.1, ws=ws, key=("d",))
        kbubble.material_field(phi, 0.1, 1.0, 0.1, ws=ws, key=("m",))
        kbubble.curvature(phi, 0.05, 0.06, ws=ws, key=("c",))
        kbubble.gradient_axis(phi, 0.05, 0, ws=ws, key=("g",))
        kbubble.reinitialize(phi, 0.05, 0.06, iterations=3, ws=ws, key=("r",))
        kbubble.buoyancy(phi, 0.1, 1.0, 0.1, ws=ws, key=("b",))
        kbubble.surface_tension(phi, 0.1, 0.01, 0.05, 0.06, ws=ws, key=("st",))
        kbubble.levelset_advect(phi, velx, vely, 1e-3, 0.05, 0.06, ws=ws, key=("la",))
        kbubble.levelset_advect(phi, velx, vely, 1e-3, 0.05, 0.06, ws=ws,
                                key=("lat",), q=Round(E8M10, ws=ws))
        kbubble.weno5_derivative_pair(padded3, velx, vely, 0.05, 0.06, ws=ws, key=("wp",))
        kbubble.upwind_derivative(phi, velx, 0.05, 1, "edge", fp, ws=ws, key=("u",))
        kbubble.diffusion_term(phi, nu, fp, nup, 0.05, 0.06, ws=ws, key=("df",))
        kbubble.diffusion_term(phi, nu, fp, nup, 0.05, 0.06, ws=ws, key=("dft",),
                               q=Round(E8M10, ws=ws))
        for orig, arr in zip(originals, (phi, velx, vely, nu, fp, nup, padded3)):
            assert_bits(arr, orig, "input written")

    def test_twins_work_without_workspace(self):
        """ws=None falls back to fresh allocations, same bits."""
        rng = np.random.default_rng(37)
        phi = rng.uniform(-0.4, 0.4, (10, 12))
        velx = rng.uniform(-0.5, 0.5, (10, 12))
        vely = rng.uniform(-0.5, 0.5, (10, 12))
        with_ws = kbubble.levelset_advect(phi, velx, vely, 1e-3, 0.05, 0.06,
                                          ws=Workspace(), key=("a",))
        without = kbubble.levelset_advect(phi, velx, vely, 1e-3, 0.05, 0.06)
        assert_bits(with_ws, without, "ws=None")
        padded = np.pad(phi, 3, mode="edge")
        a = kbubble.weno5_derivative_pair(padded, velx, vely, 0.05, 0.06,
                                          ws=Workspace(), key=("p",))
        b = kbubble.weno5_derivative_pair(padded, velx, vely, 0.05, 0.06)
        assert_bits(a[0], b[0], "pair/ws=None/x")
        assert_bits(a[1], b[1], "pair/ws=None/y")


# ---------------------------------------------------------------------------
# the oracle and whole-solver equivalence
# ---------------------------------------------------------------------------
#: the fused glue twins the oracle stands in for
GLUE_TWINS = ("heaviside", "delta", "material_field", "curvature", "reinitialize",
              "buoyancy", "surface_tension", "gradient_axis")


def _swapped_if(swap):
    """``bubble_oracle.swapped()`` when ``swap``, else a no-op context."""
    return bubble_oracle.swapped() if swap else contextlib.nullcontext()


def _oracle_run(plane, scheme="weno5", ctx=None, **run_kw):
    """A solver on ``plane`` run for 15 fixed steps — inside
    ``bubble_oracle.swapped()`` for the instrumented plane."""
    solver = make_solver(plane, advection_scheme=scheme)
    with _swapped_if(plane == "instrumented"):
        solver.run(t_end=0.03, fixed_dt=2e-3, advection_ctx=ctx, diffusion_ctx=ctx, **run_kw)
    return solver_state(solver)


class TestOracleAndFullRuns:
    def test_default_solver_rides_the_bubble_plane(self):
        for plane in ("auto", "instrumented"):
            solver = make_solver(plane)
            assert isinstance(solver._workspace, Workspace)
            assert solver.levelset._ws is solver._workspace

    def test_swap_routes_every_glue_site_through_the_oracle(self, monkeypatch):
        """Non-vacuity: during a swapped bubble run every oracle body runs
        and no fused glue twin does; leaving restores every site."""
        oracle_calls = {name: 0 for _, _, name in bubble_oracle.SITES}
        twin_calls = {name: 0 for name in GLUE_TWINS}

        def spy(owner, name, calls):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in oracle_calls:
            spy(bubble_oracle, name, oracle_calls)
        for name in twin_calls:
            spy(kbubble, name, twin_calls)
        before = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in bubble_oracle.SITES}
        with bubble_oracle.swapped():
            create_workload("bubble", **TINY_BUBBLE).reference(plane="instrumented")
        assert all(oracle_calls.values()), oracle_calls
        assert not any(twin_calls.values()), twin_calls
        assert {(o, a): o.__dict__[a] for o, a, _ in bubble_oracle.SITES} == before
        create_workload("bubble", **TINY_BUBBLE).reference(plane="instrumented")
        assert all(twin_calls.values()), twin_calls

    def test_one_ulp_nudge_of_an_oracle_body_is_caught(self, monkeypatch):
        """The whole-run comparison sees a single-ulp change of one glue
        body, so agreeing with the oracle means something."""
        real = bubble_oracle.buoyancy
        monkeypatch.setattr(bubble_oracle, "buoyancy",
                            lambda self: np.nextafter(real(self), np.inf))
        nudged = _oracle_run("instrumented")
        fused = _oracle_run("auto")
        assert any(not np.array_equal(nudged[key], fused[key]) for key in fused)

    @pytest.mark.parametrize("scheme", ["weno5", "upwind"])
    def test_binary64_runs_bitwise_identical(self, scheme):
        ref = _oracle_run("instrumented", scheme)
        fused = _oracle_run("auto", scheme)
        for key, val in ref.items():
            assert_bits(fused[key], val, f"{scheme}/{key}")

    @pytest.mark.parametrize("scheme", ["weno5", "upwind"])
    @pytest.mark.parametrize("rounding",
                             [RoundingMode.NEAREST_EVEN, RoundingMode.TOWARD_ZERO])
    def test_truncated_runs_bitwise_identical(self, scheme, rounding):
        ref = _oracle_run("instrumented", scheme, _silent_trunc(E8M10, rounding))
        fast = _oracle_run("auto", scheme, TruncFastPlaneContext(E8M10, rounding=rounding))
        for key, val in ref.items():
            assert_bits(fast[key], val, f"{scheme}/{rounding}/{key}")

    def test_blended_mask_runs_bitwise_identical(self):
        """The M − l cutoff path blends truncated and full results — both
        planes must agree bit for bit through the blend."""
        mask = lambda s: s.levelset.level_map(max_level=3) <= 2
        ref = _oracle_run("instrumented", ctx=_silent_trunc(E8M10), truncate_mask_fn=mask)
        fast = _oracle_run("auto", ctx=TruncFastPlaneContext(E8M10), truncate_mask_fn=mask)
        for key, val in ref.items():
            assert_bits(fast[key], val, f"blend/{key}")

    def test_counting_contexts_and_counters_untouched(self):
        """A counting e8m10 bubble run counts op by op on the instrumented
        plane (inside the oracle swap) and replays ledgers on ``"auto"``:
        states bitwise, runtime snapshots byte-identical."""
        def run(plane):
            wl = create_workload("bubble", **TINY_BUBBLE)
            rt = RaptorRuntime()
            policy = GlobalPolicy(TruncationConfig(targets={64: E8M10}),
                                  runtime=rt, plane=plane)
            with _swapped_if(plane == "instrumented"):
                return wl.run(policy=policy, runtime=rt)

        op_by_op, replayed = run("instrumented"), run("auto")
        assert op_by_op.runtime.ops.total > 0
        for key in op_by_op.state:
            assert_bits(replayed.state[key], op_by_op.state[key], key)
        assert replayed.info == op_by_op.info
        assert replayed.snapshot() == op_by_op.snapshot()


# ---------------------------------------------------------------------------
# the workload through the engine entry points
# ---------------------------------------------------------------------------
class TestWorkloadEquivalence:
    def _run_policy(self, policy_kind, plane, oracle):
        wl = create_workload("bubble", **TINY_BUBBLE)
        rt = RaptorRuntime()
        if policy_kind == "trunc":
            policy = GlobalPolicy(
                TruncationConfig(targets={64: E8M10}, count_ops=False,
                                 track_memory=False),
                runtime=rt, plane=plane,
            )
        else:
            policy = NoTruncationPolicy(runtime=rt, count_ops=False,
                                        track_memory=False, plane=plane)
        with _swapped_if(oracle):
            return wl.run(policy=policy, runtime=rt)

    @pytest.mark.parametrize("policy_kind", ["full", "trunc"])
    def test_states_identical_across_planes_and_oracle(self, policy_kind):
        baseline = self._run_policy(policy_kind, "instrumented", True)
        for plane in ("instrumented", "auto"):
            for oracle in (False, True):
                other = self._run_policy(policy_kind, plane, oracle)
                assert other.time == baseline.time
                for key in baseline.state:
                    assert_bits(other.state[key], baseline.state[key],
                                f"{policy_kind}/{plane}/oracle={oracle}/{key}")

    def test_run_sweep_identical_to_oracle(self):
        from repro.experiments import PolicySpec, SweepSpec, run_sweep

        def sweep(plane):
            return run_sweep(SweepSpec(
                workloads=("bubble",),
                formats=("fp64", "bf16"),
                policies=(PolicySpec(kind="global"),),
                workload_configs={"bubble": TINY_BUBBLE},
                keep_states=True,
                plane=plane,
            ))

        fused = sweep("auto")
        with bubble_oracle.swapped():
            plain = sweep("instrumented")
        for a, b in zip(fused.points, plain.points):
            assert a.errors == b.errors
            assert set(a.state) == set(b.state)
            for key in a.state:
                assert_bits(a.state[key], b.state[key], f"{a.format_name}/{key}")
        for name, reference in fused.references.items():
            for key in reference.state:
                assert_bits(reference.state[key], plain.references[name].state[key],
                            f"ref/{key}")

    def test_find_cliff_identical_to_oracle(self):
        from repro.experiments import find_cliff

        kwargs = dict(
            config_kwargs=dict(TINY_BUBBLE),
            min_man_bits=4, max_man_bits=12, exp_bits=8,
            count_ops=False,
        )
        fused = find_cliff("bubble", **kwargs)
        with bubble_oracle.swapped():
            plain = find_cliff("bubble", plane="instrumented", **kwargs)
        assert fused.cliff_man_bits == plain.cliff_man_bits
        assert [(e.man_bits, e.error) for e in fused.evaluations] == [
            (e.man_bits, e.error) for e in plain.evaluations
        ]
