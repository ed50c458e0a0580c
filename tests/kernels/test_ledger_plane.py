"""Counter-identity tests for the counted fused plane (repro.kernels.ledger).

The load-bearing contracts:

* a replayed :class:`OpLedger` charges exactly what the instrumented
  contexts charge — totals, per-module counters and bytes — and
  ``times=k`` equals ``k`` separate block updates;
* plane selection moves *counting* op-mode contexts (optimized truncating
  without error tracking, and binary64) onto the counted plane under
  ``"auto"`` and ``"fast"`` and never moves error-tracking, naive or
  shadow contexts;
* the hydro block update on the counted plane is bitwise identical to the
  instrumented update *and* leaves a byte-identical runtime snapshot, for
  every scheme, solver, rounding, gravity and block shape — per block and
  batched (a batched stack replays the per-block ledger once per block, so
  scalar operands are charged per block);
* the bubble operators (advection, diffusion, level-set transport) and
  the cellular EOS (table interpolation, every Newton iteration, the burn
  network) replay per-call ledgers whose counters never depend on the
  data — including Newton solves that converge at once, midway or never;
* whole sweeps and cliff searches over all seven workloads produce
  identical metrics and snapshots on the instrumented and counted planes;
* the rounder-selection rule: helper-level call sites (the gamma-law EOS,
  the Riemann solvers, ``reconstruct``, the bubble derivatives) run the
  fused kernels only on a fused fast plane — with ``EXACT`` for
  ``ctx.fused``, with a ``Round`` of the context's format for
  ``ctx.fused_trunc`` — while a counted context counts them op by op.
"""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.burn import CarbonBurnNetwork
from repro.core import (
    BF16,
    AMRCutoffPolicy,
    FPFormat,
    FullPrecisionContext,
    GlobalPolicy,
    ModulePolicy,
    RaptorRuntime,
    RoundingMode,
    ShadowContext,
    TruncatedContext,
    TruncationConfig,
    quantize,
)
from repro.eos import HelmholtzTable, NewtonSolverConfig, invert_energy, newton
from repro.experiments import PolicySpec, SweepSpec, find_cliff, run_sweep
from repro.hydro.eos import GammaLawEOS
from repro.hydro.reconstruction import reconstruct
from repro.hydro.riemann import SOLVERS
from repro.hydro.solver import PRIMITIVE_VARS, HydroSolver
from repro.incomp import BubbleConfig, BubbleSolver
from repro.kernels import (
    FastPlaneContext,
    LedgerFullContext,
    LedgerTruncatedContext,
    flux,
    fused,
    is_ledger_eligible,
    ledger,
    select_context,
)
from repro.kernels import bubble as kbubble
from repro.kernels import eos as keos
from repro.kernels.ledger import LedgerRecorder, OpLedger, fused_rounder
from repro.kernels.trunc import EXACT, Round, TruncFastPlaneContext, plane_rounder
from repro.workloads import create_workload

E8M10 = FPFormat(exp_bits=8, man_bits=10)

TINY_COMPRESSIBLE = dict(
    nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.004, rk_stages=1
)
TINY_CONFIGS = {
    "sod": TINY_COMPRESSIBLE,
    "sedov": dict(TINY_COMPRESSIBLE, reconstruction="weno5"),
    "kelvin-helmholtz": TINY_COMPRESSIBLE,
    "rayleigh-taylor": TINY_COMPRESSIBLE,
    "double-blast": TINY_COMPRESSIBLE,
    "cellular": dict(n_cells=16, n_steps=4),
    "bubble": dict(spin_up_time=0.04, truncation_time=0.04, snapshot_times=(0.04,)),
}


def _counting(fmt=E8M10, rounding=RoundingMode.NEAREST_EVEN, **kw):
    return TruncatedContext(fmt, runtime=RaptorRuntime(), module="hydro",
                            rounding=rounding, **kw)


def _counted(ctx):
    """The counted-plane twin of an instrumented counting context, on a
    fresh runtime of its own."""
    twin = select_context(ctx, "auto")
    assert twin.ledger
    twin.runtime = RaptorRuntime()
    return twin


def _grid(**overrides):
    cfg = dict(TINY_COMPRESSIBLE, max_level=3, t_end=0.01)
    cfg.update(overrides)
    return create_workload("sod", **cfg).build_grid()


# ---------------------------------------------------------------------------
# ledger records
# ---------------------------------------------------------------------------
class TestLedgerRecords:
    def test_recorder_replays_what_the_contexts_recorded(self):
        a, b = np.linspace(1.0, 2.0, 6), np.linspace(2.0, 3.0, 6)

        def ops(trunc, full):
            trunc.mul(trunc.add(a, b), trunc.const(0.5))
            trunc.sum(b)
            full.div(a, b)

        direct = RaptorRuntime()
        ops(TruncatedContext(BF16, runtime=direct, module="hydro"),
            FullPrecisionContext(runtime=direct, module="eos"))
        sink = LedgerRecorder()
        ops(TruncatedContext(BF16, runtime=sink, module="hydro"),
            FullPrecisionContext(runtime=sink, module="eos"))
        replayed = RaptorRuntime()
        sink.ledger().replay(replayed)
        assert replayed.snapshot() == direct.snapshot()

    def test_times_equals_repeated_replays(self):
        led = OpLedger(modules=(("hydro", 7, 0), (None, 0, 3)),
                       truncated_bytes=40, full_bytes=8)
        once = RaptorRuntime()
        for _ in range(5):
            led.replay(once)
        batched = RaptorRuntime()
        led.replay(batched, times=5)
        assert batched.snapshot() == once.snapshot()
        assert batched.ops.truncated == 35 and batched.mem.full == 40

    def test_empty_ledger_creates_no_module_entries(self):
        rt = RaptorRuntime()
        OpLedger(modules=(), truncated_bytes=0, full_bytes=0).replay(rt, times=3)
        assert rt.snapshot() == RaptorRuntime().snapshot()

    def test_recorder_is_not_a_runtime(self):
        # recording a ledger must not look like a run to runtime trackers
        assert not isinstance(LedgerRecorder(), RaptorRuntime)


# ---------------------------------------------------------------------------
# plane selection
# ---------------------------------------------------------------------------
class TestLedgerSelection:
    def test_eligibility_predicate(self):
        assert is_ledger_eligible(_counting())
        assert is_ledger_eligible(_counting(count_ops=False))  # bytes only
        assert is_ledger_eligible(FullPrecisionContext(runtime=RaptorRuntime()))
        assert not is_ledger_eligible(_counting(track_errors=True))
        assert not is_ledger_eligible(_counting(optimized=False))
        assert not is_ledger_eligible(_counting(count_ops=False, track_memory=False))
        assert not is_ledger_eligible(
            FullPrecisionContext(runtime=RaptorRuntime(), count_ops=False, track_memory=False)
        )
        shadow = ShadowContext.from_config(TruncationConfig(targets={64: BF16}),
                                           runtime=RaptorRuntime())
        assert not is_ledger_eligible(shadow)

    @pytest.mark.parametrize("plane", ["fast", "auto"])
    def test_counting_truncating_context_moves_with_its_flags(self, plane):
        src = _counting(BF16, RoundingMode.DOWN, count_ops=False)
        ctx = select_context(src, plane)
        assert isinstance(ctx, LedgerTruncatedContext)
        assert (ctx.fmt, ctx.rounding, ctx.module, ctx.runtime) == (
            src.fmt, src.rounding, src.module, src.runtime)
        assert (ctx.count_ops, ctx.track_memory, ctx.track_errors) == (False, True, False)
        assert ctx.optimized and ctx.plane == "fast"

    def test_counting_binary64_moves_under_auto_only(self):
        src = FullPrecisionContext(runtime=RaptorRuntime(), module="hydro")
        ctx = select_context(src, "auto")
        assert isinstance(ctx, LedgerFullContext) and ctx.module == "hydro"
        assert select_context(src, "instrumented") is src

    def test_measurement_contexts_stay_instrumented(self):
        for src in (_counting(track_errors=True), _counting(optimized=False)):
            for plane in ("fast", "auto", "instrumented"):
                assert select_context(src, plane) is src

    def test_selection_is_idempotent(self):
        for ctx in (select_context(_counting(), "auto"),
                    select_context(FullPrecisionContext(runtime=RaptorRuntime()), "auto")):
            for plane in ("fast", "auto", "instrumented"):
                assert select_context(ctx, plane) is ctx

    def test_policies_hand_out_counted_contexts(self):
        rt = RaptorRuntime()
        cfg = TruncationConfig(targets={64: BF16})
        pol = AMRCutoffPolicy(cfg, cutoff=1, runtime=rt)
        assert isinstance(pol.context_for("hydro", level=1, max_level=3), LedgerTruncatedContext)
        assert isinstance(pol.context_for("hydro", level=3, max_level=3), LedgerFullContext)
        instrumented = GlobalPolicy(cfg, runtime=rt, plane="instrumented")
        assert not instrumented.context_for("hydro").ledger

    def test_counted_contexts_count_op_by_op_elsewhere(self):
        """Kernels without a ledger-aware path see the counting context."""
        a = np.linspace(1.0, 2.0, 5)
        src = _counting()
        ctx = _counted(_counting())
        np.testing.assert_array_equal(ctx.mul(a, a), src.mul(a, a))
        assert ctx.runtime.snapshot()["ops"] == src.runtime.snapshot()["ops"]
        assert ctx.runtime.snapshot()["mem"] == src.runtime.snapshot()["mem"]


# ---------------------------------------------------------------------------
# the hydro block update
# ---------------------------------------------------------------------------
def _assert_update_identical(solver, block, src, dt=1e-4):
    counted = _counted(src)
    slow = solver.advance_block(block, dt, src)
    fast = solver.advance_block(block, dt, counted)
    for name in PRIMITIVE_VARS:
        np.testing.assert_array_equal(fast[name], slow[name], err_msg=name)
    assert counted.runtime.snapshot() == src.runtime.snapshot()
    assert src.runtime.ops.total > 0 or src.runtime.mem.total > 0


class TestCountedAdvance:
    @pytest.fixture(scope="class")
    def grid(self):
        return _grid(reconstruction="weno5")

    @pytest.mark.parametrize("scheme", ["pcm", "plm", "weno5"])
    @pytest.mark.parametrize("riemann", ["hll", "hllc", "hlle"])
    def test_advance_block_identical(self, grid, scheme, riemann):
        solver = HydroSolver(reconstruction=scheme, riemann=riemann, rk_stages=1)
        _assert_update_identical(solver, grid.blocks()[0], _counting())

    @pytest.mark.parametrize("rounding", list(RoundingMode.ALL))
    def test_advance_block_all_roundings(self, grid, rounding):
        _assert_update_identical(HydroSolver(rk_stages=1), grid.blocks()[1],
                                 _counting(BF16, rounding))

    @pytest.mark.parametrize("gravity", [(0.3, -1.0), (0.0, -1.0), (0.5, 0.0)])
    def test_advance_block_with_gravity(self, grid, gravity):
        _assert_update_identical(HydroSolver(rk_stages=1, gravity=gravity),
                                 grid.blocks()[0], _counting())

    def test_advance_block_binary64_and_bytes_only(self, grid):
        solver = HydroSolver(rk_stages=1)
        block = grid.blocks()[0]
        _assert_update_identical(solver, block,
                                 FullPrecisionContext(runtime=RaptorRuntime(), module="hydro"))
        _assert_update_identical(solver, block, _counting(count_ops=False))

    def test_other_block_shapes(self):
        grid = create_workload("sod", nxb=6, nyb=10, n_root_x=1, n_root_y=2,
                               max_level=1, t_end=0.01, rk_stages=1).build_grid()
        _assert_update_identical(HydroSolver(rk_stages=1), grid.blocks()[0], _counting())

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_counters_never_depend_on_the_data(self, seed):
        """The ledger is recorded on a uniform probe block; random (even
        unphysical) data must charge exactly the same counters."""
        grid = _grid(max_level=1)
        rng = np.random.default_rng(seed)
        block = grid.blocks()[0]
        for name in PRIMITIVE_VARS:
            block.data[name] = rng.normal(size=block.shape_with_guards)
        with np.errstate(all="ignore"):
            src = _counting()
            solver = HydroSolver(rk_stages=1)
            solver.advance_block(block, 1e-3, src)
            counted = _counted(_counting())
            solver.advance_block(block, 1e-3, counted)
        assert counted.runtime.snapshot() == src.runtime.snapshot()

    def test_ledger_is_recorded_once_per_signature(self, monkeypatch):
        monkeypatch.setattr(ledger, "_LEDGERS", {})
        grid = _grid()
        solver = HydroSolver(rk_stages=1)
        ctx = _counted(_counting())
        provider = lambda module, level=None, max_level=None: ctx
        solver._substep(grid, 1e-4, provider)
        recorded = dict(ledger._LEDGERS)
        assert len(recorded) == 1
        solver._substep(grid, 1e-4, provider)
        assert ledger._LEDGERS == recorded
        # another context kind or module is another ledger
        solver._substep(grid, 1e-4, lambda *a, **k: _counted(
            FullPrecisionContext(runtime=RaptorRuntime(), module="hydro")))
        assert len(ledger._LEDGERS) == 2


class TestCountedSubstep:
    """Batched stacks replay the ledger once per logical block."""

    def _run(self, ctx_factory, batch, monkeypatch=None):
        grid = _grid()
        solver = HydroSolver(rk_stages=1, batch_blocks=batch)
        ctx = ctx_factory()
        sizes = []
        if monkeypatch is not None:
            original = HydroSolver._advance_batched

            def spy(self, grid, group, dt, ctx):
                sizes.append(len(group))
                return original(self, grid, group, dt, ctx)

            monkeypatch.setattr(HydroSolver, "_advance_batched", spy)
        solver._substep(grid, 5e-4, lambda module, level=None, max_level=None: ctx)
        states = {key: {v: grid.leaves[key].interior_view(v).copy() for v in PRIMITIVE_VARS}
                  for key in grid.sorted_keys()}
        return states, ctx.runtime.snapshot(), sizes

    def test_batched_per_block_and_instrumented_agree(self, monkeypatch):
        base_states, base_snap, _ = self._run(_counting, batch=False)
        per_block = self._run(lambda: _counted(_counting()), batch=False)
        batched = self._run(lambda: _counted(_counting()), batch=True, monkeypatch=monkeypatch)
        assert max(batched[2]) > 1  # the stack really was batched
        for states, snap, _ in (per_block, batched):
            assert snap == base_snap
            for key in base_states:
                for var in PRIMITIVE_VARS:
                    np.testing.assert_array_equal(states[key][var], base_states[key][var])

    def test_mixed_truncated_and_full_levels(self):
        """An AMR cutoff policy hands both counted kinds to one substep."""

        def run(plane):
            grid = _grid()
            rt = RaptorRuntime()
            pol = AMRCutoffPolicy(TruncationConfig(targets={64: BF16}), cutoff=1,
                                  runtime=rt, plane=plane)
            HydroSolver(rk_stages=1)._substep(
                grid, 5e-4,
                lambda module, level=None, max_level=None: pol.context_for(
                    module=module, level=level, max_level=max_level),
            )
            return grid, rt.snapshot()

        grid_i, snap_i = run("instrumented")
        grid_a, snap_a = run("auto")
        assert snap_a == snap_i
        assert snap_i["ops"]["truncated"] > 0 and snap_i["ops"]["full"] > 0
        for key in grid_i.sorted_keys():
            for var in PRIMITIVE_VARS:
                np.testing.assert_array_equal(grid_a.leaves[key].data[var],
                                              grid_i.leaves[key].data[var])

    def test_error_tracking_stays_op_by_op(self):
        rt = RaptorRuntime()
        pol = GlobalPolicy(TruncationConfig(targets={64: BF16}, track_errors=True),
                           runtime=rt, plane="auto")
        ctx = pol.context_for("hydro")
        assert not ctx.ledger
        HydroSolver(rk_stages=1)._substep(_grid(max_level=1), 1e-4, lambda *a, **k: ctx)
        assert rt.snapshot()["locations"]


# ---------------------------------------------------------------------------
# whole workloads through the engine
# ---------------------------------------------------------------------------
def test_instrumented_reference_stays_op_by_op(monkeypatch):
    """``reference(plane="instrumented")`` is the op-by-op baseline; the
    default counting reference rides the counted plane, same counters."""
    counted = create_workload("sod", **TINY_COMPRESSIBLE).reference()

    def refuse(*args, **kwargs):
        raise AssertionError("the instrumented plane replayed a ledger")

    monkeypatch.setattr("repro.hydro.solver.ledger_for", refuse)
    instrumented = create_workload("sod", **TINY_COMPRESSIBLE).reference(plane="instrumented")
    assert instrumented.snapshot() == counted.snapshot()
    assert instrumented.runtime.ops.full > 0
    for key in counted.state:
        np.testing.assert_array_equal(instrumented.state[key], counted.state[key])


def _sweep(plane, policies):
    return run_sweep(SweepSpec(
        workloads=list(TINY_CONFIGS),
        formats=["bf16"],
        policies=policies,
        workload_configs=TINY_CONFIGS,
        plane=plane,
    ))


class TestCountedWorkloads:
    @pytest.mark.parametrize("policies", [
        [PolicySpec.everywhere(modules=("hydro", "eos", "advection", "diffusion"))],
        [PolicySpec.none(), PolicySpec.amr_cutoff(1, modules=("hydro",))],
    ], ids=["truncate-all", "none+cutoff"])
    def test_all_seven_workloads_identical_through_run_sweep(self, policies):
        instrumented = _sweep("instrumented", policies)
        counted = _sweep("auto", policies)
        assert not instrumented.failures and not counted.failures
        assert len(counted.points) == len(instrumented.points)
        assert {p.workload for p in counted.points} == set(TINY_CONFIGS)
        for a, b in zip(instrumented.points, counted.points):
            assert b.metrics_key() == a.metrics_key()
            assert b.runtime_snapshot == a.runtime_snapshot
        assert counted.rollup().snapshot() == instrumented.rollup().snapshot()
        assert counted.rollup().ops.total > 0

    @pytest.mark.parametrize("workload", ["sod", "rayleigh-taylor", "cellular", "bubble"])
    def test_find_cliff_identical(self, workload):
        kwargs = dict(config_kwargs=TINY_CONFIGS[workload],
                      min_man_bits=4, max_man_bits=20, exp_bits=8)
        instrumented = find_cliff(workload, **kwargs, plane="instrumented")
        counted = find_cliff(workload, **kwargs, plane="auto")
        assert counted.cliff_man_bits == instrumented.cliff_man_bits
        key = lambda c: [(e.man_bits, e.error, e.passed, e.truncated_fraction)
                         for e in c.evaluations]
        assert key(counted) == key(instrumented)



# ---------------------------------------------------------------------------
# the bubble operators
# ---------------------------------------------------------------------------
def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _counting_in(module, fmt=E8M10):
    """Instrumented counting contexts of ``module``: truncating and binary64."""
    return (TruncatedContext(fmt, runtime=RaptorRuntime(), module=module),
            FullPrecisionContext(runtime=RaptorRuntime(), module=module))


def _assert_call_identical(call, src):
    """``call(ctx)`` under instrumented ``src`` and under its counted twin:
    bitwise the same result and a byte-identical runtime snapshot."""
    counted = _counted(src)
    with np.errstate(all="ignore"):
        want = np.array(call(src), dtype=np.float64)
        got = np.array(call(counted), dtype=np.float64)
    assert np.array_equal(_bits(got), _bits(want))
    assert counted.runtime.snapshot() == src.runtime.snapshot()
    assert src.runtime.ops.total > 0


def _bubble_solver(scheme, seed):
    """A small bubble solver with random fields: velocities of both signs
    (so every upwind selection goes both ways) and a random level set."""
    solver = BubbleSolver(BubbleConfig(nx=10, ny=14, xlim=(-1.0, 1.0), ylim=(-1.0, 2.0),
                                       advection_scheme=scheme))
    rng = np.random.default_rng(seed)
    shape = solver.velx.shape
    solver.velx = rng.normal(size=shape)
    solver.vely = rng.normal(size=shape)
    solver.levelset.phi = rng.normal(size=shape)
    solver._pending_dt = 1e-3
    return solver, rng.uniform(1e-3, 1.0, size=shape)


class TestCountedBubble:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           scheme=st.sampled_from(["weno5", "upwind"]),
           which=st.sampled_from(["u", "v"]))
    def test_operator_ledgers_never_depend_on_the_data(self, seed, scheme, which):
        """Each operator's ledger is recorded on the first example's data;
        every later example replays it on other random fields."""
        solver, mu = _bubble_solver(scheme, seed)
        field = solver.velx if which == "u" else solver.vely
        calls = [  # (module, operator call)
            ("advection", lambda c: solver.advection_term(field, c, which)),
            ("diffusion", lambda c: solver.diffusion_term(field, mu, c, which)),
            ("advection", lambda c: solver._advect_levelset(c)),
        ]
        for module, call in calls:
            for src in _counting_in(module):
                _assert_call_identical(call, src)

    @pytest.mark.parametrize("rounding", list(RoundingMode.ALL))
    def test_operators_all_roundings(self, rounding):
        solver, _ = _bubble_solver("weno5", 7)
        src = TruncatedContext(BF16, runtime=RaptorRuntime(), module="advection",
                               rounding=rounding)
        _assert_call_identical(lambda c: solver.advection_term(solver.velx, c, "u"), src)

    @pytest.mark.parametrize("cutoff", [0, 1, 2])
    def test_cutoff_blends_identical(self, cutoff):
        """M - l cutoffs blend truncated and full-precision cells: the
        truncated operator still runs on the whole grid."""
        outcomes = {}
        for plane in ("instrumented", "auto"):
            rt = RaptorRuntime()
            pol = AMRCutoffPolicy(TruncationConfig(targets={64: E8M10}), cutoff=cutoff,
                                  modules=("advection", "diffusion"), runtime=rt, plane=plane)
            outcomes[plane] = create_workload("bubble", **TINY_CONFIGS["bubble"]).run(
                policy=pol, runtime=rt)
        a, b = outcomes["instrumented"], outcomes["auto"]
        for key in a.state:
            assert np.array_equal(_bits(b.state[key]), _bits(a.state[key])), key
        assert b.snapshot() == a.snapshot()
        assert a.runtime.ops.truncated > 0


# ---------------------------------------------------------------------------
# the cellular EOS and burn network
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def table():
    return HelmholtzTable()


def _newton_problem(table, n=12):
    rho = np.geomspace(2e5, 5e7, n)
    temp = np.geomspace(3e8, 4e9, n)
    return rho, temp, np.asarray(table.energy(rho, temp))


#: wide enough that the Newton tolerance is reachable
E11M50 = FPFormat(exp_bits=11, man_bits=50)


#: stalled truncated solves of ``_newton_problem(table, cells)`` from a
#: 1.5x guess: (cells, mantissa bits, relaxation, the (first, k) of the
#: first iterate k that repeats iterate ``first`` bitwise, or None when
#: none repeats within 40 iterations)
STALLED_SOLVES = [
    pytest.param(3, 19, 1.0, (4, 5), id="fixed-point"),
    pytest.param(12, 17, 0.7, (12, 13), id="fixed-point-relaxed"),
    pytest.param(12, 10, 1.0, (1, 3), id="2-cycle"),
    pytest.param(12, 13, 0.7, (17, 19), id="2-cycle-relaxed"),
    pytest.param(12, 12, 1.0, None, id="no-repeat"),
    pytest.param(12, 12, 0.7, None, id="no-repeat-relaxed"),
]


class TestCountedNewton:
    def _assert_solve_identical(self, table, src, guess, config, cells=12):
        """The solve under instrumented ``src``, its counted twin and, for a
        truncating ``src``, the fast truncating plane: the same result
        bitwise, and byte-identical counters on the counted plane."""
        rho, _, target = _newton_problem(table, cells)
        counted = _counted(src)
        # a stalled low-precision solve divides by a zero derivative
        with np.errstate(divide="ignore", invalid="ignore"):
            want = invert_energy(table, rho, target, guess, config, src)
            got = [invert_energy(table, rho, target, guess, config, counted)]
            if src.truncating:
                fast = TruncFastPlaneContext.from_context(src)
                got.append(invert_energy(table, rho, target, guess, config, fast))
        for result in got:
            assert np.array_equal(_bits(result.temperature), _bits(want.temperature))
            assert (result.iterations, result.converged, result.max_residual,
                    result.residual_history) == (want.iterations, want.converged,
                                                 want.max_residual, want.residual_history)
        assert counted.runtime.snapshot() == src.runtime.snapshot()
        return want

    @pytest.mark.parametrize("cells,man_bits,relaxation,repeat", STALLED_SOLVES)
    def test_stalled_solves_replay_their_cycle(self, table, monkeypatch, cells, man_bits,
                                               relaxation, repeat):
        """The fused planes replay a cycling solve's tail, to the bits and
        counters of iterating it out; the limits include the repeat landing
        on the last iteration (nothing left to replay) and one before it."""
        replays = []
        real = newton._replay_tail
        monkeypatch.setattr(newton, "_replay_tail", lambda iterates, history, first, *rest: (
            replays.append((first, len(iterates) - 1))
            or real(iterates, history, first, *rest)))
        _, temp, _ = _newton_problem(table, cells)
        limits = [40] if repeat is None else [repeat[1], repeat[1] + 1, 40]
        for max_iterations in limits:
            config = NewtonSolverConfig(relaxation=relaxation, max_iterations=max_iterations)
            src = TruncatedContext(FPFormat(8, man_bits), runtime=RaptorRuntime(), module="eos")
            replays.clear()
            result = self._assert_solve_identical(table, src, temp * 1.5, config, cells)
            assert not result.converged and result.iterations == max_iterations
            # once per fused plane (counted and fast truncating)
            fired = repeat is not None and max_iterations > repeat[1]
            assert replays == ([repeat] * 2 if fired else [])

    def test_cycling_solve_skips_its_tail(self, table, monkeypatch):
        """A solve that cycles evaluates fewer residuals than it reports
        iterations, so the tail replay cannot silently stop firing."""
        calls = []
        real = keos.NewtonSteps.residual
        monkeypatch.setattr(keos.NewtonSteps, "residual",
                            lambda steps, temp: calls.append(1) or real(steps, temp))
        rho, temp, target = _newton_problem(table)
        config = NewtonSolverConfig()
        src = TruncatedContext(E8M10, runtime=RaptorRuntime(), module="eos")
        for ctx in (_counted(src), TruncFastPlaneContext.from_context(src)):
            calls.clear()
            with np.errstate(divide="ignore", invalid="ignore"):
                result = invert_energy(table, rho, target, temp * 1.5, config, ctx)
            assert not result.converged and result.iterations == config.max_iterations
            assert 0 < len(calls) < config.max_iterations

    def test_converges_at_the_first_iteration(self, table):
        _, temp, _ = _newton_problem(table)
        for src in _counting_in("eos", E11M50):
            result = self._assert_solve_identical(table, src, temp, NewtonSolverConfig())
            assert result.converged and result.iterations == 1

    @pytest.mark.parametrize("relaxation", [1.0, 0.7])
    def test_converges_midway(self, table, relaxation):
        _, temp, _ = _newton_problem(table)
        config = NewtonSolverConfig(relaxation=relaxation)
        for src in _counting_in("eos", E11M50):
            result = self._assert_solve_identical(table, src, temp * 1.5, config)
            assert result.converged and 1 < result.iterations < config.max_iterations

    def test_never_converges(self, table):
        _, temp, _ = _newton_problem(table)
        config = NewtonSolverConfig(max_iterations=8)
        for fmt in (E8M10, BF16):
            src = TruncatedContext(fmt, runtime=RaptorRuntime(), module="eos")
            result = self._assert_solve_identical(table, src, temp * 1.5, config)
            assert not result.converged and result.iterations == config.max_iterations

    def test_bytes_only_contexts(self, table):
        """``track_memory`` without ``count_ops``: the ledgers carry bytes only."""
        _, temp, _ = _newton_problem(table)
        src = TruncatedContext(E8M10, runtime=RaptorRuntime(), module="eos", count_ops=False)
        self._assert_solve_identical(table, src, temp * 1.5, NewtonSolverConfig(max_iterations=5))
        assert src.runtime.ops.total == 0 and src.runtime.mem.truncated > 0
        solver, mu = _bubble_solver("upwind", 3)
        src = TruncatedContext(E8M10, runtime=RaptorRuntime(), module="diffusion",
                               count_ops=False)
        counted = _counted(src)
        solver.diffusion_term(solver.velx, mu, src, "u")
        solver.diffusion_term(solver.velx, mu, counted, "u")
        assert counted.runtime.snapshot() == src.runtime.snapshot()
        assert src.runtime.mem.truncated > 0

    def test_table_lookups_identical(self, table):
        rho, temp, _ = _newton_problem(table)
        calls = (lambda c: table.pressure(rho, temp, c),
                 lambda c: table.energy_derivative(rho, temp, c),
                 lambda c: table.energy(3e6, 2e9, c))  # scalars
        for call in calls:
            for src in _counting_in("eos"):
                _assert_call_identical(call, src)

    @given(
        shape=st.sampled_from([(), (5,), (3, 5)]),
        rounding=st.sampled_from(RoundingMode.ALL),
        man_bits=st.integers(min_value=2, max_value=52),
        log_rho=st.lists(st.floats(2.0, 10.0), min_size=5, max_size=5),
        log_temp=st.lists(st.floats(6.0, 11.0), min_size=15, max_size=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_bilinear_matches_op_by_op(self, table, shape, rounding, man_bits,
                                               log_rho, log_temp):
        """The stacked twin against the op-by-op ``TruncatedContext`` path,
        at points inside the table and clamped outside it: 0-d, 1-D and a
        ``(3, n)`` temperature stack over 1-D densities."""
        rho = 10.0 ** np.array(log_rho[:shape[-1]] if shape else log_rho[0])
        temp = 10.0 ** np.array(log_temp[:int(np.prod(shape))]).reshape(shape)
        fmt = FPFormat(exp_bits=8, man_bits=man_bits)
        ctx = TruncatedContext(fmt, runtime=RaptorRuntime(), module="eos", rounding=rounding)
        with np.errstate(all="ignore"):
            want = table._bilinear(table.energy_table, rho, temp, ctx)
            got = keos.bilinear(table, table.energy_table, rho, temp, fused_rounder(
                TruncFastPlaneContext.from_context(ctx)))
        assert np.shape(got) == np.shape(want) == np.broadcast_shapes(rho.shape, shape)
        assert np.array_equal(_bits(got), _bits(want))

    def test_burn_network_identical(self):
        network = CarbonBurnNetwork(rate_prefactor=1e9, activation_t9=10.0)
        fuel = np.linspace(0.2, 1.0, 9)
        temp = np.geomspace(3e8, 5e9, 9)
        for src in _counting_in("burn"):
            _assert_call_identical(lambda c: network.burn(fuel, temp, 1e-7, c)[1], src)


def _module_run(name, policy):
    with np.errstate(divide="ignore", invalid="ignore"):
        return create_workload(name, **TINY_CONFIGS[name]).run(policy=policy,
                                                               runtime=policy.runtime)


class TestCountedScenarios:
    @pytest.mark.parametrize("name,modules", [
        ("bubble", ("advection", "diffusion")),
        ("cellular", ("eos",)),
    ])
    def test_ledgers_are_recorded_once_per_signature(self, monkeypatch, name, modules):
        monkeypatch.setattr(ledger, "_LEDGERS", {})
        cfg = TruncationConfig(targets={64: E8M10})
        _module_run(name, ModulePolicy(cfg, modules=modules, runtime=RaptorRuntime()))
        recorded = dict(ledger._LEDGERS)
        kinds = {key[0][1] for key in recorded}
        expected = {
            "bubble": {"advection", "diffusion", "levelset"},
            "cellular": {"bilinear", "newton-residual", "newton-update", "network"},
        }[name]
        assert kinds >= expected
        # another width, same op streams: nothing new is recorded
        cfg = TruncationConfig(targets={64: BF16})
        _module_run(name, ModulePolicy(cfg, modules=modules, runtime=RaptorRuntime()))
        assert ledger._LEDGERS == recorded

    @pytest.mark.parametrize("name,modules", [
        ("bubble", ("advection", "diffusion")),
        ("cellular", ("eos",)),
    ])
    def test_error_tracking_stays_op_by_op(self, monkeypatch, name, modules):
        real = ledger.ledger_for

        def guarded(key, ctx, run):
            # the untruncated burn network may still ride its ledger
            assert ctx.module not in modules, "an error-tracking context replayed a ledger"
            return real(key, ctx, run)

        rt = RaptorRuntime()
        cfg = TruncationConfig(targets={64: E8M10}, track_errors=True)
        pol = ModulePolicy(cfg, modules=modules, runtime=rt, plane="auto")
        assert not pol.context_for(modules[0]).ledger
        monkeypatch.setattr("repro.kernels.ledger.ledger_for", guarded)
        monkeypatch.setattr("repro.eos.newton.ledger_for", guarded)
        _module_run(name, pol)
        assert rt.snapshot()["locations"]


# ---------------------------------------------------------------------------
# the rounder-selection rule of the helper-level call sites
# ---------------------------------------------------------------------------
#: the helper-level call sites, by name
HELPER_SITES = (
    "eos.sound_speed", "eos.internal_energy_from_pressure",
    "eos.pressure_from_internal_energy", "eos.total_energy",
    "eos.pressure_from_total_energy",
    *(f"riemann.{name}" for name in sorted(SOLVERS)),
    *(f"reconstruct.{scheme}" for scheme in sorted(fused.FUSED_SCHEMES)),
    "bubble._upwind_derivative", "bubble._weno5_derivative",
)


@functools.lru_cache(maxsize=None)
def _helper_sites():
    """``name -> (owner, attribute, call)`` per helper-level call site:
    ``call(ctx)`` evaluates the site, which dispatches to ``owner.attribute``
    (a module or a dict) on a fused fast plane."""
    rng = np.random.default_rng(17)
    rep = lambda a: np.asarray(quantize(a, E8M10))
    dens, pres = rep(rng.uniform(0.1, 2.0, 24)), rep(rng.uniform(0.1, 2.0, 24))
    velx, vely = rep(rng.normal(size=24)), rep(rng.normal(size=24))
    momx, momy = rep(dens * velx), rep(dens * vely)
    ener = rep(rng.uniform(2.0, 4.0, 24))
    eos = GammaLawEOS()
    face = lambda: {"dens": rep(rng.uniform(0.1, 2.0, 24)), "velx": rep(rng.normal(size=24)),
                    "vely": rep(rng.normal(size=24)), "pres": rep(rng.uniform(0.1, 2.0, 24))}
    left, right = face(), face()
    field = rep(rng.normal(size=(16, 16)) + 2.0)
    solver, _ = _bubble_solver("weno5", 3)
    bfield, bvel = rep(solver.velx), rep(solver.vely)
    sites = [
        ("eos.sound_speed", flux, "eos_sound_speed",
         lambda c: eos.sound_speed(dens, pres, c)),
        ("eos.internal_energy_from_pressure", flux, "eos_internal_energy",
         lambda c: eos.internal_energy_from_pressure(dens, pres, c)),
        ("eos.pressure_from_internal_energy", flux, "eos_pressure_from_internal_energy",
         lambda c: eos.pressure_from_internal_energy(dens, pres, c)),
        ("eos.total_energy", flux, "eos_total_energy",
         lambda c: eos.total_energy(dens, velx, vely, pres, c)),
        ("eos.pressure_from_total_energy", flux, "eos_pressure_from_total_energy",
         lambda c: eos.pressure_from_total_energy(dens, momx, momy, ener, c)),
    ]
    for name in sorted(SOLVERS):
        sites.append((f"riemann.{name}", flux, f"{name}_flux",
                      lambda c, name=name: SOLVERS[name](left, right, eos, c)))
    for scheme in sorted(fused.FUSED_SCHEMES):
        sites.append((f"reconstruct.{scheme}", fused.FUSED_SCHEMES, scheme,
                      lambda c, scheme=scheme: reconstruct(field, 1, 3, 9, c, scheme)))
    sites += [
        ("bubble._upwind_derivative", kbubble, "upwind_derivative",
         lambda c: solver._upwind_derivative(bfield, bvel, 0.1, 0, c, "u")),
        ("bubble._weno5_derivative", kbubble, "weno5_derivative",
         lambda c: solver._weno5_derivative(bfield, bvel, 0.1, 1, c, "v")),
    ]
    assert tuple(name for name, *_ in sites) == HELPER_SITES
    return {name: (owner, attr, call) for name, owner, attr, call in sites}


def _spy(monkeypatch, owner, attr):
    """Record the rounder of every call of ``owner[attr]`` / ``owner.attr``."""
    rounders = []
    real = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

    def spy(*args, **kwargs):
        rounders.append(kwargs.get("q"))
        return real(*args, **kwargs)

    if isinstance(owner, dict):
        monkeypatch.setitem(owner, attr, spy)
    else:
        monkeypatch.setattr(owner, attr, spy)
    return rounders


def _flat(result):
    """One array of a site's result (an array, a face-state pair or a flux
    dict)."""
    if isinstance(result, dict):
        return np.concatenate([np.ravel(result[k]) for k in sorted(result)])
    if isinstance(result, tuple):
        return np.concatenate([np.ravel(r) for r in result])
    return np.ravel(result)


class TestRounderSelection:
    @pytest.mark.parametrize("site", HELPER_SITES)
    @pytest.mark.parametrize("kind", ["trunc", "b64"])
    def test_counted_contexts_count_helpers_op_by_op(self, monkeypatch, site, kind):
        """A counted context never takes the fused kernel of a helper-level
        site: it counts every op there, exactly like the instrumented one."""
        owner, attr, call = _helper_sites()[site]
        src = _counting() if kind == "trunc" else FullPrecisionContext(runtime=RaptorRuntime())
        counted = _counted(src)
        rounders = _spy(monkeypatch, owner, attr)
        with np.errstate(all="ignore"):
            want = _flat(call(src))
            got = _flat(call(counted))
        assert rounders == []
        assert np.array_equal(_bits(got), _bits(want))
        assert counted.runtime.snapshot() == src.runtime.snapshot()
        # pcm only moves data: nothing to count
        assert (src.runtime.ops.total > 0) == (site != "reconstruct.pcm")

    @pytest.mark.parametrize("site", HELPER_SITES)
    @pytest.mark.parametrize("rounding", [RoundingMode.NEAREST_EVEN, RoundingMode.UP])
    def test_fast_contexts_take_the_rounder_path(self, monkeypatch, site, rounding):
        owner, attr, call = _helper_sites()[site]
        rounders = _spy(monkeypatch, owner, attr)
        fast_b64 = FastPlaneContext()
        with np.errstate(all="ignore"):
            want = _flat(call(FullPrecisionContext(count_ops=False, track_memory=False)))
            got = _flat(call(fast_b64))
        assert rounders == [EXACT]
        assert np.array_equal(_bits(got), _bits(want))

        rounders.clear()
        fast_trunc = TruncFastPlaneContext(E8M10, rounding=rounding)
        with np.errstate(all="ignore"):
            want = _flat(call(_counting(rounding=rounding)))
            got = _flat(call(fast_trunc))
        assert len(rounders) == 1 and isinstance(rounders[0], Round)
        assert (rounders[0].fmt, rounders[0].rounding) == (E8M10, rounding)
        assert np.array_equal(_bits(got), _bits(want))

    def test_the_two_predicates(self):
        """Helper-level sites (``plane_rounder``) leave counted contexts op
        by op; whole-update sites (``fused_rounder``) give them the rounder
        of their fused twin."""
        trunc_src, b64_src = _counting(BF16, RoundingMode.DOWN), FullPrecisionContext(
            runtime=RaptorRuntime())
        for src in (trunc_src, b64_src):
            assert plane_rounder(src) is None
            assert plane_rounder(_counted(src)) is None
        assert plane_rounder(FastPlaneContext()) is EXACT
        assert fused_rounder(_counted(b64_src)) is EXACT
        assert fused_rounder(FastPlaneContext()) is EXACT
        for ctx in (_counted(trunc_src), TruncFastPlaneContext(BF16, rounding=RoundingMode.DOWN)):
            q = fused_rounder(ctx)
            assert isinstance(q, Round) and (q.fmt, q.rounding) == (BF16, RoundingMode.DOWN)
