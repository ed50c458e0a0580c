"""Bit-identity tests for the fused flux pipeline (repro.kernels.flux)
and the scratch-workspace machinery (repro.kernels.scratch).

The load-bearing contracts:

* every fused EOS helper, wave-speed estimate and Riemann solver is
  **bitwise identical** to its instrumented op-by-op twin on binary64 data;
* threading a :class:`Workspace` (``out=`` chaining) through any fused
  kernel never changes a single bit, reuses its buffers across calls, and
  never writes into caller-owned arrays;
* the batched ``(nblocks, nx, ny)`` block stepping is bit-identical to the
  per-block loop, and all three Riemann solver names dispatch correctly on
  both kernel planes.
"""
import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FullPrecisionContext, RaptorRuntime
from repro.hydro.eos import GammaLawEOS
from repro.hydro.riemann import (
    SOLVERS,
    _einfeldt_wave_speeds,
    _wave_speeds,
    hll_flux,
    hllc_flux,
    hlle_flux,
)
from repro.hydro.solver import HydroSolver
from repro.kernels import FastPlaneContext, flux, fused
from repro.kernels.scratch import Workspace

GAMMA = 1.4
COMPONENTS = ("dens", "momn", "momt", "ener")


def _slow():
    return FullPrecisionContext(runtime=RaptorRuntime())


positive_arrays = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=1, max_size=12
).map(lambda xs: np.asarray(xs, dtype=np.float64))

velocity_lists = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=12
)


@st.composite
def face_states(draw):
    """A pair of physically plausible left/right primitive face states."""
    n = draw(st.integers(min_value=1, max_value=12))
    arr = lambda lo, hi: np.asarray(
        draw(st.lists(st.floats(min_value=lo, max_value=hi, allow_nan=False),
                      min_size=n, max_size=n)),
        dtype=np.float64,
    )
    mk = lambda: {
        "dens": arr(1e-3, 1e3),
        "velx": arr(-10.0, 10.0),
        "vely": arr(-10.0, 10.0),
        "pres": arr(1e-3, 1e3),
    }
    return mk(), mk()


class TestFusedEOSHelpers:
    @given(dens=positive_arrays, pres=positive_arrays)
    @settings(max_examples=50, deadline=None)
    def test_sound_speed_and_internal_energy(self, dens, pres):
        n = min(dens.size, pres.size)
        dens, pres = dens[:n], pres[:n]
        eos = GammaLawEOS(gamma=GAMMA)
        slow = _slow()
        np.testing.assert_array_equal(
            flux.eos_sound_speed(dens, pres, GAMMA), eos.sound_speed(dens, pres, slow)
        )
        np.testing.assert_array_equal(
            flux.eos_internal_energy(dens, pres, GAMMA),
            eos.internal_energy_from_pressure(dens, pres, slow),
        )
        np.testing.assert_array_equal(
            flux.eos_pressure_from_internal_energy(dens, pres, GAMMA, eos.pressure_floor),
            eos.pressure_from_internal_energy(dens, pres, slow),
        )

    @given(state=face_states())
    @settings(max_examples=50, deadline=None)
    def test_total_energy_and_pressure_recovery(self, state):
        left, _ = state
        eos = GammaLawEOS(gamma=GAMMA)
        slow = _slow()
        dens, velx, vely, pres = (left[k] for k in ("dens", "velx", "vely", "pres"))
        ener_slow = eos.total_energy(dens, velx, vely, pres, slow)
        np.testing.assert_array_equal(
            flux.eos_total_energy(dens, velx, vely, pres, GAMMA), ener_slow
        )
        momx = dens * velx
        momy = dens * vely
        np.testing.assert_array_equal(
            flux.eos_pressure_from_total_energy(
                dens, momx, momy, ener_slow, GAMMA, eos.pressure_floor, eos.density_floor
            ),
            eos.pressure_from_total_energy(dens, momx, momy, ener_slow, slow),
        )

    def test_gamma_law_eos_dispatches_fused_on_fast_plane(self):
        """Every GammaLawEOS helper rides the fused twin under a fused
        context — same bits as the instrumented evaluation."""
        rng = np.random.default_rng(7)
        dens = rng.uniform(0.1, 2.0, 32)
        pres = rng.uniform(0.1, 2.0, 32)
        velx = rng.normal(size=32)
        vely = rng.normal(size=32)
        eos = GammaLawEOS()
        slow, fast = _slow(), FastPlaneContext()
        pairs = [
            (eos.sound_speed(dens, pres, slow), eos.sound_speed(dens, pres, fast)),
            (eos.internal_energy_from_pressure(dens, pres, slow),
             eos.internal_energy_from_pressure(dens, pres, fast)),
            (eos.pressure_from_internal_energy(dens, pres, slow),
             eos.pressure_from_internal_energy(dens, pres, fast)),
            (eos.total_energy(dens, velx, vely, pres, slow),
             eos.total_energy(dens, velx, vely, pres, fast)),
            (eos.pressure_from_total_energy(dens, dens * velx, dens * vely, pres, slow),
             eos.pressure_from_total_energy(dens, dens * velx, dens * vely, pres, fast)),
        ]
        for expected, got in pairs:
            np.testing.assert_array_equal(got, expected)


class TestFusedWaveSpeeds:
    @given(state=face_states())
    @settings(max_examples=50, deadline=None)
    def test_davis_estimates_bitwise(self, state):
        left, right = state
        eos = GammaLawEOS(gamma=GAMMA)
        sl_s, sr_s = _wave_speeds(left, right, eos, _slow())
        for ws in (None, Workspace()):
            sl_f, sr_f = flux.davis_wave_speeds(left, right, GAMMA, ws=ws)
            np.testing.assert_array_equal(sl_f, sl_s)
            np.testing.assert_array_equal(sr_f, sr_s)

    @given(state=face_states())
    @settings(max_examples=50, deadline=None)
    def test_einfeldt_estimates_bitwise(self, state):
        left, right = state
        eos = GammaLawEOS(gamma=GAMMA)
        sl_s, sr_s = _einfeldt_wave_speeds(left, right, eos, _slow())
        for ws in (None, Workspace()):
            sl_f, sr_f = flux.einfeldt_wave_speeds(left, right, GAMMA, ws=ws)
            np.testing.assert_array_equal(sl_f, sl_s)
            np.testing.assert_array_equal(sr_f, sr_s)


class TestFusedRiemannSolvers:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    @given(state=face_states())
    @settings(max_examples=40, deadline=None)
    def test_fluxes_bitwise_with_and_without_workspace(self, name, state):
        left, right = state
        eos = GammaLawEOS(gamma=GAMMA)
        expected = SOLVERS[name](left, right, eos, _slow())
        for ws in (None, Workspace()):
            got = flux.FUSED_SOLVERS[name](left, right, GAMMA, ws=ws)
            for comp in COMPONENTS:
                np.testing.assert_array_equal(got[comp], expected[comp], err_msg=f"{name}:{comp}")

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_solver_names_dispatch_on_both_planes(self, name):
        """All three registered solver names produce identical fluxes
        through the instrumented context and the fused fast plane."""
        rng = np.random.default_rng(11)
        mk = lambda: {
            "dens": rng.uniform(0.1, 2.0, 48),
            "velx": rng.normal(0, 2, 48),
            "vely": rng.normal(0, 2, 48),
            "pres": rng.uniform(0.1, 2.0, 48),
        }
        left, right = mk(), mk()
        eos = GammaLawEOS()
        slow_flux = SOLVERS[name](left, right, eos, _slow())
        fast_flux = SOLVERS[name](left, right, eos, FastPlaneContext())
        for comp in COMPONENTS:
            np.testing.assert_array_equal(fast_flux[comp], slow_flux[comp], err_msg=comp)

    def test_hlle_is_a_distinct_solver(self):
        """hlle must no longer alias hll: the Einfeldt wave speeds give a
        genuinely different (less diffusive) flux."""
        assert SOLVERS["hlle"] is hlle_flux
        assert SOLVERS["hll"] is hll_flux
        assert SOLVERS["hllc"] is hllc_flux
        assert len({id(fn) for fn in SOLVERS.values()}) == 3
        rng = np.random.default_rng(3)
        mk = lambda: {
            "dens": rng.uniform(0.5, 2.0, 64),
            "velx": rng.normal(0, 1, 64),
            "vely": rng.normal(0, 1, 64),
            "pres": rng.uniform(0.5, 2.0, 64),
        }
        left, right = mk(), mk()
        eos = GammaLawEOS()
        a = hll_flux(left, right, eos, _slow())
        b = hlle_flux(left, right, eos, _slow())
        assert any(not np.array_equal(a[c], b[c]) for c in COMPONENTS)

    def test_workspace_reuse_allocates_nothing_after_first_call(self):
        rng = np.random.default_rng(5)
        mk = lambda: {
            "dens": rng.uniform(0.1, 2.0, 32),
            "velx": rng.normal(0, 1, 32),
            "vely": rng.normal(0, 1, 32),
            "pres": rng.uniform(0.1, 2.0, 32),
        }
        left, right = mk(), mk()
        ws = Workspace()
        first = flux.hllc_flux(left, right, GAMMA, ws=ws)
        first = {c: first[c].copy() for c in first}
        misses_after_first = ws.misses
        assert misses_after_first > 0
        again = flux.hllc_flux(left, right, GAMMA, ws=ws)
        assert ws.misses == misses_after_first  # steady state: zero allocations
        assert ws.hits > 0
        for comp in COMPONENTS:
            np.testing.assert_array_equal(again[comp], first[comp])

    def test_poisoned_workspace_does_not_leak_into_results(self):
        """Scratch contents must never influence a kernel's output."""
        rng = np.random.default_rng(9)
        mk = lambda: {
            "dens": rng.uniform(0.1, 2.0, 16),
            "velx": rng.normal(0, 1, 16),
            "vely": rng.normal(0, 1, 16),
            "pres": rng.uniform(0.1, 2.0, 16),
        }
        left, right = mk(), mk()
        ws = Workspace()
        clean = flux.hll_flux(left, right, GAMMA, ws=ws)
        clean = {c: clean[c].copy() for c in clean}
        for buf in ws._buffers.values():
            buf.fill(np.nan if buf.dtype == np.float64 else True)
        poisoned = flux.hll_flux(left, right, GAMMA, ws=ws)
        for comp in COMPONENTS:
            np.testing.assert_array_equal(poisoned[comp], clean[comp])

    def test_inputs_never_written(self):
        rng = np.random.default_rng(13)
        mk = lambda: {
            "dens": rng.uniform(0.1, 2.0, 24),
            "velx": rng.normal(0, 1, 24),
            "vely": rng.normal(0, 1, 24),
            "pres": rng.uniform(0.1, 2.0, 24),
        }
        left, right = mk(), mk()
        snap = {("L", k): v.copy() for k, v in left.items()}
        snap.update({("R", k): v.copy() for k, v in right.items()})
        for name in SOLVERS:
            flux.FUSED_SOLVERS[name](left, right, GAMMA, ws=Workspace())
        for k, v in left.items():
            np.testing.assert_array_equal(v, snap[("L", k)])
        for k, v in right.items():
            np.testing.assert_array_equal(v, snap[("R", k)])


finite_arrays = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=14, max_size=20
).map(lambda xs: np.asarray(xs, dtype=np.float64))


class TestScratchStencils:
    """out=-reusing reconstruction stencils: bit-identical, aliasing-safe."""

    @pytest.mark.parametrize("scheme", sorted(fused.FUSED_SCHEMES))
    @given(u=finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_stencils_with_workspace_bitwise(self, scheme, u):
        field = np.stack([np.roll(u, k) + 0.1 * k for k in range(14)])
        ng = 3
        for axis in (0, 1):
            nn = field.shape[axis] - 2 * ng - 1
            assert nn >= 7
            plain_l, plain_r = fused.FUSED_SCHEMES[scheme](field, axis, ng, nn)
            ws = Workspace()
            ws_l, ws_r = fused.FUSED_SCHEMES[scheme](field, axis, ng, nn, ws=ws, key=("t",))
            np.testing.assert_array_equal(ws_l, plain_l)
            np.testing.assert_array_equal(ws_r, plain_r)

    def test_weno5_edge_out_may_alias_an_input(self):
        """The final division reads only scratch, so ``out=`` may alias any
        input array — the aliasing-safety contract of the stencils."""
        rng = np.random.default_rng(21)
        rows = [rng.normal(size=32) + 2.0 for _ in range(5)]
        expected = fused.weno5_edge(*rows)
        aliased_input = rows[2].copy()
        got = fused.weno5_edge(rows[0], rows[1], aliased_input, rows[3], rows[4],
                               ws=Workspace(), key=("alias",), out=aliased_input)
        assert got is aliased_input
        np.testing.assert_array_equal(got, expected)

    def test_where_helper_aliasing(self):
        rng = np.random.default_rng(22)
        a, b = rng.normal(size=16), rng.normal(size=16)
        cond = a > 0
        expected = np.where(cond, a, b)
        # out is b: allowed fast path
        got = fused.where(cond, a, b.copy(), out=(out_b := b.copy()))
        np.testing.assert_array_equal(fused.where(cond, a, out_b, out=out_b), expected)
        np.testing.assert_array_equal(got, expected)
        # out overlaps a: falls back to an allocating where
        a2 = a.copy()
        np.testing.assert_array_equal(fused.where(cond, a2, b, out=a2), expected)
        # overlapping *views* are detected too — on either operand
        base = np.concatenate([a, b])
        np.testing.assert_array_equal(
            fused.where(cond, base[:16], b, out=base[8:24]), expected
        )
        base = np.concatenate([a, b])
        expected_b_overlap = np.where(cond, a, base[:16])
        np.testing.assert_array_equal(
            fused.where(cond, a, base[:16], out=base[8:24]), expected_b_overlap
        )

    def test_shift_handles_batched_arrays(self):
        """The stencil shift addresses the trailing two dims, so stacked
        blocks reconstruct exactly like each slice alone."""
        rng = np.random.default_rng(23)
        stack = rng.normal(size=(3, 14, 14)) + 2.0
        for scheme in ("plm", "weno5"):
            for axis in (0, 1):
                l_b, r_b = fused.FUSED_SCHEMES[scheme](stack, axis, 3, 7)
                for i in range(stack.shape[0]):
                    l_i, r_i = fused.FUSED_SCHEMES[scheme](stack[i], axis, 3, 7)
                    np.testing.assert_array_equal(l_b[i], l_i)
                    np.testing.assert_array_equal(r_b[i], r_i)


class TestWorkspace:
    def test_keying_and_stats(self):
        ws = Workspace()
        a = ws.out(("x",), (4, 4))
        b = ws.out(("x",), (4, 4))
        c = ws.out(("y",), (4, 4))
        d = ws.out(("x",), (4, 5))
        e = ws.out(("x",), (4, 4), bool)
        assert a is b and a is not c and a is not d
        assert e.dtype == np.bool_
        assert ws.misses == 4 and ws.hits == 1
        assert ws.n_buffers == 4
        assert ws.nbytes > 0
        ws.clear()
        assert ws.n_buffers == 0

    def test_pickle_and_deepcopy_drop_buffers(self):
        ws = Workspace()
        ws.out(("k",), (64, 64))
        assert ws.n_buffers == 1
        assert pickle.loads(pickle.dumps(ws)).n_buffers == 0
        assert copy.deepcopy(ws).n_buffers == 0

    def test_trim_drops_only_stale_buffers(self):
        ws = Workspace(max_bytes=4 * 8 * 100)  # room for four 100-element buffers
        for i in range(4):
            ws.out(("grow", i), (100,))
        assert not ws.trim() and ws.n_buffers == 4  # at the cap: kept
        live = ws.out(("grow", 4), (100,))  # over the cap, but fresh
        assert ws.trim() and ws.trims == 1
        # the four buffers untouched since the previous trim are gone; the
        # fresh one survives (an oversized working set is never thrashed)
        assert ws.n_buffers == 1
        assert ws.out(("grow", 4), (100,)) is live

    def test_trim_never_thrashes_a_live_working_set(self):
        ws = Workspace(max_bytes=1)
        bufs = [ws.out(("live", i), (100,)) for i in range(3)]
        assert not ws.trim()  # everything fresh: nothing to drop
        # the working set stays resident across trims as long as it is used
        for _ in range(3):
            for i in range(3):
                assert ws.out(("live", i), (100,)) is bufs[i]
            ws.trim()
        assert ws.n_buffers == 3 and ws.trims == 0

    def test_regridding_drops_stale_batch_families(self):
        """When refinement changes a level's fused group size, the buffer
        family of the old size goes stale and is trimmed — the pool tracks
        the current working set, not the history of every size ever seen."""
        workload = _sod_workload(max_level=3)
        grid = workload.build_grid()
        solver = workload.build_solver()
        solver._workspace.max_bytes = 1  # every family counts as over-cap
        ctx = FastPlaneContext()
        provider = lambda module, level=None, max_level=None: ctx

        solver._substep(grid, 1e-4, provider)
        before = solver._workspace.n_buffers
        # change the finest level's group size: its old stacked shape
        # becomes stale after one more substep and is dropped on the next
        grid.refine_block(grid.sorted_keys()[0])
        grid.fill_guard_cells()
        solver._substep(grid, 1e-4, provider)
        solver._substep(grid, 1e-4, provider)
        assert solver._workspace.trims > 0
        assert solver._workspace.n_buffers <= before + 2  # stacks for 2 changed levels

    def test_hostile_trimming_schedule_stays_bitwise(self):
        """max_bytes=1 trims every stale buffer before every substep — the
        most hostile schedule possible must not change a single bit."""

        def evolve(ctx, max_bytes=None):
            workload = _sod_workload(max_level=3, t_end=0.02)
            grid = workload.build_grid()
            solver = workload.build_solver()
            if max_bytes is not None:
                solver._workspace.max_bytes = max_bytes
            provider = lambda module, level=None, max_level=None: ctx
            solver.evolve(grid, t_end=0.02, provider=provider, regrid_interval=2)
            return solver, {
                key: grid.leaves[key].interior_view("dens").copy()
                for key in grid.sorted_keys()
            }

        trimmy, trimmed_state = evolve(FastPlaneContext(), max_bytes=1)
        # bounded by the current working set (levels currently present),
        # not by the history of every group size ever seen
        assert trimmy._workspace.nbytes <= 8 * 2 ** 20
        _, instrumented_state = evolve(_slow())
        assert set(trimmed_state) == set(instrumented_state)
        for key in instrumented_state:
            np.testing.assert_array_equal(
                trimmed_state[key], instrumented_state[key], err_msg=str(key)
            )


def _sod_workload(**overrides):
    from repro.workloads import create_workload

    cfg = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2,
               t_end=0.01, rk_stages=1)
    cfg.update(overrides)
    return create_workload("sod", **cfg)


class TestFusedAdvance:
    """The fully fused block update against the instrumented advance_block."""

    @pytest.fixture(scope="class")
    def grid_and_solver(self):
        workload = _sod_workload(reconstruction="weno5")
        return workload.build_grid(), workload.build_solver()

    @pytest.mark.parametrize("scheme", ["pcm", "plm", "weno5"])
    @pytest.mark.parametrize("riemann", ["hll", "hllc", "hlle"])
    def test_advance_block_bitwise(self, grid_and_solver, scheme, riemann):
        grid, _ = grid_and_solver
        solver = HydroSolver(reconstruction=scheme, riemann=riemann, rk_stages=1)
        block = grid.blocks()[0]
        slow = solver.advance_block(block, 1e-4, _slow())
        fast = solver.advance_block(block, 1e-4, FastPlaneContext())
        for name in slow:
            np.testing.assert_array_equal(fast[name], slow[name], err_msg=name)

    def test_advance_block_with_gravity_bitwise(self, grid_and_solver):
        grid, _ = grid_and_solver
        solver = HydroSolver(rk_stages=1, gravity=(0.3, -1.0))
        block = grid.blocks()[0]
        slow = solver.advance_block(block, 1e-4, _slow())
        fast = solver.advance_block(block, 1e-4, FastPlaneContext())
        for name in slow:
            np.testing.assert_array_equal(fast[name], slow[name], err_msg=name)

    def test_batched_advance_matches_per_block(self, grid_and_solver):
        grid, solver = grid_and_solver
        blocks = [b for b in grid.blocks() if b.level == grid.finest_level]
        assert len(blocks) > 1
        stacked = {
            name: np.stack([b.data[name] for b in blocks])
            for name in ("dens", "velx", "vely", "pres")
        }
        first = blocks[0]
        batched = solver._advance_fused(
            stacked, 1e-4, first.dx, first.dy, first.ng, first.nxb, first.nyb
        )
        for i, block in enumerate(blocks):
            single = solver.advance_block(block, 1e-4, FastPlaneContext())
            for name in single:
                np.testing.assert_array_equal(
                    batched[name][i], single[name], err_msg=f"block {i}: {name}"
                )

    @pytest.mark.parametrize("n_root", [2, 3])
    def test_substep_batched_vs_unbatched_vs_instrumented(self, n_root):
        """One full substep: batched fast plane == per-block fast plane ==
        instrumented, on a multi-level grid.  A 3x3 root grid is
        non-dyadic: block bounds make ``dx`` differ in the last bit within
        a level, so the cross-level stack must carry per-block spacings."""
        results = {}
        for label, batch, scratch, plane in (
            ("instrumented", False, False, "instrumented"),
            ("fast-perblock", False, False, "fast"),
            ("fast-noscratch", True, False, "fast"),
            ("fast-batched", True, True, "fast"),
        ):
            workload = _sod_workload(max_level=3, n_root_x=n_root, n_root_y=n_root)
            grid = workload.build_grid()
            solver = HydroSolver(rk_stages=1, batch_blocks=batch, scratch=scratch)
            ctx = FastPlaneContext() if plane == "fast" else _slow()
            solver._substep(grid, 5e-4, lambda module, level=None, max_level=None: ctx)
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

    def test_workspace_steady_state_no_allocations(self):
        workload = _sod_workload()
        grid = workload.build_grid()
        solver = workload.build_solver()
        assert solver._workspace is not None
        ctx = FastPlaneContext()
        provider = lambda module, level=None, max_level=None: ctx
        solver._substep(grid, 1e-4, provider)
        misses = solver._workspace.misses
        assert misses > 0
        solver._substep(grid, 1e-4, provider)
        assert solver._workspace.misses == misses
        assert solver._workspace.hits > 0


class TestEnvironmentKnobs:
    def test_env_switch_disables_scratch_not_batching(self, monkeypatch):
        monkeypatch.setenv("RAPTOR_FAST_NO_SCRATCH", "1")
        # batching has no environment switch (a stale one is ignored);
        # only HydroSolver(batch_blocks=False) advances block by block
        monkeypatch.setenv("RAPTOR_FAST_NO_BATCH", "1")
        solver = HydroSolver()
        assert solver._workspace is None
        assert solver.batch_blocks
        assert not HydroSolver(batch_blocks=False).batch_blocks
        from repro.incomp.solver import BubbleSolver

        assert BubbleSolver()._workspace is None

    def test_defaults_enable_scratch_and_batching(self, monkeypatch):
        monkeypatch.delenv("RAPTOR_FAST_NO_SCRATCH", raising=False)
        solver = HydroSolver()
        assert solver._workspace is not None
        assert solver.batch_blocks

    def test_disabled_paths_still_bitwise(self, monkeypatch):
        reference = _sod_workload().reference(plane="fast")
        monkeypatch.setenv("RAPTOR_FAST_NO_SCRATCH", "1")
        plain = _sod_workload().reference(plane="fast")
        assert plain.time == reference.time
        for key in reference.state:
            np.testing.assert_array_equal(plain.state[key], reference.state[key], err_msg=key)


class TestNonSquareBlocks:
    """``nxb != nyb``: the x and y sweeps cannot share one transposed stack,
    so the fused update keeps one sweep call per axis."""

    @staticmethod
    def _contexts(kind):
        """(instrumented, fused) context factories of one precision kind."""
        from repro.core import FPFormat, TruncatedContext
        from repro.kernels import TruncFastPlaneContext, select_context

        if kind == "binary64":
            return _slow, FastPlaneContext
        e8m10 = FPFormat(exp_bits=8, man_bits=10)

        def instrumented():
            return TruncatedContext(e8m10, runtime=RaptorRuntime())

        def counted():
            twin = select_context(instrumented(), "auto")
            assert twin.ledger
            twin.runtime = RaptorRuntime()
            return twin

        if kind == "e8m10":
            return instrumented, lambda: TruncFastPlaneContext(e8m10)
        return instrumented, counted

    def test_sweep_inputs_pair_only_square_blocks(self):
        prims = np.zeros((4, 3, 12, 8))
        assert len(flux.sweep_inputs(prims, 2, 8, 4)) == 2
        square = flux.sweep_inputs(np.zeros((4, 3, 12, 12)), 2, 8, 8)
        assert len(square) == 1 and square[0][0].shape == (4, 2, 3, 12, 8)

    @pytest.mark.parametrize("kind", ["binary64", "e8m10", "counted e8m10"])
    def test_batched_per_block_and_instrumented_agree(self, kind, monkeypatch):
        instrumented, fused_ctx = self._contexts(kind)
        sizes = []
        original = HydroSolver._advance_batched

        def spy(self, grid, group, dt, ctx):
            sizes.append(len(group))
            return original(self, grid, group, dt, ctx)

        monkeypatch.setattr(HydroSolver, "_advance_batched", spy)

        def run(ctx, batch):
            grid = _sod_workload(nxb=8, nyb=4, ng=2, max_level=3).build_grid()
            HydroSolver(rk_stages=1, batch_blocks=batch)._substep(
                grid, 5e-4, lambda module, level=None, max_level=None: ctx)
            return {key: {v: grid.leaves[key].interior_view(v).copy()
                          for v in ("dens", "velx", "vely", "pres")}
                    for key in grid.sorted_keys()}

        base_ctx = instrumented()
        base = run(base_ctx, batch=False)
        for batch in (False, True):
            ctx = fused_ctx()
            states = run(ctx, batch)
            assert set(states) == set(base)
            for key in base:
                for var in base[key]:
                    np.testing.assert_array_equal(
                        states[key][var], base[key][var], err_msg=f"batch={batch}: {key} {var}"
                    )
            if kind == "counted e8m10":
                assert ctx.runtime.snapshot() == base_ctx.runtime.snapshot()
        assert sizes and max(sizes) > 1  # the batched run really stacked blocks


class TestBubbleWorkspacePath:
    def test_fused_weno_derivative_bitwise_with_workspace(self):
        from repro.incomp.solver import BubbleConfig, BubbleSolver

        cfg = BubbleConfig(nx=16, ny=24)
        fast_solver = BubbleSolver(cfg)
        slow_solver = BubbleSolver(cfg, plane="instrumented")
        assert fast_solver._workspace is not None
        rng = np.random.default_rng(31)
        f = rng.normal(size=(cfg.nx, cfg.ny))
        vel = rng.normal(size=(cfg.nx, cfg.ny))
        for axis, spacing in ((0, cfg.dx), (1, cfg.dy)):
            fast = fast_solver._weno5_derivative(f, vel, spacing, axis, fast_solver._full_ctx)
            slow = slow_solver._weno5_derivative(f, vel, spacing, axis, slow_solver._full_ctx)
            np.testing.assert_array_equal(
                fast_solver._full_ctx.asplain(fast), slow_solver._full_ctx.asplain(slow)
            )
