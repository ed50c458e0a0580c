"""Tests for the grid-level hydro solver."""
import numpy as np
import pytest

from repro.amr import AMRGrid
from repro.core import (
    FPFormat,
    GlobalPolicy,
    Mode,
    NoTruncationPolicy,
    RaptorRuntime,
    TruncationConfig,
)
from repro.hydro import GammaLawEOS, HydroSolver

VARS = ["dens", "velx", "vely", "pres"]


def make_grid(boundary="periodic", nxb=8, n_root=2, max_level=1):
    return AMRGrid(
        VARS,
        nxb=nxb,
        nyb=nxb,
        n_root_x=n_root,
        n_root_y=n_root,
        max_level=max_level,
        ng=3,
        boundary=boundary,
    )


def uniform_ic(x, y):
    return {
        "dens": np.ones_like(x),
        "velx": np.zeros_like(x),
        "vely": np.zeros_like(x),
        "pres": np.ones_like(x),
    }


def sod_x_ic(x, y):
    dens = np.where(x < 0.5, 1.0, 0.125)
    pres = np.where(x < 0.5, 1.0, 0.1)
    return {"dens": dens, "velx": np.zeros_like(x), "vely": np.zeros_like(x), "pres": pres}


def blast_ic(x, y):
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
    pres = np.where(r2 < 0.01, 10.0, 0.1)
    return {"dens": np.ones_like(x), "velx": np.zeros_like(x), "vely": np.zeros_like(x), "pres": pres}


def policy_provider(policy, grid):
    def provider(module, level=None, max_level=None):
        return policy.context_for(module=module, level=level, max_level=max_level)

    return provider


class TestConstruction:
    def test_invalid_riemann(self):
        with pytest.raises(ValueError):
            HydroSolver(riemann="roe")

    def test_invalid_rk(self):
        with pytest.raises(ValueError):
            HydroSolver(rk_stages=3)

    @pytest.mark.parametrize("config, message", [
        (dict(reconstruction="nope"), "unknown reconstruction scheme 'nope'"),
        (dict(reconstruction="weno5", ng=2), "weno5 needs at least 3 guard cells"),
        (dict(reconstruction="plm", ng=1), "plm needs at least 2 guard cells"),
    ])
    def test_bad_scheme_or_guard_width_fails_alike_on_every_plane(self, config, message):
        """A bad scheme or a guard width too narrow for it is one
        ``ValueError`` on every plane, raised before any block moves."""
        from repro.kernels import PLANES
        from repro.workloads import create_workload

        for plane in PLANES:
            workload = create_workload("sod", nxb=8, nyb=8, n_root_x=2, n_root_y=2,
                                       max_level=1, t_end=0.004, **config)
            with pytest.raises(ValueError) as excinfo:
                workload.reference(plane=plane)
            assert str(excinfo.value) == message, plane


class TestTimestep:
    def test_dt_positive_and_cfl_scaled(self):
        grid = make_grid()
        grid.initialize(uniform_ic)
        s1 = HydroSolver(cfl=0.4)
        s2 = HydroSolver(cfl=0.2)
        dt1, dt2 = s1.compute_dt(grid), s2.compute_dt(grid)
        assert dt1 > 0
        assert dt2 == pytest.approx(dt1 / 2)

    def test_dt_decreases_with_refinement(self):
        grid = make_grid(max_level=2)
        grid.initialize(uniform_ic)
        solver = HydroSolver()
        dt_coarse = solver.compute_dt(grid)
        grid.refine_block((1, 0, 0))
        grid.initialize(uniform_ic)
        assert solver.compute_dt(grid) < dt_coarse


class TestUniformState:
    @pytest.mark.parametrize("scheme", ["plm", "weno5"])
    def test_uniform_state_is_preserved(self, scheme):
        grid = make_grid()
        grid.initialize(uniform_ic)
        solver = HydroSolver(reconstruction=scheme, rk_stages=1)
        dt = solver.compute_dt(grid)
        for _ in range(3):
            solver.step(grid, dt)
        for b in grid.blocks():
            assert np.allclose(b.interior_view("dens"), 1.0, atol=1e-12)
            assert np.allclose(b.interior_view("velx"), 0.0, atol=1e-12)
            assert np.allclose(b.interior_view("pres"), 1.0, atol=1e-12)


class TestConservation:
    @pytest.mark.parametrize("rk_stages", [1, 2])
    def test_mass_and_energy_conserved_on_periodic_grid(self, rk_stages):
        grid = make_grid(boundary="periodic")
        grid.initialize(blast_ic)
        solver = HydroSolver(rk_stages=rk_stages)
        eos = solver.eos

        def total_energy(g):
            tot = 0.0
            for b in g.blocks():
                dens = b.interior_view("dens")
                velx = b.interior_view("velx")
                vely = b.interior_view("vely")
                pres = b.interior_view("pres")
                ener = pres / (eos.gamma - 1) + 0.5 * dens * (velx ** 2 + vely ** 2)
                tot += float(np.sum(ener) * b.cell_area)
            return tot

        mass0 = grid.total_integral("dens")
        ener0 = total_energy(grid)
        dt = 0.5 * solver.compute_dt(grid)
        for _ in range(5):
            solver.step(grid, dt)
        assert grid.total_integral("dens") == pytest.approx(mass0, rel=1e-10)
        assert total_energy(grid) == pytest.approx(ener0, rel=1e-10)


class TestShockPropagation:
    def test_sod_shock_moves_right(self):
        grid = make_grid(boundary="outflow", nxb=16, n_root=2, max_level=1)
        grid.initialize(sod_x_ic)
        solver = HydroSolver(rk_stages=2, reconstruction="plm")
        result = solver.evolve(grid, t_end=0.1)
        assert result["steps"] > 0
        data = grid.uniform_data("dens")
        x, _ = grid.uniform_coordinates()
        # density just right of the initial interface must have risen (shock)
        right_zone = data[(x > 0.55) & (x < 0.7), :]
        assert np.mean(right_zone) > 0.15
        # far-right region still undisturbed
        assert np.allclose(data[x > 0.95, :], 0.125, atol=1e-3)
        # velocities point rightward in the expansion region
        velx = grid.uniform_data("velx")
        assert np.mean(velx[(x > 0.4) & (x < 0.7), :]) > 0.0

    def test_blast_wave_is_radially_symmetric(self):
        grid = make_grid(boundary="outflow", nxb=8, n_root=2, max_level=1)
        grid.initialize(blast_ic)
        solver = HydroSolver(rk_stages=1)
        solver.evolve(grid, t_end=0.05)
        pres = grid.uniform_data("pres")
        # symmetry across both axes (the IC and scheme are symmetric)
        assert np.allclose(pres, pres[::-1, :], rtol=1e-8, atol=1e-10)
        assert np.allclose(pres, pres[:, ::-1], rtol=1e-8, atol=1e-10)
        assert np.allclose(pres, pres.T, rtol=1e-8, atol=1e-10)


class TestEvolveDriver:
    def test_fixed_dt_and_callback_and_max_steps(self):
        grid = make_grid()
        grid.initialize(uniform_ic)
        solver = HydroSolver(rk_stages=1)
        seen = []
        out = solver.evolve(
            grid, t_end=1.0, fixed_dt=0.3, max_steps=2, callback=lambda n, t, g: seen.append((n, t))
        )
        assert out["steps"] == 2
        assert seen[0][0] == 1
        assert seen[-1][1] == pytest.approx(0.6)

    def test_evolve_with_regridding(self):
        grid = make_grid(boundary="outflow", max_level=2)
        grid.initialize_with_refinement(blast_ic, ["pres"], refine_cutoff=0.4)
        solver = HydroSolver(rk_stages=1)
        out = solver.evolve(grid, t_end=0.02, regrid_interval=2, refine_vars=("pres",))
        assert out["time"] == pytest.approx(0.02)
        assert grid.n_leaves >= 4


class TestTruncatedEvolution:
    def _run_sod(self, policy_factory, mantissa):
        grid = make_grid(boundary="outflow", nxb=8, n_root=2, max_level=1)
        grid.initialize(sod_x_ic)
        solver = HydroSolver(rk_stages=1, reconstruction="plm")
        runtime = RaptorRuntime()
        policy = policy_factory(mantissa, runtime)
        solver.evolve(grid, t_end=0.05, provider=policy_provider(policy, grid), fixed_dt=0.002)
        return grid.uniform_data("dens"), runtime

    def test_truncated_run_differs_but_stays_finite(self):
        def full_policy(m, rt):
            return NoTruncationPolicy(runtime=rt)

        def trunc_policy(m, rt):
            return GlobalPolicy(TruncationConfig.mantissa(m, exp_bits=8), runtime=rt)

        ref, _ = self._run_sod(full_policy, 52)
        low, rt = self._run_sod(trunc_policy, 6)
        assert np.all(np.isfinite(low))
        assert np.max(np.abs(low - ref)) > 1e-6
        assert rt.ops.truncated > 0

    def test_error_decreases_with_mantissa(self):
        def trunc_policy(m, rt):
            return GlobalPolicy(TruncationConfig.mantissa(m, exp_bits=11), runtime=rt)

        def full_policy(m, rt):
            return NoTruncationPolicy(runtime=rt)

        ref, _ = self._run_sod(full_policy, 52)
        err = {}
        for mantissa in (6, 40):
            low, _ = self._run_sod(trunc_policy, mantissa)
            err[mantissa] = float(np.mean(np.abs(low - ref)))
        assert err[40] < err[6]

    def test_mem_mode_run_flags_operations(self):
        grid = make_grid(boundary="outflow", nxb=8, n_root=2, max_level=1)
        grid.initialize(sod_x_ic)
        solver = HydroSolver(rk_stages=1, reconstruction="plm")
        runtime = RaptorRuntime()
        cfg = TruncationConfig.mantissa(6, exp_bits=8, mode=Mode.MEM, deviation_threshold=1e-4)
        policy = GlobalPolicy(cfg, runtime=runtime)
        provider = policy_provider(policy, grid)
        solver.evolve(grid, t_end=0.01, provider=provider, fixed_dt=0.002)
        ctx = policy.context_for(module="hydro")
        report = ctx.report()
        assert len(report.entries) > 0
        assert any(flagged > 0 for _, flagged, _, _ in report.entries)
        labels = " ".join(loc.label for loc, *_ in report.entries)
        assert "recon" in labels or "riemann" in labels or "update" in labels
        # stage attribution visible in the per-module op counters
        mods = runtime.module_ops()
        assert any(m in mods for m in ("recon", "riemann", "update"))
