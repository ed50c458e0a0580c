"""Tests for the pressure Poisson solver."""
import copy
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.incomp import PoissonSolver
from repro.kernels.scratch import Workspace


def build_matrix_reference(nx, ny, dx, dy):
    """The oracle of ``PoissonSolver._build_matrix``: the original per-cell
    COO loop, with the nullspace pinned through LIL."""
    idx = np.arange(nx * ny).reshape(nx, ny)
    inv_dx2 = 1.0 / dx ** 2
    inv_dy2 = 1.0 / dy ** 2

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for i in range(nx):
        for j in range(ny):
            r = idx[i, j]
            diag = 0.0
            for di, dj, w in ((-1, 0, inv_dx2), (1, 0, inv_dx2), (0, -1, inv_dy2), (0, 1, inv_dy2)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    add(r, idx[ii, jj], w)
                    diag -= w
                # Neumann: missing neighbour contributes nothing (zero flux)
            add(r, r, diag)

    mat = sp.coo_matrix((vals, (rows, cols)), shape=(nx * ny, nx * ny)).tolil()
    # pin the first cell to remove the constant nullspace
    mat[0, :] = 0.0
    mat[0, 0] = 1.0
    return mat


@pytest.fixture(scope="module")
def solver():
    return PoissonSolver(nx=32, ny=24, dx=1.0 / 32, dy=1.0 / 24)


class TestBandedAssembly:
    """The vectorised ``sp.diags`` assembly is pinned exactly — values *and*
    stored sparsity structure — against the per-cell reference loop."""

    @pytest.mark.parametrize(
        "nx,ny,dx,dy",
        [(32, 24, 1.0 / 32, 1.0 / 24), (1, 1, 0.5, 0.5), (1, 7, 0.1, 0.2),
         (7, 1, 0.2, 0.1), (2, 2, 1.0, 2.0), (17, 5, 0.03, 0.7)],
    )
    def test_matches_reference_loop_exactly(self, nx, ny, dx, dy):
        solver = PoissonSolver(nx=nx, ny=ny, dx=dx, dy=dy)
        banded = solver._build_matrix().tocsr()
        reference = build_matrix_reference(nx, ny, dx, dy).tocsr()
        assert (banded - reference).nnz == 0
        # identical stored structure, not just identical values
        np.testing.assert_array_equal(banded.indptr, reference.indptr)
        np.testing.assert_array_equal(banded.indices, reference.indices)
        np.testing.assert_array_equal(banded.data, reference.data)
        # splu factors the CSC form, so it must match as well
        banded, reference = banded.tocsc(), reference.tocsc()
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(banded, attr), getattr(reference, attr))

    def test_solve_with_workspace_bitwise_identical(self, solver):
        rng = np.random.default_rng(11)
        rhs = rng.normal(size=(32, 24))
        rhs_orig = rhs.copy()
        ws = Workspace()
        p_ws = solver.solve(rhs, ws=ws)
        p = solver.solve(rhs)
        np.testing.assert_array_equal(p_ws, p)
        # the staging buffer is reused, the returned pressure is fresh
        misses = ws.misses
        p_ws2 = solver.solve(rhs, ws=ws)
        assert ws.misses == misses
        assert p_ws2 is not p_ws
        np.testing.assert_array_equal(p_ws2, p_ws)
        # rhs is never written
        np.testing.assert_array_equal(rhs, rhs_orig)

    def test_gradient_with_workspace_bitwise_identical(self, solver):
        rng = np.random.default_rng(12)
        p = rng.normal(size=(32, 24))
        gx, gy = solver.gradient(p)
        np.testing.assert_array_equal(gx, np.gradient(p, solver.dx, axis=0))
        np.testing.assert_array_equal(gy, np.gradient(p, solver.dy, axis=1))
        ws = Workspace()
        wx, wy = solver.gradient(p, ws=ws)
        np.testing.assert_array_equal(wx, gx)
        np.testing.assert_array_equal(wy, gy)


class TestSolver:
    @pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copy_refactors_lazily_and_solves_bitwise(self, solver, clone):
        """A copy leaves the factorisation behind and rebuilds it on its
        first solve, to the same bits; the original keeps its own."""
        rhs = np.random.default_rng(2).normal(size=(32, 24))
        want = solver.solve(rhs)
        copied = clone(solver)
        assert copied._lu is None and solver._lu is not None
        got = copied.solve(rhs)
        assert copied._lu is not None
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rhs_shape_validated(self, solver):
        with pytest.raises(ValueError):
            solver.solve(np.zeros((8, 8)))

    def test_zero_rhs_gives_constant_solution(self, solver):
        p = solver.solve(np.zeros((32, 24)))
        assert np.allclose(p, 0.0, atol=1e-10)

    def test_solution_has_zero_mean(self, solver):
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=(32, 24))
        p = solver.solve(rhs)
        assert abs(float(np.mean(p))) < 1e-12

    def test_residual_small(self, solver):
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=(32, 24))
        p = solver.solve(rhs)
        assert solver.residual(p, rhs) < 1e-8

    def test_manufactured_solution(self):
        """lap(cos(pi x) cos(pi y)) = -2 pi^2 cos(pi x) cos(pi y), which is
        compatible with homogeneous Neumann walls."""
        nx = ny = 48
        dx = 1.0 / nx
        solver = PoissonSolver(nx, ny, dx, dx)
        x = (np.arange(nx) + 0.5) * dx
        y = (np.arange(ny) + 0.5) * dx
        X, Y = np.meshgrid(x, y, indexing="ij")
        exact = np.cos(np.pi * X) * np.cos(np.pi * Y)
        rhs = -2 * np.pi ** 2 * exact
        p = solver.solve(rhs)
        exact_zero_mean = exact - exact.mean()
        err = np.max(np.abs(p - exact_zero_mean))
        assert err < 5e-3

    def test_gradient_shapes(self, solver):
        p = solver.solve(np.random.default_rng(2).normal(size=(32, 24)))
        gx, gy = solver.gradient(p)
        assert gx.shape == (32, 24)
        assert gy.shape == (32, 24)

    def test_projection_reduces_divergence(self, solver):
        """Projecting an arbitrary velocity field must reduce its divergence
        (the property the fractional-step method relies on)."""
        rng = np.random.default_rng(3)
        dx, dy = solver.dx, solver.dy
        u = rng.normal(size=(32, 24))
        v = rng.normal(size=(32, 24))
        # zero the wall-normal velocities, as the bubble solver does
        u[0, :] = u[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
        dt = 0.1
        div = np.gradient(u, dx, axis=0) + np.gradient(v, dy, axis=1)
        p = solver.solve(div / dt)
        gx, gy = solver.gradient(p)
        u2, v2 = u - dt * gx, v - dt * gy
        div2 = np.gradient(u2, dx, axis=0) + np.gradient(v2, dy, axis=1)
        assert np.linalg.norm(div2[2:-2, 2:-2]) < 0.7 * np.linalg.norm(div[2:-2, 2:-2])
