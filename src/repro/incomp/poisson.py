"""Pressure-Poisson solver for the fractional-step projection method.

The Bubble solver's projection step requires a Poisson solve each time step.
In Flash-X this is done by Hypre; here a sparse direct factorisation of the
five-point Laplacian (homogeneous Neumann boundaries, nullspace pinned) is
pre-computed once and reused for every step — the projection step is never a
truncation target in the paper (only the advection and diffusion operators
are), so it runs at full precision and speed.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..kernels import bubble as kbubble
from ..kernels.scratch import Workspace, buffer

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["PoissonSolver"]


class PoissonSolver:
    """Five-point Laplacian solver on a uniform (nx, ny) cell-centred grid.

    Solves ``lap(p) = rhs`` with homogeneous Neumann boundary conditions on
    all four walls.  The operator has a nullspace (constant fields); it is
    removed by pinning the first cell and projecting the right-hand side to
    zero mean, which is the compatible choice for the projection method.

    The matrix is factorised on the first solve and never modified, so
    solvers of one grid may share it.  A pickled or deep-copied solver
    leaves the factorisation behind (a ``SuperLU`` object does not
    pickle) and factorises again on its own first solve.
    """

    def __init__(self, nx: int, ny: int, dx: float, dy: float) -> None:
        self.nx = int(nx)
        self.ny = int(ny)
        self.dx = float(dx)
        self.dy = float(dy)
        self._lu = None

    def __getstate__(self) -> dict:
        return dict(self.__dict__, _lu=None)

    # ------------------------------------------------------------------
    def _build_matrix(self) -> sp.csr_matrix:
        """Banded (vectorised) assembly of the pinned Neumann Laplacian.

        Exactly equal — values and sparsity structure — to the per-cell
        reference loop kept as the test oracle in ``tests/incomp/``: the
        diagonal accumulates ``-w`` per in-bounds neighbour in the same
        (i-1, i+1, j-1, j+1) order, and the ``±1`` bands carry zeros at the
        row seams (j-coupling across i-rows), which ``eliminate_zeros``
        then drops so the stored structure matches the loop-built matrix.
        The first row is pinned on the CSR arrays directly.
        """
        import scipy.sparse as sp  # only the bubble's Poisson solve needs SciPy

        nx, ny = self.nx, self.ny
        n = nx * ny
        inv_dx2 = 1.0 / self.dx ** 2
        inv_dy2 = 1.0 / self.dy ** 2

        diag = np.zeros((nx, ny))
        diag[1:, :] -= inv_dx2
        diag[:-1, :] -= inv_dx2
        diag[:, 1:] -= inv_dy2
        diag[:, :-1] -= inv_dy2

        diagonals, offsets = [diag.ravel()], [0]
        if nx > 1:
            x_band = np.full(n - ny, inv_dx2)
            diagonals += [x_band, x_band]
            offsets += [-ny, ny]
        if ny > 1:
            y_band = np.full(n - 1, inv_dy2)
            y_band[ny - 1::ny] = 0.0  # no j-coupling across the i-row seam
            diagonals += [y_band, y_band]
            offsets += [-1, 1]

        mat = sp.diags(diagonals, offsets, shape=(n, n), format="csr")
        mat.eliminate_zeros()
        # pin the first cell to remove the constant nullspace: row 0
        # becomes the single entry (0, 0) = 1
        end = mat.indptr[1]
        indptr = mat.indptr - (end - 1)
        indptr[0] = 0
        return sp.csr_matrix(
            (np.concatenate(([1.0], mat.data[end:])),
             np.concatenate(([0], mat.indices[end:])), indptr),
            shape=(n, n),
        )

    # ------------------------------------------------------------------
    def solve(self, rhs: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        """Solve for p given the cell-centred right-hand side.

        With a workspace the right-hand-side staging lands in a reused
        scratch buffer; the factorisation's output (and thus the returned
        pressure) is a fresh array either way, and the bits are identical.
        """
        if rhs.shape != (self.nx, self.ny):
            raise ValueError(f"expected rhs shape {(self.nx, self.ny)}, got {rhs.shape}")
        flat = buffer(ws, ("poisson", "rhs"), (self.nx * self.ny,))
        b = flat.reshape(self.nx, self.ny)
        np.copyto(b, rhs)
        b -= b.mean()  # compatibility with the Neumann problem
        flat[0] = 0.0  # pinned cell
        if self._lu is None:
            import scipy.sparse.linalg as spla

            self._lu = spla.splu(self._build_matrix().tocsc())
        p = self._lu.solve(flat)
        p = p.reshape(self.nx, self.ny)
        p -= p.mean()
        return p

    # ------------------------------------------------------------------
    def residual(self, p: np.ndarray, rhs: np.ndarray) -> float:
        """Max-norm residual of the (zero-mean) discrete Poisson equation."""
        lap = self.apply_laplacian(p)
        r = lap - (rhs - rhs.mean())
        return float(np.max(np.abs(r[1:-1, 1:-1])))

    def apply_laplacian(self, p: np.ndarray) -> np.ndarray:
        """Apply the Neumann five-point Laplacian to a field."""
        padded = np.pad(p, 1, mode="edge")
        lap = (
            (padded[2:, 1:-1] - 2 * p + padded[:-2, 1:-1]) / self.dx ** 2
            + (padded[1:-1, 2:] - 2 * p + padded[1:-1, :-2]) / self.dy ** 2
        )
        return lap

    def gradient(self, p: np.ndarray, ws: Optional[Workspace] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Cell-centred pressure gradient (one-sided at the walls): bitwise
        ``np.gradient`` along each axis."""
        gx = kbubble.gradient_axis(p, self.dx, 0, ws=ws, key=("poisson", "gx"))
        gy = kbubble.gradient_axis(p, self.dy, 1, ws=ws, key=("poisson", "gy"))
        return gx, gy
