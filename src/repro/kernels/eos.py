"""Fused twins of the cellular EOS: the bilinear table interpolation and
the Newton–Raphson steps of the energy inversion.

:mod:`repro.eos.table` and :mod:`repro.eos.newton` evaluate every FLOP
through a numerics context, one ``_apply`` per op.  The twins here evaluate
the same ufunc expression trees directly, in binary64 or — for a truncating
context — with the result of every ``add``/``sub``/``mul``/``div`` rounded
in place, at exactly the op boundaries
:class:`~repro.core.opmode.TruncatedContext` rounds at, and with constants
quantised the way ``TruncatedContext.const`` does.  Index searches and
clamps run on plain values on both planes.  So each twin is bit-identical
to the op-by-op evaluation under the context it stands for.

The twins count nothing: a counted context replays the ledgers of the
op-by-op steps around them (:mod:`repro.kernels.ledger`).
"""
from __future__ import annotations

import numpy as np

from ..core.opmode import FPContext
from ..core.quantize import quantize
from .ledger import fused_kind
from .trunc import _Q, quantize_into

__all__ = ["rounder", "bilinear", "NewtonSteps"]


class _Exact:
    """The binary64 rounder: every op result is already final."""

    __slots__ = ()

    def __call__(self, arr):
        return arr

    def const(self, x: float) -> float:
        return x

    def array(self, x) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)


class _Round(_Q):
    """The truncating rounder: rounds fresh op results in place."""

    __slots__ = ()

    def __call__(self, arr):
        if isinstance(arr, np.ndarray) and arr.ndim:
            return quantize_into(arr, self.fmt, self.rounding, out=arr)
        # ufuncs return scalars for 0-d operands
        return quantize(arr, self.fmt, self.rounding)

    def array(self, x) -> np.ndarray:
        return quantize(np.asarray(x, dtype=np.float64), self.fmt, self.rounding)


_EXACT = _Exact()


def rounder(ctx: FPContext):
    """The rounding of the twin a fused context runs (see
    :func:`~repro.kernels.ledger.fused_kind`): binary64 or truncating."""
    if fused_kind(ctx) == "trunc":
        return _Round(ctx.fmt, ctx.rounding, None)
    return _EXACT


def _weight(value, grid: np.ndarray, idx, q):
    """``(value - grid[idx]) / spacing``: one interpolation weight."""
    t = q(np.subtract(value, grid[idx]))
    return q(np.divide(t, q.const(grid[1] - grid[0])))


def bilinear(table, values: np.ndarray, rho, temp, q):
    """Twin of ``HelmholtzTable._bilinear``: ``values`` interpolated at
    (``rho``, ``temp``) with rounder ``q`` (see :func:`rounder`).

    ``1 - tx`` and ``1 - ty`` are computed once each — the op-by-op path
    evaluates each twice, to the same bits.
    """
    log_rho = np.log10(np.maximum(rho, 10.0 ** table.log_rho[0]))
    log_temp = np.log10(np.maximum(temp, 10.0 ** table.log_temp[0]))
    i = table._locate(table.log_rho, log_rho)
    j = table._locate(table.log_temp, log_temp)
    tx = _weight(log_rho, table.log_rho, i, q)
    ty = _weight(log_temp, table.log_temp, j, q)
    one = q.const(1.0)
    omtx = q(np.subtract(one, tx))
    omty = q(np.subtract(one, ty))
    c00 = q(np.multiply(q(np.multiply(omtx, omty)), values[i, j]))
    c10 = q(np.multiply(q(np.multiply(tx, omty)), values[i + 1, j]))
    c01 = q(np.multiply(q(np.multiply(omtx, ty)), values[i, j + 1]))
    c11 = q(np.multiply(q(np.multiply(tx, ty)), values[i + 1, j + 1]))
    return q(np.add(q(np.add(c00, c10)), q(np.add(c01, c11))))


class NewtonSteps:
    """The steps of ``repro.eos.newton.invert_energy`` for one solve.

    :meth:`residual` interpolates the energy at ``temp`` *and* at the two
    derivative points ``temp ± dT`` in one stacked call (every op is
    element-wise, so each row is bit-identical to its own call); the
    update of the same iteration reuses the derivative rows.  On the
    converged iteration they are simply unused.
    """

    def __init__(self, table, rho, energy_target, relaxation: float, q,
                 eps: float) -> None:
        self.table = table
        self.rho = np.asarray(rho, dtype=np.float64)
        self.energy_target = np.asarray(energy_target, dtype=np.float64)
        self.relaxation = relaxation
        self.q = q
        self.eps = eps
        # ``ctx.const`` / ``ctx.asplain`` of the iterate
        self.const = q.array
        self._rows = None

    @staticmethod
    def plain(x) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def residual(self, temp):
        """``e(rho, temp) - energy_target``."""
        q = self.q
        dT = np.maximum(self.eps * temp, 1e-30)
        shape = np.broadcast_shapes(self.rho.shape, np.shape(temp))
        stack = np.empty((3,) + shape)
        stack[0] = temp
        np.add(temp, dT, out=stack[1])
        np.subtract(temp, dT, out=stack[2])
        q(stack[1:])
        energy = bilinear(self.table, self.table.energy_table, self.rho, stack, q)
        self._rows = (temp, dT, energy)
        return q(np.subtract(energy[0], self.energy_target))

    def update(self, temp, residual):
        """The next iterate ``temp - residual / (de/dT)`` of the
        :meth:`residual` call on the same ``temp``."""
        q = self.q
        if self._rows is None or self._rows[0] is not temp:
            raise ValueError("update() must follow residual() on the same iterate")
        _, dT, energy = self._rows
        de = q(np.subtract(energy[1], energy[2]))
        dedt = q(np.divide(de, q(np.multiply(q.const(2.0), dT))))
        step = q(np.divide(residual, dedt))
        if self.relaxation != 1.0:
            step = q(np.multiply(q.const(self.relaxation), step))
        return q(np.subtract(temp, step))
