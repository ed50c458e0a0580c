"""Fused twins of the cellular EOS: the bilinear table interpolation and
the Newton–Raphson steps of the energy inversion.

:mod:`repro.eos.table` and :mod:`repro.eos.newton` evaluate every FLOP
through a numerics context, one ``_apply`` per op.  The twins here evaluate
the same ufunc expression trees directly, against a rounder ``q`` of
:mod:`repro.kernels.trunc`: :data:`~repro.kernels.trunc.EXACT` for binary64,
or a :class:`~repro.kernels.trunc.Round` that rounds the result of every
``add``/``sub``/``mul``/``div`` in place, at exactly the op boundaries
:class:`~repro.core.opmode.TruncatedContext` rounds at, with constants
quantised the way ``TruncatedContext.const`` does.  Index searches and
clamps run on plain values on both planes.  So each twin is bit-identical
to the op-by-op evaluation under the context it stands for.

The twins count nothing: a counted context replays the ledgers of the
op-by-op steps around them (:mod:`repro.kernels.ledger`).
"""
from __future__ import annotations

import numpy as np

__all__ = ["bilinear", "NewtonSteps"]


def bilinear(table, values: np.ndarray, rho, temp, q):
    """Twin of ``HelmholtzTable._bilinear``: ``values`` interpolated at
    (``rho``, ``temp``) with rounder ``q`` (the ``rounder()`` of the
    fused context).

    Independent ops of the op-by-op path run as one stacked op each: the
    two weight numerators and quotients, ``1 - tx`` and ``1 - ty`` (which
    the op-by-op path evaluates twice each, to the same bits), the four
    weight products, the four corner products and the two pair sums —
    seven roundings per call.  Every op is element-wise, so each lane of
    a stack has the bits of its own op.
    """
    log_rho = np.log10(np.maximum(rho, 10.0 ** table.log_rho[0]))
    log_temp = np.log10(np.maximum(temp, 10.0 ** table.log_temp[0]))
    i = table._locate(table.log_rho, log_rho)
    j = table._locate(table.log_temp, log_temp)
    shape = np.broadcast_shapes(np.shape(log_rho), np.shape(log_temp))
    lanes = (1,) * len(shape)
    # tw[a, axis]: a = 0 is ``1 - t``, a = 1 the weight t; axis 0 is rho
    tw = np.empty((2, 2) + shape)
    t = tw[1]
    np.subtract(log_rho, table.log_rho[i], out=t[0, ...])
    np.subtract(log_temp, table.log_temp[j], out=t[1, ...])
    q(t)
    spacing = np.array([q.const(table.log_rho[1] - table.log_rho[0]),
                        q.const(table.log_temp[1] - table.log_temp[0])])
    q(np.divide(t, spacing.reshape((2,) + lanes), out=t))
    q(np.subtract(q.const(1.0), t, out=tw[0]))
    # w[b, a] = (x-weight a) * (y-weight b): w00, w10 / w01, w11
    w = q(np.multiply(tw[None, :, 0], tw[:, None, 1]))
    # the matching corners values[i + a, j + b]
    n_temp = values.shape[1]
    corners = np.array([[0, n_temp], [1, n_temp + 1]]).reshape((2, 2) + lanes)
    f = np.take(values.ravel(), corners + (i * n_temp + j))
    c = q(np.multiply(w, f, out=w))
    pair = q(np.add(c[:, 0], c[:, 1]))
    return q(np.add(pair[0], pair[1]))


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
