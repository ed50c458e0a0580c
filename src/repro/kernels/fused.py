"""Pre-fused numpy kernels for the fast plane.

These are the hot reconstruction stencils of :mod:`repro.hydro.reconstruction`
(and the WENO5 advection operators of :mod:`repro.incomp.solver`) written as
straight-line numpy, with no context dispatch at all.  They exist purely for
speed: each function evaluates **exactly the same ufuncs on the same
operands** as its context-based twin, so on binary64 data the results are
bit-identical — the property the kernel-plane equivalence tests pin down.

Every stencil accepts an optional :class:`~repro.kernels.scratch.Workspace`
(``ws=``) plus a ``key`` identifying the call site; when given, all
intermediates and outputs are written through ``out=`` into preallocated
scratch buffers, removing temporary allocation from the hot loop.  ``out=``
never changes ufunc rounding and the kernels never write into their input
arrays, so results are bit-identical with or without a workspace.  Callers
that keep both returned arrays of several stencil invocations alive at once
must hand each invocation a distinct ``key``.

Consumers select them via the :attr:`~repro.kernels.fast.FastPlaneContext.fused`
flag on the active context; instrumented contexts keep the op-by-op path
(they must, since every operation feeds the counters / truncation).
The full Riemann/EOS flux pipeline built on top of these stencils lives in
:mod:`repro.kernels.flux`.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from .scratch import buffer
from .scratch import out_accessor as _o

__all__ = ["FUSED_SCHEMES", "pcm", "plm", "weno5", "weno5_edge", "weno5_operands", "where"]

#: matches ``repro.hydro.reconstruction._WENO_EPS``
_WENO_EPS = 1e-6


def where(cond, a, b, out=None):
    """``np.where`` with an optional preallocated output buffer.

    ``np.where`` has no ``out=`` parameter, so the buffered form is expressed
    as two ``copyto`` calls — pure selection, bit-identical to ``np.where``.
    ``out`` may alias ``a`` or ``b`` arbitrarily (``out is b`` is the cheap
    case); any other overlap falls back to an allocating ``np.where``
    copied into ``out``.
    """
    if out is None:
        return np.where(cond, a, b)
    if out is not b and (
        out is a or np.may_share_memory(out, a) or np.may_share_memory(out, b)
    ):
        np.copyto(out, np.where(cond, a, b))
        return out
    if out is not b:
        np.copyto(out, b)
    np.copyto(out, a, where=cond)
    return out


def _shift(u: np.ndarray, axis: int, offset: int, ng: int, n: int) -> np.ndarray:
    """Cells ``i + offset`` for the face range (same indexing as the
    context-based reconstruction).  ``axis`` counts from the *trailing* two
    dimensions, so stacked ``(nblocks, nx, ny)`` batches work unchanged."""
    start = ng - 1 + offset
    stop = start + n + 1
    if axis == 0:
        return u[..., start:stop, :]
    return u[..., :, start:stop]


def pcm(u: np.ndarray, axis: int, ng: int, n: int, ws=None, key=()) -> Tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant reconstruction (pure data movement; the returned
    arrays are views of ``u``, so no scratch is ever needed)."""
    return _shift(u, axis, 0, ng, n), _shift(u, axis, 1, ng, n)


def _minmod(a: np.ndarray, b: np.ndarray, ws=None, key=()) -> np.ndarray:
    """minmod(a, b), fused: 0 where signs differ, else the smaller magnitude.

    The returned array never aliases ``a`` or ``b``.
    """
    o = _o(ws)
    shp = a.shape
    ab = np.multiply(a, b, out=o((*key, "ab"), shp))
    same_sign = np.greater(ab, 0.0, out=o((*key, "ss"), shp, bool))
    absa = np.abs(a, out=o((*key, "absa"), shp))
    absb = np.abs(b, out=o((*key, "absb"), shp))
    lt = np.less(absa, absb, out=o((*key, "lt"), shp, bool))
    mag = where(lt, a, b, out=ab)  # ab's value is consumed; reuse its storage
    # zero out where the signs differ — identical to where(same_sign, mag, 0)
    np.logical_not(same_sign, out=same_sign)
    np.copyto(mag, 0.0, where=same_sign)
    return mag


def plm(u: np.ndarray, axis: int, ng: int, n: int, ws=None, key=()) -> Tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear (minmod-limited) reconstruction, fused."""
    o = _o(ws)
    um1 = _shift(u, axis, -1, ng, n)
    uc = _shift(u, axis, 0, ng, n)
    up1 = _shift(u, axis, 1, ng, n)
    up2 = _shift(u, axis, 2, ng, n)
    shp = uc.shape

    dl = np.subtract(uc, um1, out=o((*key, "dl"), shp))
    dr = np.subtract(up1, uc, out=o((*key, "dr"), shp))
    slope_left = _minmod(dl, dr, ws, (*key, "ml"))

    dl2 = np.subtract(up1, uc, out=dl)
    dr2 = np.subtract(up2, up1, out=dr)
    slope_right = _minmod(dl2, dr2, ws, (*key, "mr"))

    np.multiply(0.5, slope_left, out=slope_left)
    left = np.add(uc, slope_left, out=o((*key, "left"), shp))
    np.multiply(0.5, slope_right, out=slope_right)
    right = np.subtract(up1, slope_right, out=o((*key, "right"), shp))
    return left, right


def weno5_edge(um2, um1, u0, up1, up2, ws=None, key=(), out=None) -> np.ndarray:
    """Jiang–Shu WENO5 right-edge value of cell 0, fused.

    The association of every sum/product mirrors
    ``repro.hydro.reconstruction._weno5_edge`` term for term — do not
    "simplify" the algebra here, the parenthesisation is the contract.
    ``out`` (optional) receives the result; it may alias any *input* (the
    final division reads only scratch), but not the workspace buffers of
    this ``key``.
    """
    o = _o(ws)
    shp = np.shape(u0)

    # candidate polynomials
    q0 = np.multiply(2.0, um2, out=o((*key, "q0"), shp))
    t = np.multiply(7.0, um1, out=o((*key, "t"), shp))
    np.subtract(q0, t, out=q0)
    t = np.multiply(11.0, u0, out=t)
    np.add(q0, t, out=q0)
    np.multiply(1.0 / 6.0, q0, out=q0)

    q1 = np.multiply(5.0, u0, out=o((*key, "q1"), shp))
    np.subtract(q1, um1, out=q1)
    t = np.multiply(2.0, up1, out=t)
    np.add(q1, t, out=q1)
    np.multiply(1.0 / 6.0, q1, out=q1)

    q2 = np.multiply(2.0, u0, out=o((*key, "q2"), shp))
    t = np.multiply(5.0, up1, out=t)
    np.add(q2, t, out=q2)
    np.subtract(q2, up2, out=q2)
    np.multiply(1.0 / 6.0, q2, out=q2)

    # smoothness indicators: beta_k = 13/12 d1^2 + 1/4 d2^2
    t2 = o((*key, "t2"), shp)
    d1 = np.multiply(2.0, um1, out=t)
    d1 = np.subtract(um2, d1, out=d1)
    d1 = np.add(d1, u0, out=d1)
    beta0 = np.multiply(d1, d1, out=o((*key, "b0"), shp))
    np.multiply(13.0 / 12.0, beta0, out=beta0)
    d2 = np.multiply(4.0, um1, out=t)
    d2 = np.subtract(um2, d2, out=d2)
    u3 = np.multiply(3.0, u0, out=t2)
    d2 = np.add(d2, u3, out=d2)
    sq = np.multiply(d2, d2, out=d2)
    np.multiply(0.25, sq, out=sq)
    np.add(beta0, sq, out=beta0)

    d1 = np.multiply(2.0, u0, out=t)
    d1 = np.subtract(um1, d1, out=d1)
    d1 = np.add(d1, up1, out=d1)
    beta1 = np.multiply(d1, d1, out=o((*key, "b1"), shp))
    np.multiply(13.0 / 12.0, beta1, out=beta1)
    d2 = np.subtract(um1, up1, out=t)
    sq = np.multiply(d2, d2, out=d2)
    np.multiply(0.25, sq, out=sq)
    np.add(beta1, sq, out=beta1)

    d1 = np.multiply(2.0, up1, out=t)
    d1 = np.subtract(u0, d1, out=d1)
    d1 = np.add(d1, up2, out=d1)
    beta2 = np.multiply(d1, d1, out=o((*key, "b2"), shp))
    np.multiply(13.0 / 12.0, beta2, out=beta2)
    a3 = np.multiply(3.0, u0, out=t)
    b4 = np.multiply(4.0, up1, out=t2)
    d2 = np.subtract(a3, b4, out=a3)
    d2 = np.add(d2, up2, out=d2)
    sq = np.multiply(d2, d2, out=d2)
    np.multiply(0.25, sq, out=sq)
    np.add(beta2, sq, out=beta2)

    # nonlinear weights: w_k = c_k / (eps + beta_k)^2
    np.add(_WENO_EPS, beta0, out=beta0)
    np.square(beta0, out=beta0)
    w0 = np.divide(0.1, beta0, out=beta0)
    np.add(_WENO_EPS, beta1, out=beta1)
    np.square(beta1, out=beta1)
    w1 = np.divide(0.6, beta1, out=beta1)
    np.add(_WENO_EPS, beta2, out=beta2)
    np.square(beta2, out=beta2)
    w2 = np.divide(0.3, beta2, out=beta2)

    wsum = np.add(w0, w1, out=t)
    np.add(wsum, w2, out=wsum)
    num = np.multiply(w0, q0, out=q0)
    t2 = np.multiply(w1, q1, out=q1)
    np.add(num, t2, out=num)
    t2 = np.multiply(w2, q2, out=q2)
    np.add(num, t2, out=num)
    if out is None:
        out = o((*key, "res"), shp)
    return np.divide(num, wsum, out=out)


#: stencil windows of the left and right WENO5 edges, as indices into the
#: cells ``i-2 .. i+3`` of a face range
_WENO_EDGES = ((0, 1, 2, 3, 4), (5, 4, 3, 2, 1))


def weno5_operands(u: np.ndarray, axis: int, ng: int, n: int, ws=None, key=()) -> np.ndarray:
    """The ``(5, 2, ...)`` operand stack of both WENO5 edges of ``u``.

    Row ``s`` holds stencil operand ``s`` of the left (slot 0) and right
    (slot 1) edge, so one element-wise ``weno5_edge`` call evaluates both
    edges; slot ``e`` of its result carries exactly the bits of the
    standalone edge call it packs.
    """
    cells = [_shift(u, axis, k, ng, n) for k in range(-2, 4)]
    stack = buffer(ws, (*key, "st"), (5, 2, *cells[0].shape))
    for s in range(5):
        for e, window in enumerate(_WENO_EDGES):
            np.copyto(stack[s, e], cells[window[s]])
    return stack


def weno5(u: np.ndarray, axis: int, ng: int, n: int, ws=None, key=()) -> Tuple[np.ndarray, np.ndarray]:
    """Fifth-order WENO reconstruction at the interior faces, fused: the
    left and right edges in one stacked :func:`weno5_edge` call."""
    edges = weno5_edge(*weno5_operands(u, axis, ng, n, ws, key), ws, (*key, "e"))
    return edges[0], edges[1]


#: scheme name -> fused implementation (same keys as reconstruction.SCHEMES)
FUSED_SCHEMES = {"pcm": pcm, "plm": plm, "weno5": weno5}
