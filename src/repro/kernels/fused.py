"""Pre-fused numpy kernels for the fast planes.

These are the hot reconstruction stencils of :mod:`repro.hydro.reconstruction`
(and the WENO5 advection operators of :mod:`repro.incomp.solver`) written as
straight-line numpy, with no context dispatch at all.  They exist purely for
speed: each function evaluates **exactly the same ufuncs on the same
operands** as its context-based twin and applies its rounder ``q``
(:mod:`repro.kernels.trunc`) at the same op boundaries, so the results are
bit-identical — the property the kernel-plane equivalence tests pin down.
The default :data:`~repro.kernels.trunc.EXACT` stands for binary64 contexts,
a :class:`~repro.kernels.trunc.Round` for optimized truncating ones.

Every stencil accepts an optional :class:`~repro.kernels.scratch.Workspace`
(``ws=``) plus a ``key`` identifying the call site; when given, all
intermediates and outputs are written through ``out=`` into preallocated
scratch buffers, removing temporary allocation from the hot loop.  ``out=``
never changes ufunc rounding and the kernels never write into their input
arrays, so results are bit-identical with or without a workspace.  Callers
that keep both returned arrays of several stencil invocations alive at once
must hand each invocation a distinct ``key``.

Their consumers are whole operators — the fused block update
:func:`repro.kernels.flux.advance` and the bubble's advection — run with
the rounder of the operator's context (``ctx.rounder()``); the full
Riemann/EOS flux pipeline built on top of these stencils lives in
:mod:`repro.kernels.flux`.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from .scratch import buffer
from .scratch import out_accessor as _o
from .trunc import EXACT

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


def pcm(u: np.ndarray, axis: int, ng: int, n: int, ws=None, key=(), *,
        q=EXACT) -> Tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant reconstruction: pure data movement, no FLOPs, so
    nothing to round (the returned arrays are views of ``u``, so no
    scratch is ever needed)."""
    return _shift(u, axis, 0, ng, n), _shift(u, axis, 1, ng, n)


def _minmod(a: np.ndarray, b: np.ndarray, ws=None, key=(), q=EXACT) -> np.ndarray:
    """minmod(a, b): 0 where signs differ, else the smaller magnitude.

    The sign test uses the *rounded* product, exactly like the
    instrumented limiter.  The returned array never aliases ``a`` or ``b``.
    """
    o = _o(ws)
    shp = a.shape
    ab = np.multiply(a, b, out=o((*key, "ab"), shp))
    q(ab)
    same_sign = np.greater(ab, 0.0, out=o((*key, "ss"), shp, bool))
    # |a| < |b| on the raw operands: abs is quantise-closed
    absa = np.abs(a, out=o((*key, "absa"), shp))
    absb = np.abs(b, out=o((*key, "absb"), shp))
    lt = np.less(absa, absb, out=o((*key, "lt"), shp, bool))
    mag = where(lt, a, b, out=ab)  # ab's value is consumed; reuse its storage
    # zero out where the signs differ — identical to where(same_sign, mag, 0)
    np.logical_not(same_sign, out=same_sign)
    np.copyto(mag, 0.0, where=same_sign)
    return mag


def plm(u: np.ndarray, axis: int, ng: int, n: int, ws=None, key=(), *,
        q=EXACT) -> Tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear (minmod-limited) reconstruction, fused."""
    o = _o(ws)
    um1 = _shift(u, axis, -1, ng, n)
    uc = _shift(u, axis, 0, ng, n)
    up1 = _shift(u, axis, 1, ng, n)
    up2 = _shift(u, axis, 2, ng, n)
    shp = uc.shape

    dl = np.subtract(uc, um1, out=o((*key, "dl"), shp))
    q(dl)
    dr = np.subtract(up1, uc, out=o((*key, "dr"), shp))
    q(dr)
    slope_left = _minmod(dl, dr, ws, (*key, "ml"), q)

    dl2 = np.subtract(up1, uc, out=dl)
    q(dl2)
    dr2 = np.subtract(up2, up1, out=dr)
    q(dr2)
    slope_right = _minmod(dl2, dr2, ws, (*key, "mr"), q)

    half = q.const(0.5)
    np.multiply(half, slope_left, out=slope_left)
    q(slope_left)
    left = np.add(uc, slope_left, out=o((*key, "left"), shp))
    q(left)
    np.multiply(half, slope_right, out=slope_right)
    q(slope_right)
    right = np.subtract(up1, slope_right, out=o((*key, "right"), shp))
    q(right)
    return left, right


def weno5_edge(um2, um1, u0, up1, up2, ws=None, key=(), out=None, *, q=EXACT) -> np.ndarray:
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
    sixth = q.const(1.0 / 6.0)
    eps = q.const(_WENO_EPS)

    # candidate polynomials
    q0 = np.multiply(q.const(2.0), um2, out=o((*key, "q0"), shp))
    q(q0)
    t = np.multiply(q.const(7.0), um1, out=o((*key, "t"), shp))
    q(t)
    np.subtract(q0, t, out=q0)
    q(q0)
    t = np.multiply(q.const(11.0), u0, out=t)
    q(t)
    np.add(q0, t, out=q0)
    q(q0)
    np.multiply(sixth, q0, out=q0)
    q(q0)

    q1 = np.multiply(q.const(5.0), u0, out=o((*key, "q1"), shp))
    q(q1)
    np.subtract(q1, um1, out=q1)
    q(q1)
    t = np.multiply(q.const(2.0), up1, out=t)
    q(t)
    np.add(q1, t, out=q1)
    q(q1)
    np.multiply(sixth, q1, out=q1)
    q(q1)

    q2 = np.multiply(q.const(2.0), u0, out=o((*key, "q2"), shp))
    q(q2)
    t = np.multiply(q.const(5.0), up1, out=t)
    q(t)
    np.add(q2, t, out=q2)
    q(q2)
    np.subtract(q2, up2, out=q2)
    q(q2)
    np.multiply(sixth, q2, out=q2)
    q(q2)

    # smoothness indicators: beta_k = 13/12 d1^2 + 1/4 d2^2
    c1312 = q.const(13.0 / 12.0)
    quarter = q.const(0.25)
    t2 = o((*key, "t2"), shp)
    d1 = np.multiply(q.const(2.0), um1, out=t)
    q(d1)
    d1 = np.subtract(um2, d1, out=d1)
    q(d1)
    d1 = np.add(d1, u0, out=d1)
    q(d1)
    beta0 = np.multiply(d1, d1, out=o((*key, "b0"), shp))
    q(beta0)
    np.multiply(c1312, beta0, out=beta0)
    q(beta0)
    d2 = np.multiply(q.const(4.0), um1, out=t)
    q(d2)
    d2 = np.subtract(um2, d2, out=d2)
    q(d2)
    u3 = np.multiply(q.const(3.0), u0, out=t2)
    q(u3)
    d2 = np.add(d2, u3, out=d2)
    q(d2)
    sq = np.multiply(d2, d2, out=d2)
    q(sq)
    np.multiply(quarter, sq, out=sq)
    q(sq)
    np.add(beta0, sq, out=beta0)
    q(beta0)

    d1 = np.multiply(q.const(2.0), u0, out=t)
    q(d1)
    d1 = np.subtract(um1, d1, out=d1)
    q(d1)
    d1 = np.add(d1, up1, out=d1)
    q(d1)
    beta1 = np.multiply(d1, d1, out=o((*key, "b1"), shp))
    q(beta1)
    np.multiply(c1312, beta1, out=beta1)
    q(beta1)
    d2 = np.subtract(um1, up1, out=t)
    q(d2)
    sq = np.multiply(d2, d2, out=d2)
    q(sq)
    np.multiply(quarter, sq, out=sq)
    q(sq)
    np.add(beta1, sq, out=beta1)
    q(beta1)

    d1 = np.multiply(q.const(2.0), up1, out=t)
    q(d1)
    d1 = np.subtract(u0, d1, out=d1)
    q(d1)
    d1 = np.add(d1, up2, out=d1)
    q(d1)
    beta2 = np.multiply(d1, d1, out=o((*key, "b2"), shp))
    q(beta2)
    np.multiply(c1312, beta2, out=beta2)
    q(beta2)
    a3 = np.multiply(q.const(3.0), u0, out=t)
    q(a3)
    b4 = np.multiply(q.const(4.0), up1, out=t2)
    q(b4)
    d2 = np.subtract(a3, b4, out=a3)
    q(d2)
    d2 = np.add(d2, up2, out=d2)
    q(d2)
    sq = np.multiply(d2, d2, out=d2)
    q(sq)
    np.multiply(quarter, sq, out=sq)
    q(sq)
    np.add(beta2, sq, out=beta2)
    q(beta2)

    # nonlinear weights: w_k = c_k / (eps + beta_k)^2.  In a narrow-exponent
    # format (e5m2) the rounded (eps + beta)^2 flushes to zero, so the
    # weights and their combination turn inf/NaN: that is the format's real
    # behaviour, which the instrumented plane computes as well, not an
    # error of this kernel.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.add(eps, beta0, out=beta0)
        q(beta0)
        np.square(beta0, out=beta0)
        q(beta0)
        w0 = np.divide(q.const(0.1), beta0, out=beta0)
        q(w0)
        np.add(eps, beta1, out=beta1)
        q(beta1)
        np.square(beta1, out=beta1)
        q(beta1)
        w1 = np.divide(q.const(0.6), beta1, out=beta1)
        q(w1)
        np.add(eps, beta2, out=beta2)
        q(beta2)
        np.square(beta2, out=beta2)
        q(beta2)
        w2 = np.divide(q.const(0.3), beta2, out=beta2)
        q(w2)

        wsum = np.add(w0, w1, out=t)
        q(wsum)
        np.add(wsum, w2, out=wsum)
        q(wsum)
        num = np.multiply(w0, q0, out=q0)
        q(num)
        t2 = np.multiply(w1, q1, out=q1)
        q(t2)
        np.add(num, t2, out=num)
        q(num)
        t2 = np.multiply(w2, q2, out=q2)
        q(t2)
        np.add(num, t2, out=num)
        q(num)
        if out is None:
            out = o((*key, "res"), shp)
        out = np.divide(num, wsum, out=out)
    return q(out)


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


def weno5(u: np.ndarray, axis: int, ng: int, n: int, ws=None, key=(), *,
          q=EXACT) -> Tuple[np.ndarray, np.ndarray]:
    """Fifth-order WENO reconstruction at the interior faces, fused: the
    left and right edges in one stacked :func:`weno5_edge` call."""
    edges = weno5_edge(*weno5_operands(u, axis, ng, n, ws, key), ws, (*key, "e"), q=q)
    return edges[0], edges[1]


#: scheme name -> fused implementation (same keys as reconstruction.SCHEMES)
FUSED_SCHEMES = {"pcm": pcm, "plm": plm, "weno5": weno5}
