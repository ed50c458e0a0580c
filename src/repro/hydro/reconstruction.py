"""Interface-state reconstruction schemes.

The Spark solver in Flash-X reconstructs the variation of the solution inside
each cell before handing left/right interface states to the Riemann solver.
Three schemes are provided, in increasing order of accuracy and cost:

* ``pcm``   — piecewise constant (first order; mainly for tests),
* ``plm``   — piecewise linear with minmod limiting (second order),
* ``weno5`` — fifth-order Weighted Essentially Non-Oscillatory (the scheme
  the paper uses for the Bubble advection operators and the highest-order
  option for the compressible runs).

All arithmetic is expressed through the numerics context obtained from the
kernel-plane layer (:mod:`repro.kernels`), so the reconstruction stage can
be truncated, shadow-tracked (mem-mode "Recon" module of Table 2) or
excluded, independently of the other solver stages.  :func:`reconstruct`
computes op by op through the context it is given; the pre-fused stencils
of :mod:`repro.kernels.fused` are called by the fused block update, never
from here.

The functions operate on 2-D block arrays including guard cells along the
sweep axis and return the left/right states at the ``n+1`` interior faces.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from ..kernels import FPContext

__all__ = ["reconstruct", "SCHEMES", "GUARD_CELLS", "check_scheme"]

_WENO_EPS = 1e-6


def _shift(u, axis: int, offset: int, ng: int, n: int):
    """Cells ``i + offset`` for the cell range used by face reconstruction.

    The face index f = 0..n corresponds to cells ``ng - 1 + f`` (left side of
    the face) so a window of length ``n + 1`` starting at ``ng - 1 + offset``
    is extracted along ``axis``.
    """
    start = ng - 1 + offset
    stop = start + n + 1
    if axis == 0:
        return u[start:stop, :]
    return u[:, start:stop]


def _pcm(u, axis: int, ng: int, n: int, ctx: FPContext):
    left = _shift(u, axis, 0, ng, n)
    right = _shift(u, axis, 1, ng, n)
    # piecewise constant: the interface states are the adjacent cell values
    return left, right


def _minmod(a, b, ctx: FPContext):
    """minmod(a, b): 0 where signs differ, otherwise the smaller magnitude."""
    same_sign = ctx.mul(a, b, "recon:minmod_ab") > 0.0
    mag = ctx.where(abs_lt(a, b, ctx), a, b)
    zero = ctx.zeros_like(mag)
    return ctx.where(same_sign, mag, zero)


def abs_lt(a, b, ctx: FPContext):
    """|a| < |b| as a boolean array (no FLOPs counted: predicate only)."""
    return ctx.asplain(ctx.abs(a, "recon:abs_a")) < ctx.asplain(ctx.abs(b, "recon:abs_b"))


def _plm(u, axis: int, ng: int, n: int, ctx: FPContext):
    um1 = _shift(u, axis, -1, ng, n)
    uc = _shift(u, axis, 0, ng, n)
    up1 = _shift(u, axis, 1, ng, n)
    up2 = _shift(u, axis, 2, ng, n)

    # limited slopes in the cells left and right of each face
    dl_left = ctx.sub(uc, um1, "recon:dl_left")
    dr_left = ctx.sub(up1, uc, "recon:dr_left")
    slope_left = _minmod(dl_left, dr_left, ctx)

    dl_right = ctx.sub(up1, uc, "recon:dl_right")
    dr_right = ctx.sub(up2, up1, "recon:dr_right")
    slope_right = _minmod(dl_right, dr_right, ctx)

    half = ctx.const(0.5)
    left = ctx.add(uc, ctx.mul(half, slope_left, "recon:half_sl"), "recon:left")
    right = ctx.sub(up1, ctx.mul(half, slope_right, "recon:half_sr"), "recon:right")
    return left, right


def _weno5_edge(um2, um1, u0, up1, up2, ctx: FPContext):
    """Jiang–Shu WENO5 reconstruction of the right-edge value of cell 0."""
    c = ctx.const

    q0 = ctx.mul(
        c(1.0 / 6.0),
        ctx.add(
            ctx.sub(ctx.mul(c(2.0), um2, "recon:w_q0a"), ctx.mul(c(7.0), um1, "recon:w_q0b"), "recon:w_q0c"),
            ctx.mul(c(11.0), u0, "recon:w_q0d"),
            "recon:w_q0",
        ),
        "recon:w_q0e",
    )
    q1 = ctx.mul(
        c(1.0 / 6.0),
        ctx.add(
            ctx.sub(ctx.mul(c(5.0), u0, "recon:w_q1a"), um1, "recon:w_q1b"),
            ctx.mul(c(2.0), up1, "recon:w_q1c"),
            "recon:w_q1",
        ),
        "recon:w_q1d",
    )
    q2 = ctx.mul(
        c(1.0 / 6.0),
        ctx.sub(
            ctx.add(ctx.mul(c(2.0), u0, "recon:w_q2a"), ctx.mul(c(5.0), up1, "recon:w_q2b"), "recon:w_q2c"),
            up2,
            "recon:w_q2",
        ),
        "recon:w_q2d",
    )

    # smoothness indicators
    d1_0 = ctx.add(ctx.sub(um2, ctx.mul(c(2.0), um1, "recon:w_b0a"), "recon:w_b0b"), u0, "recon:w_b0c")
    d2_0 = ctx.add(ctx.sub(um2, ctx.mul(c(4.0), um1, "recon:w_b0d"), "recon:w_b0e"), ctx.mul(c(3.0), u0, "recon:w_b0f"), "recon:w_b0g")
    beta0 = ctx.add(
        ctx.mul(c(13.0 / 12.0), ctx.mul(d1_0, d1_0, "recon:w_b0h"), "recon:w_b0i"),
        ctx.mul(c(0.25), ctx.mul(d2_0, d2_0, "recon:w_b0j"), "recon:w_b0k"),
        "recon:w_beta0",
    )

    d1_1 = ctx.add(ctx.sub(um1, ctx.mul(c(2.0), u0, "recon:w_b1a"), "recon:w_b1b"), up1, "recon:w_b1c")
    d2_1 = ctx.sub(um1, up1, "recon:w_b1d")
    beta1 = ctx.add(
        ctx.mul(c(13.0 / 12.0), ctx.mul(d1_1, d1_1, "recon:w_b1e"), "recon:w_b1f"),
        ctx.mul(c(0.25), ctx.mul(d2_1, d2_1, "recon:w_b1g"), "recon:w_b1h"),
        "recon:w_beta1",
    )

    d1_2 = ctx.add(ctx.sub(u0, ctx.mul(c(2.0), up1, "recon:w_b2a"), "recon:w_b2b"), up2, "recon:w_b2c")
    d2_2 = ctx.add(ctx.sub(ctx.mul(c(3.0), u0, "recon:w_b2d"), ctx.mul(c(4.0), up1, "recon:w_b2e"), "recon:w_b2f"), up2, "recon:w_b2g")
    beta2 = ctx.add(
        ctx.mul(c(13.0 / 12.0), ctx.mul(d1_2, d1_2, "recon:w_b2h"), "recon:w_b2i"),
        ctx.mul(c(0.25), ctx.mul(d2_2, d2_2, "recon:w_b2j"), "recon:w_b2k"),
        "recon:w_beta2",
    )
    eps = c(_WENO_EPS)
    with np.errstate(divide="ignore", invalid="ignore"):  # e5m2: (eps + beta)^2 may flush to 0
        w0 = ctx.div(c(0.1), ctx.square(ctx.add(eps, beta0, "recon:w_a0a"), "recon:w_a0b"), "recon:w_alpha0")
        w1 = ctx.div(c(0.6), ctx.square(ctx.add(eps, beta1, "recon:w_a1a"), "recon:w_a1b"), "recon:w_alpha1")
        w2 = ctx.div(c(0.3), ctx.square(ctx.add(eps, beta2, "recon:w_a2a"), "recon:w_a2b"), "recon:w_alpha2")

        wsum = ctx.add(ctx.add(w0, w1, "recon:w_sum01"), w2, "recon:w_sum")
        num = ctx.add(
            ctx.add(ctx.mul(w0, q0, "recon:w_n0"), ctx.mul(w1, q1, "recon:w_n1"), "recon:w_n01"),
            ctx.mul(w2, q2, "recon:w_n2"),
            "recon:w_num",
        )
        return ctx.div(num, wsum, "recon:w_edge")


def _weno5(u, axis: int, ng: int, n: int, ctx: FPContext):
    um2 = _shift(u, axis, -2, ng, n)
    um1 = _shift(u, axis, -1, ng, n)
    uc = _shift(u, axis, 0, ng, n)
    up1 = _shift(u, axis, 1, ng, n)
    up2 = _shift(u, axis, 2, ng, n)
    up3 = _shift(u, axis, 3, ng, n)

    # left state at face i+1/2: right-edge value of cell i
    left = _weno5_edge(um2, um1, uc, up1, up2, ctx)
    # right state at face i+1/2: left-edge value of cell i+1 (mirror)
    right = _weno5_edge(up3, up2, up1, uc, um1, ctx)
    return left, right


SCHEMES = {"pcm": _pcm, "plm": _plm, "weno5": _weno5}

#: the fewest guard cells each scheme's stencil reads beyond a block edge
GUARD_CELLS = {"pcm": 1, "plm": 2, "weno5": 3}


def check_scheme(scheme: str, ng: Optional[int] = None) -> None:
    """Raise ``ValueError`` unless ``scheme`` is a known reconstruction
    scheme and, when ``ng`` is given, can reconstruct a block with ``ng``
    guard cells."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown reconstruction scheme {scheme!r}")
    if ng is not None and ng < GUARD_CELLS[scheme]:
        raise ValueError(f"{scheme} needs at least {GUARD_CELLS[scheme]} guard cells")


def reconstruct(
    u,
    axis: int,
    ng: int,
    n_faces_minus_1: int,
    ctx: FPContext,
    scheme: str = "plm",
) -> Tuple[object, object]:
    """Left/right interface states at the interior faces along ``axis``.

    Parameters
    ----------
    u:
        Block array (guard cells included along ``axis``).
    axis:
        0 for an x-sweep, 1 for a y-sweep.
    ng:
        Guard-cell width of ``u`` along ``axis`` (at least
        ``GUARD_CELLS[scheme]``).
    n_faces_minus_1:
        Number of interior cells along the sweep (there are ``n+1`` faces).
    ctx:
        Numerics context (op-mode, mem-mode, or full precision).
    scheme:
        "pcm", "plm" or "weno5".
    """
    check_scheme(scheme, ng)
    return SCHEMES[scheme](u, axis, ng, n_faces_minus_1, ctx)
