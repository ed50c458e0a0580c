"""The fused bubble plane: scratch-buffered twins of the incompressible
solver's hot operators.

PRs 4–7 fused the compressible hot path (reconstruction, Riemann/EOS,
guard fills); the rising-bubble solver of :mod:`repro.incomp` — the
paper's Figure 1 showcase — still ran its advection, diffusion, level-set
and projection operators op-by-op through per-op context dispatch on
every plane.  This module closes that gap with straight-line numpy twins
of every hot bubble operator, threading all intermediates through a
:class:`~repro.kernels.scratch.Workspace` exactly like
:mod:`repro.kernels.flux` does, gated by ``RAPTOR_FAST_NO_BUBBLE``
(:func:`~repro.kernels.scratch.bubble_plane_enabled`).

Two kinds of operator live here:

* **the truncation targets** — the WENO5/upwind advection derivatives,
  the advection total, diffusion and level-set transport — are written
  once against a rounder ``q`` (:mod:`repro.kernels.trunc`).  With the
  default :data:`~repro.kernels.trunc.EXACT` (contexts carrying the
  ``fused`` flag, :class:`~repro.kernels.fast.FastPlaneContext`) each
  evaluates exactly the same ufuncs on the same operands as its op-by-op
  twin.  With a :class:`~repro.kernels.trunc.Round` (``fused_trunc``,
  :class:`~repro.kernels.trunc.TruncFastPlaneContext`) every arithmetic
  result is rounded in place — the exact boundaries the optimized
  :class:`~repro.core.opmode.TruncatedContext` rounds at — while
  ``where``/comparison/constant fills stay quantise-closed, and constants
  are computed in binary64 first and rounded once, matching
  ``TruncatedContext.const``.  Either way the results are bit-identical.
* **the context-free operators** (Heaviside/delta/material fields,
  curvature, surface tension, buoyancy, reinitialisation, the
  :func:`np.gradient` twin of the projection step) never touch a context
  at all, so — like the grid side — they run on *every* plane when the
  knob is on and instrumented counters stay byte-identical.

Boundary subtlety the twins preserve bit-for-bit: the *momentum* upwind
and WENO5 stencils of ``incomp/solver.py`` are edge-padded (walls), while
the *level-set* module's ``_upwind_derivative`` and ``reinitialize`` use
``np.roll`` (periodic wrap).  :func:`upwind_derivative` therefore takes an
explicit ``boundary`` argument (``"edge"`` consumes a caller-supplied
padding from :func:`repro.kernels.grid.pad_edge`; ``"wrap"`` rolls into
scratch), and :func:`reinitialize` keeps the roll-based Godunov loop —
including its subtract-then-*divide* spacing order, which is not the same
bits as multiplying by a reciprocal.

Workspace lifecycle: every function takes ``ws=`` plus a call-site ``key``
and derives all internal buffer keys from it, so simultaneously-live
results (``adv_u`` vs ``adv_v``, the truncated and full-precision sides of
a blended evaluation) never alias as long as call sites pass distinct
keys; truncating evaluations additionally prefix their keys with ``"T"``
so a blended cell can hold both evaluations at once.  Results that become
solver *state* (the advected/reinitialised level set) are fresh
allocations; everything else, including returned operator fields, lives in
scratch and is only valid until the same call site runs again.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import fused
from .fused import where
from .scratch import Workspace, buffer
from .scratch import out_accessor as _o
# ``quantize_into`` stays importable here because perfbench/bench_trace.py
# wraps it by name; every rounding of these kernels resolves it through
# ``repro.kernels.trunc``
from .trunc import EXACT, Exact, quantize_into  # noqa: F401

__all__ = [
    "roll1",
    "gradient_axis",
    "heaviside",
    "delta",
    "material_field",
    "curvature",
    "reinitialize",
    "surface_tension",
    "buoyancy",
    "weno5_derivative",
    "weno5_derivative_pair",
    "upwind_derivative",
    "advection_term",
    "diffusion_term",
    "levelset_advect",
]


# ---------------------------------------------------------------------------
# data-movement helpers
# ---------------------------------------------------------------------------
def roll1(arr: np.ndarray, shift: int, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.roll(arr, shift, axis)`` for 2-D arrays and ``shift`` in {±1},
    into a preallocated buffer.  Pure data movement — bitwise trivial."""
    if out is None:
        return np.roll(arr, shift, axis)
    if axis == 0:
        if shift == 1:
            out[1:, :] = arr[:-1, :]
            out[0, :] = arr[-1, :]
        else:
            out[:-1, :] = arr[1:, :]
            out[-1, :] = arr[0, :]
    else:
        if shift == 1:
            out[:, 1:] = arr[:, :-1]
            out[:, 0] = arr[:, -1]
        else:
            out[:, :-1] = arr[:, 1:]
            out[:, -1] = arr[:, 0]
    return out


def gradient_axis(f: np.ndarray, spacing: float, axis: int, ws: Optional[Workspace] = None,
                  key=("grad",)) -> np.ndarray:
    """``np.gradient(f, spacing, axis=axis)`` (default ``edge_order=1``),
    bit-identical: second-order central differences in the interior —
    subtract, then divide by ``2. * spacing`` — and first-order one-sided
    differences at the two boundary slices."""
    o = _o(ws)
    out = o((*key, "res"), f.shape)
    if out is None:
        out = np.empty_like(np.asarray(f, dtype=np.float64))
    if axis == 0:
        np.subtract(f[2:, :], f[:-2, :], out=out[1:-1, :])
        np.divide(out[1:-1, :], 2.0 * spacing, out=out[1:-1, :])
        np.subtract(f[1, :], f[0, :], out=out[0, :])
        np.divide(out[0, :], spacing, out=out[0, :])
        np.subtract(f[-1, :], f[-2, :], out=out[-1, :])
        np.divide(out[-1, :], spacing, out=out[-1, :])
    else:
        np.subtract(f[:, 2:], f[:, :-2], out=out[:, 1:-1])
        np.divide(out[:, 1:-1], 2.0 * spacing, out=out[:, 1:-1])
        np.subtract(f[:, 1], f[:, 0], out=out[:, 0])
        np.divide(out[:, 0], spacing, out=out[:, 0])
        np.subtract(f[:, -1], f[:, -2], out=out[:, -1])
        np.divide(out[:, -1], spacing, out=out[:, -1])
    return out


# ---------------------------------------------------------------------------
# phase indicators and material properties (context-free, every plane)
# ---------------------------------------------------------------------------
def heaviside(p: np.ndarray, eps: float, ws: Optional[Workspace] = None, key=("hv",)) -> np.ndarray:
    """Twin of ``LevelSet.heaviside``:
    ``clip(where(p > eps, 1, where(p < -eps, 0, h)), 0, 1)`` with
    ``h = 0.5 * (1 + p/eps + sin(pi*p/eps)/pi)``."""
    o = _o(ws)
    shp = p.shape
    t = np.divide(p, eps, out=o((*key, "t"), shp))
    h = np.add(1.0, t, out=t)
    s = np.multiply(np.pi, p, out=o((*key, "s"), shp))
    s = np.divide(s, eps, out=s)
    s = np.sin(s, out=s)
    s = np.divide(s, np.pi, out=s)
    h = np.add(h, s, out=h)
    h = np.multiply(0.5, h, out=h)
    # the two where() branches are disjoint, so masked fills reproduce the
    # nested np.where exactly
    cond = np.less(p, -eps, out=o((*key, "c"), shp, bool))
    if cond is None:
        cond = np.less(p, -eps)
    np.copyto(h, 0.0, where=cond)
    cond = np.greater(p, eps, out=cond)
    np.copyto(h, 1.0, where=cond)
    return np.clip(h, 0.0, 1.0, out=h)


def delta(p: np.ndarray, eps: float, ws: Optional[Workspace] = None, key=("dl",)) -> np.ndarray:
    """Twin of ``LevelSet.delta``: ``where(|p| <= eps, d, 0)`` with
    ``d = 0.5/eps * (1 + cos(pi*p/eps))``."""
    o = _o(ws)
    shp = p.shape
    d = np.multiply(np.pi, p, out=o((*key, "d"), shp))
    d = np.divide(d, eps, out=d)
    d = np.cos(d, out=d)
    d = np.add(1.0, d, out=d)
    d = np.multiply(0.5 / eps, d, out=d)
    a = np.abs(p, out=o((*key, "a"), shp))
    outside = np.greater(a, eps, out=o((*key, "c"), shp, bool))
    if outside is None:
        outside = np.greater(a, eps)
    np.copyto(d, 0.0, where=outside)
    return d


def material_field(p: np.ndarray, eps: float, a_liquid: float, a_gas: float,
                   ws: Optional[Workspace] = None, key=("mat",)) -> np.ndarray:
    """Twin of ``LevelSet.density`` / ``LevelSet.viscosity``:
    ``a_liquid + (a_gas - a_liquid) * heaviside(p)``."""
    h = heaviside(p, eps, ws=ws, key=(*key, "h"))
    h = np.multiply(a_gas - a_liquid, h, out=h)
    return np.add(a_liquid, h, out=h)


def curvature(phi: np.ndarray, dx: float, dy: float, ws: Optional[Workspace] = None,
              key=("curv",)) -> np.ndarray:
    """Twin of ``LevelSet.curvature``: roll-based central differences,
    kappa = div(grad phi / |grad phi|)."""
    o = _o(ws)
    shp = phi.shape
    rm = roll1(phi, -1, 0, o((*key, "r1"), shp))
    rp = roll1(phi, 1, 0, o((*key, "r2"), shp))
    px = np.subtract(rm, rp, out=o((*key, "px"), shp))
    px = np.divide(px, 2 * dx, out=px)
    rm = roll1(phi, -1, 1, o((*key, "r1"), shp))
    rp = roll1(phi, 1, 1, o((*key, "r2"), shp))
    py = np.subtract(rm, rp, out=o((*key, "py"), shp))
    py = np.divide(py, 2 * dy, out=py)
    mag = np.square(px, out=o((*key, "m"), shp))
    t = np.square(py, out=o((*key, "t"), shp))
    mag = np.add(mag, t, out=mag)
    mag = np.sqrt(mag, out=mag)
    mag = np.add(mag, 1e-12, out=mag)
    nx = np.divide(px, mag, out=px)
    ny = np.divide(py, mag, out=py)
    rm = roll1(nx, -1, 0, o((*key, "r1"), shp))
    rp = roll1(nx, 1, 0, o((*key, "r2"), shp))
    tx = np.subtract(rm, rp, out=o((*key, "tx"), shp))
    tx = np.divide(tx, 2 * dx, out=tx)
    rm = roll1(ny, -1, 1, o((*key, "r1"), shp))
    rp = roll1(ny, 1, 1, o((*key, "r2"), shp))
    ty = np.subtract(rm, rp, out=o((*key, "ty"), shp))
    ty = np.divide(ty, 2 * dy, out=ty)
    res = np.add(tx, ty, out=o((*key, "res"), shp))
    return res if res is not None else np.add(tx, ty)


# ---------------------------------------------------------------------------
# reinitialisation (context-free Godunov Hamiltonian loop, every plane)
# ---------------------------------------------------------------------------
def reinitialize(phi: np.ndarray, dx: float, dy: float, iterations: int = 10,
                 cfl: float = 0.3, ws: Optional[Workspace] = None, key=("reinit",)) -> np.ndarray:
    """Twin of ``LevelSet.reinitialize``: the Sussman PDE
    ``phi_tau = S(phi0) (1 - |grad phi|)`` with the roll-based Godunov
    Hamiltonian.  The spacing enters by *division* (not reciprocal
    multiplication) and the update is the left-associated
    ``phi - (dtau * sgn) * (grad - 1)``, both preserved bit-for-bit.
    Returns a fresh array (it becomes ``LevelSet.phi``); ``iterations=0``
    returns ``phi`` itself, like the reference loop."""
    if iterations <= 0:
        return phi
    o = _o(ws)
    shp = phi.shape
    # S(phi0) and the positivity mask depend only on the original field;
    # the reference recomputes dtau*sgn and phi0 > 0 per iteration, but
    # both are loop-invariant binary64 values, so hoisting them is exact
    sgn = np.square(phi, out=o((*key, "sgn"), shp))
    sgn = np.add(sgn, max(dx, dy) ** 2, out=sgn)
    sgn = np.sqrt(sgn, out=sgn)
    sgn = np.divide(phi, sgn, out=sgn)
    dtau = cfl * min(dx, dy)
    dsgn = np.multiply(dtau, sgn, out=sgn)
    pos = np.greater(phi, 0, out=o((*key, "pos"), shp, bool))
    if pos is None:
        pos = np.greater(phi, 0)

    cur = phi
    for it in range(iterations):
        r = roll1(cur, 1, 0, o((*key, "r"), shp))
        dxm = np.subtract(cur, r, out=o((*key, "dxm"), shp))
        dxm = np.divide(dxm, dx, out=dxm)
        r = roll1(cur, -1, 0, o((*key, "r"), shp))
        dxp = np.subtract(r, cur, out=o((*key, "dxp"), shp))
        dxp = np.divide(dxp, dx, out=dxp)
        r = roll1(cur, 1, 1, o((*key, "r"), shp))
        dym = np.subtract(cur, r, out=o((*key, "dym"), shp))
        dym = np.divide(dym, dy, out=dym)
        r = roll1(cur, -1, 1, o((*key, "r"), shp))
        dyp = np.subtract(r, cur, out=o((*key, "dyp"), shp))
        dyp = np.divide(dyp, dy, out=dyp)

        # Godunov Hamiltonian: max(max(a,0)^2, min(b,0)^2) per direction
        t1 = np.maximum(dxm, 0.0, out=o((*key, "t1"), shp))
        t1 = np.square(t1, out=t1)
        t2 = np.minimum(dxp, 0.0, out=o((*key, "t2"), shp))
        t2 = np.square(t2, out=t2)
        gp = np.maximum(t1, t2, out=o((*key, "gp"), shp))
        t1 = np.maximum(dym, 0.0, out=t1)
        t1 = np.square(t1, out=t1)
        t2 = np.minimum(dyp, 0.0, out=t2)
        t2 = np.square(t2, out=t2)
        t1 = np.maximum(t1, t2, out=t1)
        gp = np.add(gp, t1, out=gp)
        gp = np.sqrt(gp, out=gp)

        t1 = np.minimum(dxm, 0.0, out=t1)
        t1 = np.square(t1, out=t1)
        t2 = np.maximum(dxp, 0.0, out=t2)
        t2 = np.square(t2, out=t2)
        gn = np.maximum(t1, t2, out=o((*key, "gn"), shp))
        t1 = np.minimum(dym, 0.0, out=t1)
        t1 = np.square(t1, out=t1)
        t2 = np.maximum(dyp, 0.0, out=t2)
        t2 = np.square(t2, out=t2)
        t1 = np.maximum(t1, t2, out=t1)
        gn = np.add(gn, t1, out=gn)
        gn = np.sqrt(gn, out=gn)

        grad = where(pos, gp, gn, out=o((*key, "grad"), shp))
        upd = np.subtract(grad, 1.0, out=grad)
        upd = np.multiply(dsgn, upd, out=upd)
        if it == iterations - 1:
            cur = np.subtract(cur, upd)  # fresh: becomes LevelSet.phi
        else:
            cur = np.subtract(cur, upd, out=o((*key, "phi", it % 2), shp))
    return cur


# ---------------------------------------------------------------------------
# forces (context-free, full precision on every plane)
# ---------------------------------------------------------------------------
def buoyancy(phi: np.ndarray, eps: float, gravity: float, rho_gas: float,
             ws: Optional[Workspace] = None, key=("buoy",)) -> np.ndarray:
    """Twin of ``BubbleSolver._buoyancy``: ``gravity * (1 - rho)`` with
    ``rho = material_field(phi, 1, rho_gas)``."""
    rho = material_field(phi, eps, 1.0, rho_gas, ws=ws, key=(*key, "rho"))
    t = np.subtract(1.0, rho, out=rho)
    return np.multiply(gravity, t, out=t)


def surface_tension(phi: np.ndarray, eps: float, sigma: float, dx: float, dy: float,
                    ws: Optional[Workspace] = None, key=("st",)) -> Tuple[np.ndarray, np.ndarray]:
    """Twin of ``BubbleSolver._surface_tension`` (continuum surface force):
    ``f = sigma * kappa * delta(phi) * grad(phi) / (|grad(phi)| + 1e-12)``.
    The shared ``sigma*kappa*delta`` factor is hoisted — binary64 ops are
    deterministic, so reusing it is exact."""
    kappa = curvature(phi, dx, dy, ws=ws, key=(*key, "k"))
    dl = delta(phi, eps, ws=ws, key=(*key, "d"))
    gx = gradient_axis(phi, dx, 0, ws=ws, key=(*key, "gx"))
    gy = gradient_axis(phi, dy, 1, ws=ws, key=(*key, "gy"))
    o = _o(ws)
    shp = phi.shape
    mag = np.square(gx, out=o((*key, "m"), shp))
    t = np.square(gy, out=o((*key, "t"), shp))
    mag = np.add(mag, t, out=mag)
    mag = np.sqrt(mag, out=mag)
    mag = np.add(mag, 1e-12, out=mag)
    common = np.multiply(sigma, kappa, out=kappa)
    common = np.multiply(common, dl, out=common)
    fx = np.multiply(common, gx, out=gx)
    fx = np.divide(fx, mag, out=fx)
    fy = np.multiply(common, gy, out=gy)
    fy = np.divide(fy, mag, out=fy)
    return fx, fy


# ---------------------------------------------------------------------------
# advection derivatives (truncation targets: fast + truncating twins)
# ---------------------------------------------------------------------------
def _weno_cells(padded: np.ndarray, axis: int, offset: int) -> np.ndarray:
    sl = [slice(3, -3), slice(3, -3)]
    sl[axis] = slice(3 + offset, padded.shape[axis] - 3 + offset)
    return padded[tuple(sl)]


#: stencil-argument order (indices into the (um3..up2) cell windows) for the
#: four WENO5 edge reconstructions lm / lp / rm / rp of the upwind split
_WENO_EDGE_ARGS = (
    (0, 1, 2, 3, 4),  # lm: edge(um3, um2, um1, u0, up1)
    (1, 2, 3, 4, 5),  # lp: edge(um2, um1, u0, up1, up2)
    (4, 3, 2, 1, 0),  # rm: edge(up1, u0, um1, um2, um3)
    (5, 4, 3, 2, 1),  # rp: edge(up2, up1, u0, um1, um2)
)


def _weno_stack(padded, axis, ws, key):
    """Copy the four edges' five stencil operands into one ``(5, 4, nx, ny)``
    batch so a single elementwise ``weno5_edge`` call reconstructs all four
    edges at once.  Ufuncs act elementwise, so row ``e`` of the batched
    result is bit-identical to the standalone ``edge(...)`` call it packs."""
    cells = tuple(_weno_cells(padded, axis, k) for k in (-3, -2, -1, 0, 1, 2))
    shp = cells[0].shape
    stack = buffer(ws, (*key, "st"), (5, 4) + shp)
    for s in range(5):
        for e in range(4):
            np.copyto(stack[s, e], cells[_WENO_EDGE_ARGS[e][s]])
    return stack


def _weno_stack_pair(padded, ws, key):
    """Like :func:`_weno_stack`, but packs the axis-0 *and* axis-1 edge
    reconstructions of one padded field into a single ``(5, 8, nx, ny)``
    batch (rows ``2e`` / ``2e+1`` hold edge ``e`` along axis 0 / 1), so one
    ``weno5_edge`` call reconstructs all eight edges of the momentum
    advection at once."""
    cells = tuple(
        tuple(_weno_cells(padded, axis, k) for k in (-3, -2, -1, 0, 1, 2))
        for axis in (0, 1)
    )
    shp = cells[0][0].shape
    stack = buffer(ws, (*key, "st2"), (5, 8) + shp)
    for s in range(5):
        for e in range(4):
            np.copyto(stack[s, 2 * e], cells[0][_WENO_EDGE_ARGS[e][s]])
            np.copyto(stack[s, 2 * e + 1], cells[1][_WENO_EDGE_ARGS[e][s]])
    return stack


def _upwind_faces_pair(edges, velx, vely, ws, key):
    """Shared upwind face selection + face difference for the pair twins:
    ``edges`` is the ``(8, nx, ny)`` batched reconstruction; returns the
    ``(2, nx, ny)`` face difference ``f_plus - f_minus`` (row 0: axis 0)."""
    o = _o(ws)
    shp = edges.shape[1:]
    vs = buffer(ws, (*key, "vs"), (2,) + shp)
    np.copyto(vs[0], velx)
    np.copyto(vs[1], vely)
    up = np.greater(vs, 0.0, out=o((*key, "up"), (2,) + shp, bool))
    lm, lp, rm, rp = edges[0:2], edges[2:4], edges[4:6], edges[6:8]
    fm = where(up, lm, rm, out=o((*key, "fm"), (2,) + shp))
    fp = where(up, lp, rp, out=o((*key, "fp"), (2,) + shp))
    return np.subtract(fp, fm, out=fp)


def _scoped(key, q):
    """The scratch keys of an evaluation with rounder ``q``: a truncating
    one prefixes ``"T"``, so a blended cell can hold the truncated and the
    full-precision evaluation of one call site at once."""
    return key if isinstance(q, Exact) else ("T", *key)


def weno5_derivative_pair(padded: np.ndarray, velx: np.ndarray, vely: np.ndarray,
                          dx: float, dy: float,
                          ws: Optional[Workspace] = None, key=(), *,
                          q=EXACT) -> Tuple[np.ndarray, np.ndarray]:
    """Both momentum-advection WENO5 derivatives (``d f/dx``, ``d f/dy``) of
    one padded field in a single batched ``fused.weno5_edge`` call — row
    ``a`` of every elementwise intermediate (and rounding) carries exactly
    the bits of the standalone axis-``a`` :func:`weno5_derivative`."""
    key = _scoped(key, q)
    stack = _weno_stack_pair(padded, ws, key)
    edges = fused.weno5_edge(stack[0], stack[1], stack[2], stack[3], stack[4],
                             ws=ws, key=(*key, "e"), q=q)
    d = _upwind_faces_pair(edges, velx, vely, ws, key)
    d = q(d)
    np.multiply(d[0], q.const(1.0 / dx), out=d[0])
    np.multiply(d[1], q.const(1.0 / dy), out=d[1])
    d = q(d)
    return d[0], d[1]


def weno5_derivative(padded: np.ndarray, vel: np.ndarray, spacing: float, axis: int,
                     ws: Optional[Workspace] = None, key=(), *, q=EXACT) -> np.ndarray:
    """Twin of ``BubbleSolver._weno5_derivative`` (minus the padding, which
    the caller supplies): four WENO5 edge reconstructions batched into one
    stacked ``fused.weno5_edge`` call, upwind face selection,
    ``(f_plus - f_minus) * (1/spacing)`` — rounded after the face
    difference and the reciprocal-spacing multiply, the boundaries
    ``adv:face_diff`` / ``adv:weno_deriv`` round at.  Rounding is
    elementwise, so each batch row rounds exactly as its standalone edge
    call would."""
    key = _scoped(key, q)
    stack = _weno_stack(padded, axis, ws, key)
    edges = fused.weno5_edge(stack[0], stack[1], stack[2], stack[3], stack[4],
                             ws=ws, key=(*key, "e"), q=q)
    lm, lp, rm, rp = edges[0], edges[1], edges[2], edges[3]
    o = _o(ws)
    shp = lm.shape
    up = np.greater(vel, 0.0, out=o((*key, "up"), shp, bool))
    fm = where(up, lm, rm, out=o((*key, "fm"), shp))
    fp = where(up, lp, rp, out=o((*key, "fp"), shp))
    d = np.subtract(fp, fm, out=fp)
    d = q(d)
    d = np.multiply(d, q.const(1.0 / spacing), out=d)
    return q(d)


def _upwind_neighbours(f, axis, boundary, padded, o, key):
    if boundary == "edge":
        sl_c = [slice(1, -1), slice(1, -1)]
        sl_m = list(sl_c)
        sl_p = list(sl_c)
        sl_m[axis] = slice(0, -2)
        sl_p[axis] = slice(2, None)
        return padded[tuple(sl_m)], padded[tuple(sl_p)]
    if boundary == "wrap":
        fm = roll1(f, 1, axis, o((*key, "rm"), f.shape))
        fp = roll1(f, -1, axis, o((*key, "rp"), f.shape))
        return fm, fp
    raise ValueError(f"unknown boundary mode {boundary!r}")


def upwind_derivative(f: np.ndarray, vel: np.ndarray, spacing: float, axis: int,
                      boundary: str = "wrap", padded: Optional[np.ndarray] = None,
                      ws: Optional[Workspace] = None, key=(), *, q=EXACT) -> np.ndarray:
    """Twin of the shared first-order upwind derivative.

    ``boundary="edge"`` consumes a caller-supplied edge padding (the
    momentum stencil of ``incomp/solver.py``); ``boundary="wrap"`` rolls
    periodically (the level-set stencil).  Rounds after each difference
    and each reciprocal-spacing multiply (``adv:bwd_diff``/``adv:bwd``/
    ``adv:fwd_diff``/``adv:fwd``); the upwind selection is
    quantise-closed.  Operands stay raw, exactly like the optimized
    instrumented context.  Forward/backward differences are independent
    per-op computations, so their evaluation order does not affect the
    bits."""
    key = _scoped(key, q)
    o = _o(ws)
    shp = f.shape
    fm, fp = _upwind_neighbours(f, axis, boundary, padded, o, key)
    inv = q.const(1.0 / spacing)
    bwd = np.subtract(f, fm, out=o((*key, "bwd"), shp))
    bwd = q(bwd)
    bwd = np.multiply(bwd, inv, out=bwd)
    bwd = q(bwd)
    fwd = np.subtract(fp, f, out=o((*key, "fwd"), shp))
    fwd = q(fwd)
    fwd = np.multiply(fwd, inv, out=fwd)
    fwd = q(fwd)
    up = np.greater(vel, 0.0, out=o((*key, "up"), shp, bool))
    return where(up, bwd, fwd, out=o((*key, "res"), shp))


# ---------------------------------------------------------------------------
# the advection total u . grad(f)
# ---------------------------------------------------------------------------
def advection_term(fx: np.ndarray, fy: np.ndarray, velx: np.ndarray, vely: np.ndarray,
                   ws: Optional[Workspace] = None, key=(), *, q=EXACT) -> np.ndarray:
    """Tail of ``BubbleSolver.advection_term``: ``velx * fx + vely * fy``.
    ``fx``/``fy`` are derivative results owned by this evaluation and are
    consumed in place.  The velocities go through ``q.array`` (like
    ``ctx.const(self.velx)``), each product and the sum are rounded
    (``adv:u_fx``/``adv:v_fy``/``adv:total``)."""
    key = _scoped(key, q)
    o = _o(ws)
    shp = fx.shape
    qvx = q.array(velx, out=o((*key, "qvx"), shp))
    t1 = np.multiply(qvx, fx, out=fx)
    t1 = q(t1)
    qvy = q.array(vely, out=o((*key, "qvy"), shp))
    t2 = np.multiply(qvy, fy, out=fy)
    t2 = q(t2)
    res = np.add(t1, t2, out=o((*key, "res"), shp))
    return q(res)


# ---------------------------------------------------------------------------
# diffusion div(nu grad f)
# ---------------------------------------------------------------------------
_FACES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _shifted(arr, di, dj):
    return arr[1 + di:arr.shape[0] - 1 + di, 1 + dj:arr.shape[1] - 1 + dj]


def diffusion_term(f: np.ndarray, nu: np.ndarray, fp: np.ndarray, nup: np.ndarray,
                   dx: float, dy: float, ws: Optional[Workspace] = None, key=(), *,
                   q=EXACT) -> np.ndarray:
    """Twin of ``BubbleSolver.diffusion_term``: per face,
    ``0.5 * (nu + nu_shifted) * (f_shifted - f) / spacing^2``, accumulated
    over the four faces starting from zeros.  ``fp``/``nup`` are the
    caller-supplied edge paddings of ``f`` and ``nu``.

    ``nu``, ``f`` and each shifted padding go through ``q.array`` (the
    instrumented loop re-quantises ``nu``/``f`` per face, but quantisation
    is idempotent, so hoisting them is exact); every arithmetic op is
    rounded (``diff:nu_sum``/``diff:nu_face``/``diff:df``/``diff:grad``/
    ``diff:flux``/``diff:accum``), including the first accumulate onto the
    zero field."""
    key = _scoped(key, q)
    o = _o(ws)
    shp = f.shape
    qnu = q.array(nu, out=o((*key, "qnu"), shp))
    qf = q.array(f, out=o((*key, "qf"), shp))
    half = q.const(0.5)
    acc = o((*key, "res"), shp)
    if acc is None:
        acc = np.zeros(shp)
    else:
        acc.fill(0.0)
    for di, dj in _FACES:
        spacing = dx if dj == 0 else dy
        qns = q.array(_shifted(nup, di, dj), out=o((*key, "qns"), shp))
        s = np.add(qnu, qns, out=o((*key, "t1"), shp))
        s = q(s)
        nu_face = np.multiply(half, s, out=s)
        nu_face = q(nu_face)
        qfs = q.array(_shifted(fp, di, dj), out=o((*key, "qfs"), shp))
        g = np.subtract(qfs, qf, out=o((*key, "t2"), shp))
        g = q(g)
        g = np.multiply(g, q.const(1.0 / spacing ** 2), out=g)
        g = q(g)
        flx = np.multiply(nu_face, g, out=nu_face)
        flx = q(flx)
        acc = np.add(acc, flx, out=acc)
        acc = q(acc)
    return acc


# ---------------------------------------------------------------------------
# level-set transport (truncation target: roll-based upwind advection)
# ---------------------------------------------------------------------------
def levelset_advect(phi: np.ndarray, velx: np.ndarray, vely: np.ndarray, dt: float,
                    dx: float, dy: float, ws: Optional[Workspace] = None,
                    key=("lsadv",), *, q=EXACT) -> np.ndarray:
    """Twin of ``LevelSet.advect``:
    ``phi - dt * (velx * dphi/dx + vely * dphi/dy)`` with roll-based upwind
    derivatives.  ``phi`` goes through ``q.array`` first; the velocities
    stay raw operands exactly like the instrumented call sites
    (``ctx.mul(velx, dpx, ...)``); ``dt`` is a per-step scalar, rounded
    uncached.  Returns a fresh array (it becomes ``LevelSet.phi``)."""
    key = _scoped(key, q)
    o = _o(ws)
    shp = phi.shape
    qphi = q.array(phi, out=o((*key, "qphi"), shp))
    dpx = upwind_derivative(qphi, velx, dx, 0, "wrap", ws=ws, key=(*key, 0), q=q)
    dpy = upwind_derivative(qphi, vely, dy, 1, "wrap", ws=ws, key=(*key, 1), q=q)
    t1 = np.multiply(velx, dpx, out=dpx)
    t1 = q(t1)
    t2 = np.multiply(vely, dpy, out=dpy)
    t2 = q(t2)
    change = np.add(t1, t2, out=t1)
    change = q(change)
    m = np.multiply(q.dyn(dt), change, out=change)
    m = q(m)
    return q(np.subtract(qphi, m))
