"""The fused flux pipeline of the fast planes.

Straight-line numpy twins of the full compressible flux stack — the
gamma-law EOS helpers (:mod:`repro.hydro.eos`), the Davis/Einfeldt wave
speeds and the HLL/HLLC/HLLE Riemann solvers
(:mod:`repro.hydro.riemann`), and the whole per-block update of
:meth:`repro.hydro.solver.HydroSolver.advance_block` — so a complete
directional sweep (reconstruct → wave speeds → flux → update) runs without
a single context dispatch.

Each kernel is written once against a rounder ``q``
(:mod:`repro.kernels.trunc`) applied to the result of every arithmetic op.
The default :data:`~repro.kernels.trunc.EXACT` leaves every value as
computed: the binary64 fast plane.  A :class:`~repro.kernels.trunc.Round`
rounds each result to a format: the truncating fast plane.

Bit-identity contract
---------------------
Every value produced here is computed by **the same ufunc expression tree**
as its instrumented twin, rounded at the same op boundaries, so the
results are bitwise identical to the instrumented plane under the context
``q`` stands for.  Two deliberate liberties that preserve that contract:

* *Common subexpressions are evaluated once.*  The instrumented
  ``euler_flux`` recomputes the conserved state per side and ``hll_flux``
  re-multiplies ``sl*sr`` per component; recomputation of a deterministic
  expression yields the same bits, so the fused twins hoist them.
* *Temporaries are reused through ``out=``.*  ``out=`` never changes ufunc
  rounding, and the kernels never write into caller-owned arrays; with a
  :class:`~repro.kernels.scratch.Workspace` the steady-state pipeline runs
  with zero allocations (final outputs excepted — they must survive the
  next invocation, so they are always fresh).

All kernels operate on the *trailing* two dimensions, so stacked lanes
flow through unchanged — element-wise ufuncs and roundings are independent
per slot, which is what makes the hydro solver's batched block stepping
bit-identical to the per-block loop.  :func:`advance` stacks every lane a
substep has: same-shaped blocks of any AMR level (with per-block
``dx``/``dy``), the four primitive variables, and — for square blocks —
both sweep directions (:func:`sweep_inputs`).
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from . import fused
from .fused import where
from .scratch import Workspace, buffer
from .scratch import out_accessor as _o
from .trunc import EXACT

__all__ = [
    "FUSED_SOLVERS",
    "eos_sound_speed",
    "eos_internal_energy",
    "eos_total_energy",
    "eos_pressure_from_total_energy",
    "davis_wave_speeds",
    "einfeldt_wave_speeds",
    "conserved_state",
    "euler_flux",
    "hll_flux",
    "hllc_flux",
    "hlle_flux",
    "directional_flux",
    "advance",
]

#: flux components, in the order the instrumented solvers iterate them
COMPONENTS = ("dens", "momn", "momt", "ener")


# ---------------------------------------------------------------------------
# gamma-law EOS helpers (twins of repro.hydro.eos.GammaLawEOS)
# ---------------------------------------------------------------------------
def eos_sound_speed(dens, pres, gamma: float, ws=None, key=("cs",), *, q=EXACT):
    """c = sqrt(gamma * p / rho), fused."""
    o = _o(ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(pres))
    gp = np.multiply(q.const(gamma), pres, out=o((*key, "gp"), shp))
    q(gp)
    np.divide(gp, dens, out=gp)
    q(gp)
    np.sqrt(gp, out=gp)
    return q(gp)


def eos_internal_energy(dens, pres, gamma: float, ws=None, key=("eint",), *, q=EXACT):
    """e_int = p / ((gamma - 1) rho), fused."""
    o = _o(ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(pres))
    denom = np.multiply(q.const(gamma - 1.0), dens, out=o((*key, "denom"), shp))
    q(denom)
    np.divide(pres, denom, out=denom)
    return q(denom)


def eos_total_energy(dens, velx, vely, pres, gamma: float, ws=None, key=("etot",),
                     out=None, *, q=EXACT):
    """E = rho e_int + 0.5 rho (u^2 + v^2), fused."""
    o = _o(ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(velx), np.shape(vely), np.shape(pres))
    eint = eos_internal_energy(dens, pres, gamma, ws, (*key, "ei"), q=q)
    u2 = np.multiply(velx, velx, out=o((*key, "u2"), shp))
    q(u2)
    v2 = np.multiply(vely, vely, out=o((*key, "v2"), shp))
    q(v2)
    kin = np.add(u2, v2, out=u2)
    q(kin)
    np.multiply(dens, kin, out=kin)
    q(kin)
    ke = np.multiply(q.const(0.5), kin, out=kin)
    q(ke)
    rho_eint = np.multiply(dens, eint, out=eint)
    q(rho_eint)
    if out is None:
        out = o((*key, "res"), shp)
    out = np.add(rho_eint, ke, out=out)
    return q(out)


def eos_pressure_from_total_energy(dens, momx, momy, ener, gamma: float,
                                   pressure_floor: float, density_floor: float,
                                   ws=None, key=("pte",), out=None, *, q=EXACT):
    """Pressure from conserved variables (with floors), fused."""
    o = _o(ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(momx), np.shape(momy), np.shape(ener))
    dens_f = np.maximum(dens, q.const(density_floor), out=o((*key, "df"), shp))
    velx = np.divide(momx, dens_f, out=o((*key, "u"), shp))
    q(velx)
    vely = np.divide(momy, dens_f, out=o((*key, "v"), shp))
    q(vely)
    mu_u = np.multiply(momx, velx, out=velx)
    q(mu_u)
    mv_v = np.multiply(momy, vely, out=vely)
    q(mv_v)
    kin = np.add(mu_u, mv_v, out=mu_u)
    q(kin)
    ke = np.multiply(q.const(0.5), kin, out=kin)
    q(ke)
    eint_dens = np.subtract(ener, ke, out=ke)
    q(eint_dens)
    pres = np.multiply(q.const(gamma - 1.0), eint_dens, out=eint_dens)
    q(pres)
    if out is None:
        out = o((*key, "res"), shp)
    return np.maximum(pres, q.const(pressure_floor), out=out)


# ---------------------------------------------------------------------------
# wave-speed estimates
# ---------------------------------------------------------------------------
def davis_wave_speeds(left: Dict, right: Dict, gamma: float, ws=None, key=("dws",), *, q=EXACT):
    """Davis estimates S_L = min(ul-cl, ur-cr), S_R = max(ul+cl, ur+cr)."""
    o = _o(ws)
    cl = eos_sound_speed(left["dens"], left["pres"], gamma, ws, (*key, "cl"), q=q)
    cr = eos_sound_speed(right["dens"], right["pres"], gamma, ws, (*key, "cr"), q=q)
    shp = cl.shape
    a = np.subtract(left["velx"], cl, out=o((*key, "a"), shp))
    q(a)
    b = np.subtract(right["velx"], cr, out=o((*key, "b"), shp))
    q(b)
    sl = np.minimum(a, b, out=a)
    a2 = np.add(left["velx"], cl, out=cl)
    q(a2)
    b2 = np.add(right["velx"], cr, out=cr)
    q(b2)
    sr = np.maximum(a2, b2, out=a2)
    return sl, sr


def einfeldt_wave_speeds(left: Dict, right: Dict, gamma: float, ws=None, key=("ews",), *, q=EXACT):
    """Einfeldt (HLLE) estimates from Roe averages, fused twin of
    ``repro.hydro.riemann._einfeldt_wave_speeds``."""
    o = _o(ws)
    cl = eos_sound_speed(left["dens"], left["pres"], gamma, ws, (*key, "cl"), q=q)
    cr = eos_sound_speed(right["dens"], right["pres"], gamma, ws, (*key, "cr"), q=q)
    shp = cl.shape
    sql = np.sqrt(left["dens"], out=o((*key, "sql"), shp))
    q(sql)
    sqr = np.sqrt(right["dens"], out=o((*key, "sqr"), shp))
    q(sqr)
    wsum = np.add(sql, sqr, out=o((*key, "wsum"), shp))
    q(wsum)
    # Roe-averaged normal velocity
    n1 = np.multiply(sql, left["velx"], out=o((*key, "n1"), shp))
    q(n1)
    n2 = np.multiply(sqr, right["velx"], out=o((*key, "n2"), shp))
    q(n2)
    np.add(n1, n2, out=n1)
    q(n1)
    u_roe = np.divide(n1, wsum, out=n1)
    q(u_roe)
    # Roe-averaged sound speed with Einfeldt's eta2 velocity-jump term
    cl2 = np.multiply(cl, cl, out=o((*key, "cl2"), shp))
    q(cl2)
    cr2 = np.multiply(cr, cr, out=o((*key, "cr2"), shp))
    q(cr2)
    np.multiply(sql, cl2, out=cl2)
    q(cl2)
    np.multiply(sqr, cr2, out=cr2)
    q(cr2)
    c2 = np.add(cl2, cr2, out=cl2)
    q(c2)
    c2_bar = np.divide(c2, wsum, out=c2)
    q(c2_bar)
    du = np.subtract(right["velx"], left["velx"], out=o((*key, "du"), shp))
    q(du)
    sqlr = np.multiply(sql, sqr, out=o((*key, "sqlr"), shp))
    q(sqlr)
    w2 = np.multiply(wsum, wsum, out=o((*key, "w2"), shp))
    q(w2)
    np.divide(sqlr, w2, out=sqlr)
    q(sqlr)
    eta = np.multiply(q.const(0.5), sqlr, out=sqlr)
    q(eta)
    du2 = np.multiply(du, du, out=o((*key, "du2"), shp))
    q(du2)
    np.multiply(eta, du2, out=du2)
    q(du2)
    croe2 = np.add(c2_bar, du2, out=c2_bar)
    q(croe2)
    c_roe = np.sqrt(croe2, out=croe2)
    q(c_roe)
    # S_L = min(ul - cl, u_roe - c_roe); S_R = max(ur + cr, u_roe + c_roe)
    a = np.subtract(left["velx"], cl, out=cl)
    q(a)
    b = np.subtract(u_roe, c_roe, out=o((*key, "b"), shp))
    q(b)
    sl = np.minimum(a, b, out=a)
    a2 = np.add(right["velx"], cr, out=cr)
    q(a2)
    b2 = np.add(u_roe, c_roe, out=b)
    q(b2)
    sr = np.maximum(a2, b2, out=a2)
    return sl, sr


# ---------------------------------------------------------------------------
# conserved state and physical flux
# ---------------------------------------------------------------------------
def conserved_state(state: Dict, gamma: float, ws=None, key=("cons",), *, q=EXACT) -> Dict:
    """Conserved variables of a primitive face state, fused.

    ``dens`` aliases the input array (as in the instrumented twin).
    """
    o = _o(ws)
    dens, velx, vely = state["dens"], state["velx"], state["vely"]
    shp = np.shape(dens)
    momn = np.multiply(dens, velx, out=o((*key, "momn"), shp))
    q(momn)
    momt = np.multiply(dens, vely, out=o((*key, "momt"), shp))
    q(momt)
    ener = eos_total_energy(dens, velx, vely, state["pres"], gamma, ws, (*key, "en"),
                            out=o((*key, "ener"), shp), q=q)
    return {"dens": dens, "momn": momn, "momt": momt, "ener": ener}


def euler_flux(state: Dict, gamma: float, ws=None, key=("ef",),
               cons: Optional[Dict] = None, *, q=EXACT) -> Dict:
    """Physical Euler flux normal to the face, fused.

    ``cons`` (optional) supplies an already-computed conserved state — the
    instrumented twin recomputes it, which produces identical bits.
    """
    o = _o(ws)
    velx, pres = state["velx"], state["pres"]
    if cons is None:
        cons = conserved_state(state, gamma, ws, (*key, "c"), q=q)
    shp = np.shape(cons["momn"])
    f_dens = cons["momn"]
    mn_u = np.multiply(cons["momn"], velx, out=o((*key, "momn"), shp))
    q(mn_u)
    f_momn = np.add(mn_u, pres, out=mn_u)
    q(f_momn)
    f_momt = np.multiply(cons["momt"], velx, out=o((*key, "momt"), shp))
    q(f_momt)
    ep = np.add(cons["ener"], pres, out=o((*key, "ener"), shp))
    q(ep)
    f_ener = np.multiply(ep, velx, out=ep)
    q(f_ener)
    return {"dens": f_dens, "momn": f_momn, "momt": f_momt, "ener": f_ener}


# ---------------------------------------------------------------------------
# Riemann solvers
# ---------------------------------------------------------------------------
def _hll_from_speeds(sl, sr, left: Dict, right: Dict, gamma: float, ws, key, *, q) -> Dict:
    """HLL combination for given (already rounded) wave speeds (twin of
    ``repro.hydro.riemann._hll_from_speeds``)."""
    o = _o(ws)
    ul = conserved_state(left, gamma, ws, (*key, "ul"), q=q)
    ur = conserved_state(right, gamma, ws, (*key, "ur"), q=q)
    fl = euler_flux(left, gamma, ws, (*key, "fl"), cons=ul, q=q)
    fr = euler_flux(right, gamma, ws, (*key, "fr"), cons=ur, q=q)

    shp = np.shape(sl)
    # region predicates on the quantised wave speeds (the instrumented
    # solver compares ctx.asplain(sl/sr), which are these very values)
    use_left = np.greater_equal(sl, 0.0, out=o((*key, "usel"), shp, bool))
    use_right = np.less_equal(sr, 0.0, out=o((*key, "user"), shp, bool))
    denom = np.subtract(sr, sl, out=o((*key, "den"), shp))
    q(denom)
    slsr = np.multiply(sl, sr, out=o((*key, "slsr"), shp))
    q(slsr)

    flux: Dict = {}
    for comp in COMPONENTS:
        a = np.multiply(sr, fl[comp], out=o((*key, "t1"), shp))
        q(a)
        b = np.multiply(sl, fr[comp], out=o((*key, "t2"), shp))
        q(b)
        diff = np.subtract(a, b, out=a)
        q(diff)
        du = np.subtract(ur[comp], ul[comp], out=b)
        q(du)
        np.multiply(slsr, du, out=du)
        q(du)
        num = np.add(diff, du, out=diff)
        q(num)
        middle = np.divide(num, denom, out=num)
        q(middle)
        inner = where(use_right, fr[comp], middle, out=middle)
        flux[comp] = where(use_left, fl[comp], inner, out=o((*key, "f", comp), shp))
    return flux


def hll_flux(left: Dict, right: Dict, gamma: float, ws=None, key=("hll",), *, q=EXACT) -> Dict:
    """Harten–Lax–van Leer flux, fused (Davis wave speeds)."""
    sl, sr = davis_wave_speeds(left, right, gamma, ws, (*key, "w"), q=q)
    return _hll_from_speeds(sl, sr, left, right, gamma, ws, key, q=q)


def hlle_flux(left: Dict, right: Dict, gamma: float, ws=None, key=("hlle",), *, q=EXACT) -> Dict:
    """HLLE flux, fused (Einfeldt wave speeds on the HLL combination)."""
    sl, sr = einfeldt_wave_speeds(left, right, gamma, ws, (*key, "w"), q=q)
    return _hll_from_speeds(sl, sr, left, right, gamma, ws, key, q=q)


def hllc_flux(left: Dict, right: Dict, gamma: float, ws=None, key=("hllc",), *, q=EXACT) -> Dict:
    """HLLC flux, fused (restores the contact wave missing from HLL)."""
    o = _o(ws)
    sl, sr = davis_wave_speeds(left, right, gamma, ws, (*key, "w"), q=q)
    ul = conserved_state(left, gamma, ws, (*key, "ul"), q=q)
    ur = conserved_state(right, gamma, ws, (*key, "ur"), q=q)
    fl = euler_flux(left, gamma, ws, (*key, "fl"), cons=ul, q=q)
    fr = euler_flux(right, gamma, ws, (*key, "fr"), cons=ur, q=q)

    dl, dr = left["dens"], right["dens"]
    vl, vr = left["velx"], right["velx"]
    pl, pr = left["pres"], right["pres"]
    shp = np.shape(sl)

    # contact (star) speed
    t = np.subtract(sl, vl, out=o((*key, "slvl"), shp))
    q(t)
    dl_slvl = np.multiply(dl, t, out=t)
    q(dl_slvl)
    t = np.subtract(sr, vr, out=o((*key, "srvr"), shp))
    q(t)
    dr_srvr = np.multiply(dr, t, out=t)
    q(dr_srvr)
    dp = np.subtract(pr, pl, out=o((*key, "dp"), shp))
    q(dp)
    m1 = np.multiply(dl_slvl, vl, out=o((*key, "m1"), shp))
    q(m1)
    m2 = np.multiply(dr_srvr, vr, out=o((*key, "m2"), shp))
    q(m2)
    mom_diff = np.subtract(m1, m2, out=m1)
    q(mom_diff)
    num = np.add(dp, mom_diff, out=dp)
    q(num)
    den = np.subtract(dl_slvl, dr_srvr, out=o((*key, "sden"), shp))
    q(den)
    s_star = np.divide(num, den, out=num)
    q(s_star)

    def star_state(state, cons, s_k, d_slv, k):
        """Conserved state in the star region behind wave ``s_k``."""
        t1 = np.subtract(s_k, s_star, out=o((*k, "t1"), shp))
        q(t1)
        factor = np.divide(d_slv, t1, out=t1)
        q(factor)
        momn_star = np.multiply(factor, s_star, out=o((*k, "mn"), shp))
        q(momn_star)
        momt_star = np.multiply(factor, state["vely"], out=o((*k, "mt"), shp))
        q(momt_star)
        e_over_d = np.divide(cons["ener"], state["dens"], out=o((*k, "eod"), shp))
        q(e_over_d)
        t2 = np.subtract(s_k, state["velx"], out=o((*k, "t2"), shp))
        q(t2)
        d_skv = np.multiply(state["dens"], t2, out=t2)
        q(d_skv)
        p_term = np.divide(state["pres"], d_skv, out=d_skv)
        q(p_term)
        a = np.subtract(s_star, state["velx"], out=o((*k, "a"), shp))
        q(a)
        b = np.add(s_star, p_term, out=p_term)
        q(b)
        m = np.multiply(a, b, out=a)
        q(m)
        bracket = np.add(e_over_d, m, out=e_over_d)
        q(bracket)
        ener_star = np.multiply(factor, bracket, out=bracket)
        q(ener_star)
        return {"dens": factor, "momn": momn_star, "momt": momt_star, "ener": ener_star}

    ul_star = star_state(left, ul, sl, dl_slvl, (*key, "sL"))
    ur_star = star_state(right, ur, sr, dr_srvr, (*key, "sR"))

    # region predicates on the quantised speeds
    region_l = np.greater_equal(sl, 0.0, out=o((*key, "rl"), shp, bool))
    b1 = np.less(sl, 0.0, out=o((*key, "b1"), shp, bool))
    b2 = np.greater_equal(s_star, 0.0, out=o((*key, "b2"), shp, bool))
    region_ls = np.logical_and(b1, b2, out=b1)
    b3 = np.less(s_star, 0.0, out=o((*key, "b3"), shp, bool))
    b4 = np.greater(sr, 0.0, out=o((*key, "b4"), shp, bool))
    region_rs = np.logical_and(b3, b4, out=b3)

    flux: Dict = {}
    for comp in COMPONENTS:
        d1 = np.subtract(ul_star[comp], ul[comp], out=o((*key, "d1"), shp))
        q(d1)
        np.multiply(sl, d1, out=d1)
        q(d1)
        fl_star = np.add(fl[comp], d1, out=d1)
        q(fl_star)
        d2 = np.subtract(ur_star[comp], ur[comp], out=o((*key, "d2"), shp))
        q(d2)
        np.multiply(sr, d2, out=d2)
        q(d2)
        fr_star = np.add(fr[comp], d2, out=d2)
        q(fr_star)
        out_ = where(region_l, fl[comp], fr[comp], out=o((*key, "f", comp), shp))
        out_ = where(region_ls, fl_star, out_, out=out_)
        out_ = where(region_rs, fr_star, out_, out=out_)
        flux[comp] = out_
    return flux


#: solver name -> fused implementation (same keys as riemann.SOLVERS)
FUSED_SOLVERS = {"hll": hll_flux, "hllc": hllc_flux, "hlle": hlle_flux}


# ---------------------------------------------------------------------------
# the full directional sweep and block update
# ---------------------------------------------------------------------------
#: primitive variables in stacking order (rows of a primitive stack)
PRIMITIVES = ("dens", "velx", "vely", "pres")

#: rows of a y-sweep input: the primitive stack with its velocities swapped,
#: so the sweep's normal velocity sits in row 1 as it does for x
_Y_ROWS = (0, 2, 1, 3)


def stack_primitives(prims, ws: Optional[Workspace] = None, key=("prims",)) -> np.ndarray:
    """The ``(4, ..., X, Y)`` primitive stack of ``prims``.

    ``prims`` is either such a stack already (returned as is) or a mapping
    of :data:`PRIMITIVES` to same-shaped arrays, copied into one buffer.
    """
    if isinstance(prims, np.ndarray):
        return prims
    first = np.shape(prims[PRIMITIVES[0]])
    stack = buffer(ws, key, (len(PRIMITIVES), *first))
    for row, name in enumerate(PRIMITIVES):
        stack[row] = prims[name]
    return stack


def sweep_inputs(prims: np.ndarray, ng: int, nxb: int, nyb: int,
                 ws: Optional[Workspace] = None):
    """The directional sweeps of a primitive stack, as ``(stack, axis, n)``.

    Each ``stack`` holds (dens, normal velocity, transverse velocity, pres)
    rows.  Square blocks (``nxb == nyb``) need a single axis-0 sweep: the
    ``(4, 2, ..., n + 2*ng, n)`` stack carries the x-sweep rows in slot 0
    and the *transposed* y-sweep columns, velocities swapped, in slot 1.
    Every flux op is element-wise and the reconstruction reads the same
    neighbours either way, so both slots produce the bits of the separate
    sweeps.  Non-square blocks keep one sweep per axis.
    """
    # x-sweep uses interior rows in y; y-sweep interior columns in x
    px = prims[..., :, ng:ng + nyb]
    py = prims[..., ng:ng + nxb, :]
    if nxb == nyb:
        py = py.swapaxes(-1, -2)
        stack = buffer(ws, ("sweep", "xy"), (len(PRIMITIVES), 2, *px.shape[1:]))
        stack[:, 0] = px
        for row, src in enumerate(_Y_ROWS):
            stack[row, 1] = py[src]
        return [(stack, 0, nxb)]
    stack = buffer(ws, ("sweep", "y"), py.shape)
    for row, src in enumerate(_Y_ROWS):
        stack[row] = py[src]
    return [(px, 0, nxb), (stack, 1, nyb)]


def conserved_fluxes(sweeps) -> Tuple[Dict, Dict]:
    """``(flux_x, flux_y)`` keyed by conserved variable, from the outputs
    of the :func:`sweep_inputs` sweeps (normal/transverse momenta mapped
    back to x/y; the paired sweep's slot 1 transposed back)."""
    if len(sweeps) == 1:
        (paired,) = sweeps
        fx = {comp: f[0] for comp, f in paired.items()}
        fy = {comp: f[1].swapaxes(-1, -2) for comp, f in paired.items()}
    else:
        fx, fy = sweeps
    return (
        {"dens": fx["dens"], "momx": fx["momn"], "momy": fx["momt"], "ener": fx["ener"]},
        {"dens": fy["dens"], "momx": fy["momt"], "momy": fy["momn"], "ener": fy["ener"]},
    )


def directional_flux(prims: np.ndarray, axis: int, ng: int, n: int, scheme: str, solver: str,
                     gamma: float, dens_floor: float, pres_floor: float,
                     ws: Optional[Workspace] = None, *, q=EXACT) -> Dict:
    """Fluxes at the ``n+1`` interior faces along ``axis``, fully fused.

    Twin of ``HydroSolver._directional_flux``: ``prims`` is a ``(4, ...)``
    stack of (dens, normal velocity, transverse velocity, pres) rows,
    already rounded by ``q`` (the instrumented solver lifts them through
    ``ctx.const``; :func:`advance` does the same before calling here),
    reconstructed in one stacked stencil call; density/pressure are
    floored and the interface states resolved with the requested Riemann
    solver.  Returns the ``dens``/``momn``/``momt``/``ener`` fluxes.
    """
    o = _o(ws)
    rec_l, rec_r = fused.FUSED_SCHEMES[scheme](prims, axis, ng, n, ws=ws, key=(axis, "r"), q=q)
    left = dict(zip(PRIMITIVES, rec_l))
    right = dict(zip(PRIMITIVES, rec_r))

    # keep reconstructed density/pressure physical (never in place: pcm
    # returns views of the caller's primitive arrays); the floors are
    # quantise-closed maxima of representable values
    shp = rec_l.shape[1:]
    qdf = q.const(dens_floor)
    qpf = q.const(pres_floor)
    left["dens"] = np.maximum(left["dens"], qdf, out=o((axis, "lfd"), shp))
    right["dens"] = np.maximum(right["dens"], qdf, out=o((axis, "rfd"), shp))
    left["pres"] = np.maximum(left["pres"], qpf, out=o((axis, "lfp"), shp))
    right["pres"] = np.maximum(right["pres"], qpf, out=o((axis, "rfp"), shp))

    return FUSED_SOLVERS[solver](left, right, gamma, ws, (axis, solver), q=q)


def advance(prims, dt: float, dx, dy, ng: int, nxb: int, nyb: int, *,
            scheme: str, solver: str, gamma: float, dens_floor: float, pres_floor: float,
            gravity: Tuple[float, float] = (0.0, 0.0),
            ws: Optional[Workspace] = None, q=EXACT) -> Dict:
    """One flux-divergence update of a block (or a stack of blocks), fused.

    Twin of ``HydroSolver.advance_block`` for a binary64 context (``q`` is
    :data:`~repro.kernels.trunc.EXACT`) or an optimized truncating one
    (``q`` a :class:`~repro.kernels.trunc.Round`).  ``prims`` maps variable
    name to a guard-cell-filled array of shape
    ``(..., nxb + 2*ng, nyb + 2*ng)``, or is their :func:`stack_primitives`
    stack.  Leading dimensions batch same-shaped blocks of any AMR level:
    ``dx``/``dy`` are scalars or per-block arrays broadcasting against them
    (``(nblocks, 1, 1)``).  The inputs are first *lifted* — rounded whole,
    the twin of the solver's ``ctx.const`` lift, which :data:`EXACT` skips.
    Returns the new interior primitives as **fresh** arrays (they must
    survive later invocations that reuse the workspace).
    """
    o = _o(ws)
    # the lift rounds in place into the stack's own buffer, or into a fresh
    # array when the stack is the caller's
    stacked = stack_primitives(prims, ws)
    lifted = q.array(stacked, out=stacked if stacked is not prims else None)
    sweeps = [
        directional_flux(stack, axis, ng, n, scheme, solver, gamma, dens_floor, pres_floor,
                         ws, q=q)
        for stack, axis, n in sweep_inputs(lifted, ng, nxb, nyb, ws)
    ]
    flux_x, flux_y = conserved_fluxes(sweeps)

    dens, velx, vely, pres = lifted[..., ng:ng + nxb, ng:ng + nyb]
    shp = np.shape(dens)
    momx = np.multiply(dens, velx, out=o(("u", "momx"), shp))
    q(momx)
    momy = np.multiply(dens, vely, out=o(("u", "momy"), shp))
    q(momy)
    ener = eos_total_energy(dens, velx, vely, pres, gamma, ws, ("u", "en"),
                            out=o(("u", "ener"), shp), q=q)
    cons = {"dens": dens, "momx": momx, "momy": momy, "ener": ener}

    # per-step scalars are quantised like ctx.const(dt / dx) — uncached,
    # element-wise for per-block spacings
    dtdx = q.dyn(np.divide(dt, dx))
    dtdy = q.dyn(np.divide(dt, dy))
    new_cons: Dict = {}
    for comp in ("dens", "momx", "momy", "ener"):
        fx = flux_x[comp]
        fy = flux_y[comp]
        div_x = np.subtract(fx[..., 1:, :], fx[..., :-1, :], out=o(("u", "divx"), shp))
        q(div_x)
        div_y = np.subtract(fy[..., :, 1:], fy[..., :, :-1], out=o(("u", "divy"), shp))
        q(div_y)
        np.multiply(dtdx, div_x, out=div_x)
        q(div_x)
        np.multiply(dtdy, div_y, out=div_y)
        q(div_y)
        change = np.add(div_x, div_y, out=div_x)
        q(change)
        new_cons[comp] = np.subtract(cons[comp], change, out=o(("u", "new", comp), shp))
        q(new_cons[comp])

    # constant-gravity source term (matches the instrumented operation
    # stream: skipped entirely when gravity is off)
    gx, gy = gravity
    if gx != 0.0 or gy != 0.0:
        if gx != 0.0:
            dtgx = q.dyn(dt * gx)
            src = np.multiply(dens, dtgx, out=o(("u", "src"), shp))
            q(src)
            np.add(new_cons["momx"], src, out=new_cons["momx"])
            q(new_cons["momx"])
            np.multiply(momx, dtgx, out=src)
            q(src)
            np.add(new_cons["ener"], src, out=new_cons["ener"])
            q(new_cons["ener"])
        if gy != 0.0:
            dtgy = q.dyn(dt * gy)
            src = np.multiply(dens, dtgy, out=o(("u", "src"), shp))
            q(src)
            np.add(new_cons["momy"], src, out=new_cons["momy"])
            q(new_cons["momy"])
            np.multiply(momy, dtgy, out=src)
            q(src)
            np.add(new_cons["ener"], src, out=new_cons["ener"])
            q(new_cons["ener"])

    # conserved -> primitive, with floors; outputs are deliberately fresh
    new_dens = np.maximum(new_cons["dens"], q.const(dens_floor))
    new_velx = np.divide(new_cons["momx"], new_dens)
    q(new_velx)
    new_vely = np.divide(new_cons["momy"], new_dens)
    q(new_vely)
    new_pres = eos_pressure_from_total_energy(
        new_dens, new_cons["momx"], new_cons["momy"], new_cons["ener"],
        gamma, pres_floor, dens_floor, ws, ("u", "pte"), out=np.empty(shp), q=q,
    )
    return {"dens": new_dens, "velx": new_velx, "vely": new_vely, "pres": new_pres}
