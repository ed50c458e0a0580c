"""The fused flux pipeline of the fast plane.

Straight-line numpy twins of the full compressible flux stack — the
gamma-law EOS helpers (:mod:`repro.hydro.eos`), the Davis/Einfeldt wave
speeds and the HLL/HLLC/HLLE Riemann solvers
(:mod:`repro.hydro.riemann`), and the whole per-block update of
:meth:`repro.hydro.solver.HydroSolver.advance_block` — so a complete
directional sweep (reconstruct → wave speeds → flux → update) runs on the
fast plane without a single context dispatch.

Bit-identity contract
---------------------
Every value produced here is computed by **the same ufunc expression tree**
as its instrumented twin, so on binary64 data the results are bitwise
identical.  Two deliberate liberties that preserve that contract:

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
flow through unchanged — element-wise ufuncs are independent per slot,
which is what makes the hydro solver's batched block stepping
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

__all__ = [
    "FUSED_SOLVERS",
    "eos_sound_speed",
    "eos_internal_energy",
    "eos_pressure_from_internal_energy",
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
def eos_sound_speed(dens, pres, gamma: float, ws=None, key=("cs",)):
    """c = sqrt(gamma * p / rho), fused."""
    o = _o(ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(pres))
    gp = np.multiply(gamma, pres, out=o((*key, "gp"), shp))
    np.divide(gp, dens, out=gp)
    return np.sqrt(gp, out=gp)


def eos_internal_energy(dens, pres, gamma: float, ws=None, key=("eint",)):
    """e_int = p / ((gamma - 1) rho), fused."""
    o = _o(ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(pres))
    denom = np.multiply(gamma - 1.0, dens, out=o((*key, "denom"), shp))
    return np.divide(pres, denom, out=denom)


def eos_pressure_from_internal_energy(dens, eint, gamma: float, pressure_floor: float,
                                      ws=None, key=("pei",)):
    """p = max((gamma - 1) rho e_int, floor), fused."""
    o = _o(ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(eint))
    rho_e = np.multiply(dens, eint, out=o((*key, "rho_e"), shp))
    pres = np.multiply(gamma - 1.0, rho_e, out=rho_e)
    return np.maximum(pres, pressure_floor, out=pres)


def eos_total_energy(dens, velx, vely, pres, gamma: float, ws=None, key=("etot",), out=None):
    """E = rho e_int + 0.5 rho (u^2 + v^2), fused."""
    o = _o(ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(velx), np.shape(vely), np.shape(pres))
    eint = eos_internal_energy(dens, pres, gamma, ws, (*key, "ei"))
    u2 = np.multiply(velx, velx, out=o((*key, "u2"), shp))
    v2 = np.multiply(vely, vely, out=o((*key, "v2"), shp))
    kin = np.add(u2, v2, out=u2)
    np.multiply(dens, kin, out=kin)
    ke = np.multiply(0.5, kin, out=kin)
    rho_eint = np.multiply(dens, eint, out=eint)
    if out is None:
        out = o((*key, "res"), shp)
    return np.add(rho_eint, ke, out=out)


def eos_pressure_from_total_energy(dens, momx, momy, ener, gamma: float,
                                   pressure_floor: float, density_floor: float,
                                   ws=None, key=("pte",), out=None):
    """Pressure from conserved variables (with floors), fused."""
    o = _o(ws)
    shp = np.broadcast_shapes(np.shape(dens), np.shape(momx), np.shape(momy), np.shape(ener))
    dens_f = np.maximum(dens, density_floor, out=o((*key, "df"), shp))
    velx = np.divide(momx, dens_f, out=o((*key, "u"), shp))
    vely = np.divide(momy, dens_f, out=o((*key, "v"), shp))
    mu_u = np.multiply(momx, velx, out=velx)
    mv_v = np.multiply(momy, vely, out=vely)
    kin = np.add(mu_u, mv_v, out=mu_u)
    ke = np.multiply(0.5, kin, out=kin)
    eint_dens = np.subtract(ener, ke, out=ke)
    pres = np.multiply(gamma - 1.0, eint_dens, out=eint_dens)
    if out is None:
        out = o((*key, "res"), shp)
    return np.maximum(pres, pressure_floor, out=out)


# ---------------------------------------------------------------------------
# wave-speed estimates
# ---------------------------------------------------------------------------
def davis_wave_speeds(left: Dict, right: Dict, gamma: float, ws=None, key=("dws",)):
    """Davis estimates S_L = min(ul-cl, ur-cr), S_R = max(ul+cl, ur+cr)."""
    o = _o(ws)
    cl = eos_sound_speed(left["dens"], left["pres"], gamma, ws, (*key, "cl"))
    cr = eos_sound_speed(right["dens"], right["pres"], gamma, ws, (*key, "cr"))
    shp = cl.shape
    a = np.subtract(left["velx"], cl, out=o((*key, "a"), shp))
    b = np.subtract(right["velx"], cr, out=o((*key, "b"), shp))
    sl = np.minimum(a, b, out=a)
    a2 = np.add(left["velx"], cl, out=cl)
    b2 = np.add(right["velx"], cr, out=cr)
    sr = np.maximum(a2, b2, out=a2)
    return sl, sr


def einfeldt_wave_speeds(left: Dict, right: Dict, gamma: float, ws=None, key=("ews",)):
    """Einfeldt (HLLE) estimates from Roe averages, fused twin of
    ``repro.hydro.riemann._einfeldt_wave_speeds``."""
    o = _o(ws)
    cl = eos_sound_speed(left["dens"], left["pres"], gamma, ws, (*key, "cl"))
    cr = eos_sound_speed(right["dens"], right["pres"], gamma, ws, (*key, "cr"))
    shp = cl.shape
    sql = np.sqrt(left["dens"], out=o((*key, "sql"), shp))
    sqr = np.sqrt(right["dens"], out=o((*key, "sqr"), shp))
    wsum = np.add(sql, sqr, out=o((*key, "wsum"), shp))
    # Roe-averaged normal velocity
    n1 = np.multiply(sql, left["velx"], out=o((*key, "n1"), shp))
    n2 = np.multiply(sqr, right["velx"], out=o((*key, "n2"), shp))
    np.add(n1, n2, out=n1)
    u_roe = np.divide(n1, wsum, out=n1)
    # Roe-averaged sound speed with Einfeldt's eta2 velocity-jump term
    cl2 = np.multiply(cl, cl, out=o((*key, "cl2"), shp))
    cr2 = np.multiply(cr, cr, out=o((*key, "cr2"), shp))
    np.multiply(sql, cl2, out=cl2)
    np.multiply(sqr, cr2, out=cr2)
    c2 = np.add(cl2, cr2, out=cl2)
    c2_bar = np.divide(c2, wsum, out=c2)
    du = np.subtract(right["velx"], left["velx"], out=o((*key, "du"), shp))
    sqlr = np.multiply(sql, sqr, out=o((*key, "sqlr"), shp))
    w2 = np.multiply(wsum, wsum, out=o((*key, "w2"), shp))
    np.divide(sqlr, w2, out=sqlr)
    eta = np.multiply(0.5, sqlr, out=sqlr)
    du2 = np.multiply(du, du, out=o((*key, "du2"), shp))
    np.multiply(eta, du2, out=du2)
    croe2 = np.add(c2_bar, du2, out=c2_bar)
    c_roe = np.sqrt(croe2, out=croe2)
    # S_L = min(ul - cl, u_roe - c_roe); S_R = max(ur + cr, u_roe + c_roe)
    a = np.subtract(left["velx"], cl, out=cl)
    b = np.subtract(u_roe, c_roe, out=o((*key, "b"), shp))
    sl = np.minimum(a, b, out=a)
    a2 = np.add(right["velx"], cr, out=cr)
    b2 = np.add(u_roe, c_roe, out=b)
    sr = np.maximum(a2, b2, out=a2)
    return sl, sr


# ---------------------------------------------------------------------------
# conserved state and physical flux
# ---------------------------------------------------------------------------
def conserved_state(state: Dict, gamma: float, ws=None, key=("cons",)) -> Dict:
    """Conserved variables of a primitive face state, fused.

    ``dens`` aliases the input array (as in the instrumented twin).
    """
    o = _o(ws)
    dens, velx, vely = state["dens"], state["velx"], state["vely"]
    shp = np.shape(dens)
    momn = np.multiply(dens, velx, out=o((*key, "momn"), shp))
    momt = np.multiply(dens, vely, out=o((*key, "momt"), shp))
    ener = eos_total_energy(dens, velx, vely, state["pres"], gamma, ws, (*key, "en"),
                            out=o((*key, "ener"), shp))
    return {"dens": dens, "momn": momn, "momt": momt, "ener": ener}


def euler_flux(state: Dict, gamma: float, ws=None, key=("ef",), cons: Optional[Dict] = None) -> Dict:
    """Physical Euler flux normal to the face, fused.

    ``cons`` (optional) supplies an already-computed conserved state — the
    instrumented twin recomputes it, which produces identical bits.
    """
    o = _o(ws)
    velx, pres = state["velx"], state["pres"]
    if cons is None:
        cons = conserved_state(state, gamma, ws, (*key, "c"))
    shp = np.shape(cons["momn"])
    f_dens = cons["momn"]
    mn_u = np.multiply(cons["momn"], velx, out=o((*key, "momn"), shp))
    f_momn = np.add(mn_u, pres, out=mn_u)
    f_momt = np.multiply(cons["momt"], velx, out=o((*key, "momt"), shp))
    ep = np.add(cons["ener"], pres, out=o((*key, "ener"), shp))
    f_ener = np.multiply(ep, velx, out=ep)
    return {"dens": f_dens, "momn": f_momn, "momt": f_momt, "ener": f_ener}


# ---------------------------------------------------------------------------
# Riemann solvers
# ---------------------------------------------------------------------------
def _hll_from_speeds(sl, sr, left: Dict, right: Dict, gamma: float, ws, key) -> Dict:
    """HLL combination for given wave speeds (twin of
    ``repro.hydro.riemann._hll_from_speeds``)."""
    o = _o(ws)
    ul = conserved_state(left, gamma, ws, (*key, "ul"))
    ur = conserved_state(right, gamma, ws, (*key, "ur"))
    fl = euler_flux(left, gamma, ws, (*key, "fl"), cons=ul)
    fr = euler_flux(right, gamma, ws, (*key, "fr"), cons=ur)

    shp = np.shape(sl)
    use_left = np.greater_equal(sl, 0.0, out=o((*key, "usel"), shp, bool))
    use_right = np.less_equal(sr, 0.0, out=o((*key, "user"), shp, bool))
    denom = np.subtract(sr, sl, out=o((*key, "den"), shp))
    slsr = np.multiply(sl, sr, out=o((*key, "slsr"), shp))

    flux: Dict = {}
    for comp in COMPONENTS:
        a = np.multiply(sr, fl[comp], out=o((*key, "t1"), shp))
        b = np.multiply(sl, fr[comp], out=o((*key, "t2"), shp))
        diff = np.subtract(a, b, out=a)
        du = np.subtract(ur[comp], ul[comp], out=b)
        np.multiply(slsr, du, out=du)
        num = np.add(diff, du, out=diff)
        middle = np.divide(num, denom, out=num)
        inner = where(use_right, fr[comp], middle, out=middle)
        flux[comp] = where(use_left, fl[comp], inner, out=o((*key, "f", comp), shp))
    return flux


def hll_flux(left: Dict, right: Dict, gamma: float, ws=None, key=("hll",)) -> Dict:
    """Harten–Lax–van Leer flux, fused (Davis wave speeds)."""
    sl, sr = davis_wave_speeds(left, right, gamma, ws, (*key, "w"))
    return _hll_from_speeds(sl, sr, left, right, gamma, ws, key)


def hlle_flux(left: Dict, right: Dict, gamma: float, ws=None, key=("hlle",)) -> Dict:
    """HLLE flux, fused (Einfeldt wave speeds on the HLL combination)."""
    sl, sr = einfeldt_wave_speeds(left, right, gamma, ws, (*key, "w"))
    return _hll_from_speeds(sl, sr, left, right, gamma, ws, key)


def hllc_flux(left: Dict, right: Dict, gamma: float, ws=None, key=("hllc",)) -> Dict:
    """HLLC flux, fused (restores the contact wave missing from HLL)."""
    o = _o(ws)
    sl, sr = davis_wave_speeds(left, right, gamma, ws, (*key, "w"))
    ul = conserved_state(left, gamma, ws, (*key, "ul"))
    ur = conserved_state(right, gamma, ws, (*key, "ur"))
    fl = euler_flux(left, gamma, ws, (*key, "fl"), cons=ul)
    fr = euler_flux(right, gamma, ws, (*key, "fr"), cons=ur)

    dl, dr = left["dens"], right["dens"]
    vl, vr = left["velx"], right["velx"]
    pl, pr = left["pres"], right["pres"]
    shp = np.shape(sl)

    # contact (star) speed
    t = np.subtract(sl, vl, out=o((*key, "slvl"), shp))
    dl_slvl = np.multiply(dl, t, out=t)
    t = np.subtract(sr, vr, out=o((*key, "srvr"), shp))
    dr_srvr = np.multiply(dr, t, out=t)
    dp = np.subtract(pr, pl, out=o((*key, "dp"), shp))
    m1 = np.multiply(dl_slvl, vl, out=o((*key, "m1"), shp))
    m2 = np.multiply(dr_srvr, vr, out=o((*key, "m2"), shp))
    mom_diff = np.subtract(m1, m2, out=m1)
    num = np.add(dp, mom_diff, out=dp)
    den = np.subtract(dl_slvl, dr_srvr, out=o((*key, "sden"), shp))
    s_star = np.divide(num, den, out=num)

    def star_state(state, cons, s_k, d_slv, k):
        """Conserved state in the star region behind wave ``s_k``."""
        t1 = np.subtract(s_k, s_star, out=o((*k, "t1"), shp))
        factor = np.divide(d_slv, t1, out=t1)
        momn_star = np.multiply(factor, s_star, out=o((*k, "mn"), shp))
        momt_star = np.multiply(factor, state["vely"], out=o((*k, "mt"), shp))
        e_over_d = np.divide(cons["ener"], state["dens"], out=o((*k, "eod"), shp))
        t2 = np.subtract(s_k, state["velx"], out=o((*k, "t2"), shp))
        d_skv = np.multiply(state["dens"], t2, out=t2)
        p_term = np.divide(state["pres"], d_skv, out=d_skv)
        a = np.subtract(s_star, state["velx"], out=o((*k, "a"), shp))
        b = np.add(s_star, p_term, out=p_term)
        m = np.multiply(a, b, out=a)
        bracket = np.add(e_over_d, m, out=e_over_d)
        ener_star = np.multiply(factor, bracket, out=bracket)
        return {"dens": factor, "momn": momn_star, "momt": momt_star, "ener": ener_star}

    ul_star = star_state(left, ul, sl, dl_slvl, (*key, "sL"))
    ur_star = star_state(right, ur, sr, dr_srvr, (*key, "sR"))

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
        np.multiply(sl, d1, out=d1)
        fl_star = np.add(fl[comp], d1, out=d1)
        d2 = np.subtract(ur_star[comp], ur[comp], out=o((*key, "d2"), shp))
        np.multiply(sr, d2, out=d2)
        fr_star = np.add(fr[comp], d2, out=d2)
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
                     ws: Optional[Workspace] = None) -> Dict:
    """Fluxes at the ``n+1`` interior faces along ``axis``, fully fused.

    Twin of ``HydroSolver._directional_flux``: ``prims`` is a ``(4, ...)``
    stack of (dens, normal velocity, transverse velocity, pres) rows,
    reconstructed in one stacked stencil call; density/pressure are
    floored and the interface states resolved with the requested Riemann
    solver.  Returns the ``dens``/``momn``/``momt``/``ener`` fluxes.
    """
    o = _o(ws)
    rec_l, rec_r = fused.FUSED_SCHEMES[scheme](prims, axis, ng, n, ws=ws, key=(axis, "r"))
    left = dict(zip(PRIMITIVES, rec_l))
    right = dict(zip(PRIMITIVES, rec_r))

    # keep reconstructed density/pressure physical (never in place: pcm
    # returns views of the caller's primitive arrays)
    shp = rec_l.shape[1:]
    left["dens"] = np.maximum(left["dens"], dens_floor, out=o((axis, "lfd"), shp))
    right["dens"] = np.maximum(right["dens"], dens_floor, out=o((axis, "rfd"), shp))
    left["pres"] = np.maximum(left["pres"], pres_floor, out=o((axis, "lfp"), shp))
    right["pres"] = np.maximum(right["pres"], pres_floor, out=o((axis, "rfp"), shp))

    return FUSED_SOLVERS[solver](left, right, gamma, ws, (axis, solver))


def advance(prims, dt: float, dx, dy, ng: int, nxb: int, nyb: int, *,
            scheme: str, solver: str, gamma: float, dens_floor: float, pres_floor: float,
            gravity: Tuple[float, float] = (0.0, 0.0),
            ws: Optional[Workspace] = None) -> Dict:
    """One flux-divergence update of a block (or a stack of blocks), fused.

    Twin of ``HydroSolver.advance_block`` for non-truncating binary64
    contexts.  ``prims`` maps variable name to a guard-cell-filled array of
    shape ``(..., nxb + 2*ng, nyb + 2*ng)``, or is their
    :func:`stack_primitives` stack.  Leading dimensions batch same-shaped
    blocks of any AMR level: ``dx``/``dy`` are scalars or per-block arrays
    broadcasting against them (``(nblocks, 1, 1)``).  Returns the new
    interior primitives as **fresh** arrays (they must survive later
    invocations that reuse the workspace).
    """
    o = _o(ws)
    prims = stack_primitives(prims, ws)
    sweeps = [
        directional_flux(stack, axis, ng, n, scheme, solver, gamma, dens_floor, pres_floor, ws)
        for stack, axis, n in sweep_inputs(prims, ng, nxb, nyb, ws)
    ]
    flux_x, flux_y = conserved_fluxes(sweeps)

    dens, velx, vely, pres = prims[..., ng:ng + nxb, ng:ng + nyb]
    shp = np.shape(dens)
    momx = np.multiply(dens, velx, out=o(("u", "momx"), shp))
    momy = np.multiply(dens, vely, out=o(("u", "momy"), shp))
    ener = eos_total_energy(dens, velx, vely, pres, gamma, ws, ("u", "en"),
                            out=o(("u", "ener"), shp))
    cons = {"dens": dens, "momx": momx, "momy": momy, "ener": ener}

    dtdx = np.divide(dt, dx)
    dtdy = np.divide(dt, dy)
    new_cons: Dict = {}
    for comp in ("dens", "momx", "momy", "ener"):
        fx = flux_x[comp]
        fy = flux_y[comp]
        div_x = np.subtract(fx[..., 1:, :], fx[..., :-1, :], out=o(("u", "divx"), shp))
        div_y = np.subtract(fy[..., :, 1:], fy[..., :, :-1], out=o(("u", "divy"), shp))
        np.multiply(dtdx, div_x, out=div_x)
        np.multiply(dtdy, div_y, out=div_y)
        change = np.add(div_x, div_y, out=div_x)
        new_cons[comp] = np.subtract(cons[comp], change, out=o(("u", "new", comp), shp))

    # constant-gravity source term (matches the instrumented operation
    # stream: skipped entirely when gravity is off)
    gx, gy = gravity
    if gx != 0.0 or gy != 0.0:
        if gx != 0.0:
            dtgx = dt * gx
            src = np.multiply(dens, dtgx, out=o(("u", "src"), shp))
            np.add(new_cons["momx"], src, out=new_cons["momx"])
            np.multiply(momx, dtgx, out=src)
            np.add(new_cons["ener"], src, out=new_cons["ener"])
        if gy != 0.0:
            dtgy = dt * gy
            src = np.multiply(dens, dtgy, out=o(("u", "src"), shp))
            np.add(new_cons["momy"], src, out=new_cons["momy"])
            np.multiply(momy, dtgy, out=src)
            np.add(new_cons["ener"], src, out=new_cons["ener"])

    # conserved -> primitive, with floors; outputs are deliberately fresh
    new_dens = np.maximum(new_cons["dens"], dens_floor)
    new_velx = np.divide(new_cons["momx"], new_dens)
    new_vely = np.divide(new_cons["momy"], new_dens)
    new_pres = eos_pressure_from_total_energy(
        new_dens, new_cons["momx"], new_cons["momy"], new_cons["ener"],
        gamma, pres_floor, dens_floor, ws, ("u", "pte"), out=np.empty(shp),
    )
    return {"dens": new_dens, "velx": new_velx, "vely": new_vely, "pres": new_pres}
