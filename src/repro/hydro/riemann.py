"""Approximate Riemann solvers (HLL, HLLE, HLLC).

The Riemann solver resolves the discontinuity between the reconstructed
left/right interface states into a numerical flux.  It is the second of the
Spark solver components exercised by the mem-mode debugging experiment
(Table 2: the "Riemann" module), and its arithmetic therefore also goes
through the numerics context.

Three solvers are provided: ``hll`` (Davis wave-speed estimates), ``hlle``
(the Einfeldt variant — Roe-averaged wave speeds on the same HLL
combination) and ``hllc`` (restores the contact wave).  When the active
context is on a fused fast plane (``ctx.fused`` or ``ctx.fused_trunc``),
each solver dispatches to its pre-fused straight-line twin in
:mod:`repro.kernels.flux`, run with the context's rounder
(:func:`~repro.kernels.trunc.plane_rounder`) — bit-identical results,
zero per-op dispatch.

States are passed as dictionaries of face arrays with keys ``dens``,
``velx``, ``vely``, ``pres`` where ``velx`` denotes the velocity normal to
the face and ``vely`` the transverse velocity (the solver swaps components
before calling for y-sweeps).  Returned fluxes are dictionaries with keys
``dens``, ``momn``, ``momt``, ``ener`` (normal/transverse momentum).
"""
from __future__ import annotations

from typing import Dict

from ..kernels import FPContext
from ..kernels import flux as _fused_flux
from ..kernels.trunc import plane_rounder
from .eos import GammaLawEOS

__all__ = ["euler_flux", "hll_flux", "hllc_flux", "hlle_flux", "SOLVERS"]


def _conserved(state: Dict, eos: GammaLawEOS, ctx: FPContext) -> Dict:
    dens, velx, vely, pres = state["dens"], state["velx"], state["vely"], state["pres"]
    momn = ctx.mul(dens, velx, "riemann:momn")
    momt = ctx.mul(dens, vely, "riemann:momt")
    ener = eos.total_energy(dens, velx, vely, pres, ctx)
    return {"dens": dens, "momn": momn, "momt": momt, "ener": ener}


def euler_flux(state: Dict, eos: GammaLawEOS, ctx: FPContext) -> Dict:
    """Physical Euler flux normal to the face for a primitive state."""
    dens, velx, vely, pres = state["dens"], state["velx"], state["vely"], state["pres"]
    cons = _conserved(state, eos, ctx)
    f_dens = cons["momn"]
    f_momn = ctx.add(ctx.mul(cons["momn"], velx, "riemann:f_momn_a"), pres, "riemann:f_momn")
    f_momt = ctx.mul(cons["momt"], velx, "riemann:f_momt")
    f_ener = ctx.mul(ctx.add(cons["ener"], pres, "riemann:f_ener_a"), velx, "riemann:f_ener")
    return {"dens": f_dens, "momn": f_momn, "momt": f_momt, "ener": f_ener}


def _wave_speeds(left: Dict, right: Dict, eos: GammaLawEOS, ctx: FPContext):
    """Davis wave-speed estimates S_L, S_R."""
    cl = eos.sound_speed(left["dens"], left["pres"], ctx)
    cr = eos.sound_speed(right["dens"], right["pres"], ctx)
    sl = ctx.minimum(
        ctx.sub(left["velx"], cl, "riemann:ul_m_cl"),
        ctx.sub(right["velx"], cr, "riemann:ur_m_cr"),
        "riemann:sl",
    )
    sr = ctx.maximum(
        ctx.add(left["velx"], cl, "riemann:ul_p_cl"),
        ctx.add(right["velx"], cr, "riemann:ur_p_cr"),
        "riemann:sr",
    )
    return sl, sr


def _einfeldt_wave_speeds(left: Dict, right: Dict, eos: GammaLawEOS, ctx: FPContext):
    """Einfeldt wave-speed estimates from Roe averages (the HLLE choice).

    S_L = min(ul - cl, u_roe - c_roe), S_R = max(ur + cr, u_roe + c_roe)
    with the Roe-averaged velocity and sound speed (Einfeldt's eta2 = 1/2
    velocity-jump correction).
    """
    cl = eos.sound_speed(left["dens"], left["pres"], ctx)
    cr = eos.sound_speed(right["dens"], right["pres"], ctx)
    sql = ctx.sqrt(left["dens"], "riemann:sql")
    sqr = ctx.sqrt(right["dens"], "riemann:sqr")
    wsum = ctx.add(sql, sqr, "riemann:roe_wsum")
    u_roe = ctx.div(
        ctx.add(
            ctx.mul(sql, left["velx"], "riemann:sql_ul"),
            ctx.mul(sqr, right["velx"], "riemann:sqr_ur"),
            "riemann:roe_num",
        ),
        wsum,
        "riemann:u_roe",
    )
    cl2 = ctx.mul(cl, cl, "riemann:cl2")
    cr2 = ctx.mul(cr, cr, "riemann:cr2")
    c2_bar = ctx.div(
        ctx.add(
            ctx.mul(sql, cl2, "riemann:sql_cl2"),
            ctx.mul(sqr, cr2, "riemann:sqr_cr2"),
            "riemann:c2_num",
        ),
        wsum,
        "riemann:c2_bar",
    )
    du = ctx.sub(right["velx"], left["velx"], "riemann:du_roe")
    eta = ctx.mul(
        ctx.const(0.5),
        ctx.div(
            ctx.mul(sql, sqr, "riemann:sqlr"),
            ctx.mul(wsum, wsum, "riemann:wsum2"),
            "riemann:eta_div",
        ),
        "riemann:eta",
    )
    c_roe = ctx.sqrt(
        ctx.add(
            c2_bar,
            ctx.mul(eta, ctx.mul(du, du, "riemann:du2"), "riemann:eta_du2"),
            "riemann:c_roe2",
        ),
        "riemann:c_roe",
    )
    sl = ctx.minimum(
        ctx.sub(left["velx"], cl, "riemann:ul_m_cl"),
        ctx.sub(u_roe, c_roe, "riemann:uroe_m_c"),
        "riemann:sl",
    )
    sr = ctx.maximum(
        ctx.add(right["velx"], cr, "riemann:ur_p_cr"),
        ctx.add(u_roe, c_roe, "riemann:uroe_p_c"),
        "riemann:sr",
    )
    return sl, sr


def _hll_from_speeds(sl, sr, left: Dict, right: Dict, eos: GammaLawEOS, ctx: FPContext) -> Dict:
    """HLL flux combination for given wave-speed estimates."""
    ul = _conserved(left, eos, ctx)
    ur = _conserved(right, eos, ctx)
    fl = euler_flux(left, eos, ctx)
    fr = euler_flux(right, eos, ctx)

    use_left = ctx.asplain(sl) >= 0.0
    use_right = ctx.asplain(sr) <= 0.0
    denom = ctx.sub(sr, sl, "riemann:sr_m_sl")

    flux: Dict = {}
    for comp in ("dens", "momn", "momt", "ener"):
        num = ctx.add(
            ctx.sub(
                ctx.mul(sr, fl[comp], "riemann:sr_fl"),
                ctx.mul(sl, fr[comp], "riemann:sl_fr"),
                "riemann:flux_diff",
            ),
            ctx.mul(
                ctx.mul(sl, sr, "riemann:sl_sr"),
                ctx.sub(ur[comp], ul[comp], "riemann:du"),
                "riemann:slsr_du",
            ),
            "riemann:hll_num",
        )
        middle = ctx.div(num, denom, "riemann:hll_flux")
        flux[comp] = ctx.where(use_left, fl[comp], ctx.where(use_right, fr[comp], middle))
    return flux


def hll_flux(left: Dict, right: Dict, eos: GammaLawEOS, ctx: FPContext) -> Dict:
    """Harten–Lax–van Leer flux (Davis wave speeds)."""
    q = plane_rounder(ctx)
    if q is not None:
        return _fused_flux.hll_flux(left, right, eos.gamma, q=q)
    sl, sr = _wave_speeds(left, right, eos, ctx)
    return _hll_from_speeds(sl, sr, left, right, eos, ctx)


def hlle_flux(left: Dict, right: Dict, eos: GammaLawEOS, ctx: FPContext) -> Dict:
    """HLLE flux: the HLL combination with Einfeldt wave speeds."""
    q = plane_rounder(ctx)
    if q is not None:
        return _fused_flux.hlle_flux(left, right, eos.gamma, q=q)
    sl, sr = _einfeldt_wave_speeds(left, right, eos, ctx)
    return _hll_from_speeds(sl, sr, left, right, eos, ctx)


def hllc_flux(left: Dict, right: Dict, eos: GammaLawEOS, ctx: FPContext) -> Dict:
    """HLLC flux (restores the contact wave missing from HLL)."""
    q = plane_rounder(ctx)
    if q is not None:
        return _fused_flux.hllc_flux(left, right, eos.gamma, q=q)
    sl, sr = _wave_speeds(left, right, eos, ctx)
    ul = _conserved(left, eos, ctx)
    ur = _conserved(right, eos, ctx)
    fl = euler_flux(left, eos, ctx)
    fr = euler_flux(right, eos, ctx)

    dl, dr = left["dens"], right["dens"]
    vl, vr = left["velx"], right["velx"]
    pl, pr = left["pres"], right["pres"]

    # contact (star) speed
    dl_slvl = ctx.mul(dl, ctx.sub(sl, vl, "riemann:sl_m_vl"), "riemann:dl_slvl")
    dr_srvr = ctx.mul(dr, ctx.sub(sr, vr, "riemann:sr_m_vr"), "riemann:dr_srvr")
    num = ctx.add(
        ctx.sub(pr, pl, "riemann:dp"),
        ctx.sub(ctx.mul(dl_slvl, vl, "riemann:dl_slvl_vl"), ctx.mul(dr_srvr, vr, "riemann:dr_srvr_vr"), "riemann:mom_diff"),
        "riemann:star_num",
    )
    den = ctx.sub(dl_slvl, dr_srvr, "riemann:star_den")
    s_star = ctx.div(num, den, "riemann:s_star")

    def star_state(state, cons, s_k, d_slv):
        """Conserved state in the star region behind wave ``s_k``."""
        factor = ctx.div(d_slv, ctx.sub(s_k, s_star, "riemann:sk_m_star"), "riemann:star_factor")
        d_star = factor
        momn_star = ctx.mul(factor, s_star, "riemann:momn_star")
        momt_star = ctx.mul(factor, state["vely"], "riemann:momt_star")
        # energy in the star region
        e_over_d = ctx.div(cons["ener"], state["dens"], "riemann:e_over_d")
        p_term = ctx.div(
            state["pres"],
            ctx.mul(state["dens"], ctx.sub(s_k, state["velx"], "riemann:sk_m_v"), "riemann:d_skv"),
            "riemann:p_term",
        )
        bracket = ctx.add(
            e_over_d,
            ctx.mul(
                ctx.sub(s_star, state["velx"], "riemann:star_m_v"),
                ctx.add(s_star, p_term, "riemann:star_p_term"),
                "riemann:bracket_mul",
            ),
            "riemann:bracket",
        )
        ener_star = ctx.mul(factor, bracket, "riemann:ener_star")
        return {"dens": d_star, "momn": momn_star, "momt": momt_star, "ener": ener_star}

    ul_star = star_state(left, ul, sl, dl_slvl)
    ur_star = star_state(right, ur, sr, dr_srvr)

    sl_plain = ctx.asplain(sl)
    sr_plain = ctx.asplain(sr)
    s_star_plain = ctx.asplain(s_star)
    region_l = sl_plain >= 0.0
    region_ls = (sl_plain < 0.0) & (s_star_plain >= 0.0)
    region_rs = (s_star_plain < 0.0) & (sr_plain > 0.0)

    flux: Dict = {}
    for comp in ("dens", "momn", "momt", "ener"):
        fl_star = ctx.add(
            fl[comp],
            ctx.mul(sl, ctx.sub(ul_star[comp], ul[comp], "riemann:dul_star"), "riemann:sl_dul"),
            "riemann:fl_star",
        )
        fr_star = ctx.add(
            fr[comp],
            ctx.mul(sr, ctx.sub(ur_star[comp], ur[comp], "riemann:dur_star"), "riemann:sr_dur"),
            "riemann:fr_star",
        )
        out = ctx.where(region_l, fl[comp], fr[comp])
        out = ctx.where(region_ls, fl_star, out)
        out = ctx.where(region_rs, fr_star, out)
        flux[comp] = out
    return flux


SOLVERS = {"hll": hll_flux, "hllc": hllc_flux, "hlle": hlle_flux}
