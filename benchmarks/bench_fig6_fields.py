"""Figure 6: Sedov radial shock and Sod planar shock with AMR block structure.

Regenerates the data behind the qualitative Figure 6: the pressure field of
both compressible workloads on the covering grid together with the
refinement-level map, showing that the AMR hierarchy tracks the radial shock
(Sedov) and the planar shock system (Sod).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import SedovConfig, SedovWorkload, SodConfig, SodWorkload

from conftest import print_table, save_results


def run_experiment():
    sedov = SedovWorkload(SedovConfig(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=3, t_end=0.02, rk_stages=1))
    sod = SodWorkload(SodConfig(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=3, t_end=0.04, rk_stages=1))

    out = {}
    for name, workload in (("sedov", sedov), ("sod", sod)):
        run = workload.reference()
        pres = run.checkpoint["pres"]
        levels = run.grid.level_map(workload.config.max_level)
        out[name] = {
            "pressure_min": float(np.min(pres)),
            "pressure_max": float(np.max(pres)),
            "n_leaves": int(run.info["n_leaves"]),
            "finest_level": int(run.info["finest_level"]),
            "leaf_levels": run.grid.leaf_levels(),
            "finest_fraction_of_cells": float(np.mean(levels == workload.config.max_level)),
            "pressure_field_shape": list(pres.shape),
        }
        # keep the fields so a plotting script can draw them
        out[name]["pressure_field"] = pres.tolist()
        out[name]["level_map"] = levels.tolist()
    return out


@pytest.mark.benchmark(group="figure6")
def test_fig6_shock_fields_with_amr(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [name, d["n_leaves"], d["finest_level"], f"{d['finest_fraction_of_cells']:.1%}",
         f"{d['pressure_min']:.3e}", f"{d['pressure_max']:.3e}"]
        for name, d in out.items()
    ]
    print_table(
        "Figure 6 — compressible workloads: AMR structure and pressure range",
        ["workload", "leaves", "finest level", "cells at finest", "p_min", "p_max"],
        rows,
    )
    save_results("fig6_fields", {k: {kk: vv for kk, vv in v.items() if kk not in ("pressure_field", "level_map")} for k, v in out.items()})

    # shape assertions: AMR refines around the shock in both workloads
    for name in ("sedov", "sod"):
        assert out[name]["finest_level"] == 3
        assert 0.0 < out[name]["finest_fraction_of_cells"] < 1.0
        assert out[name]["pressure_max"] > out[name]["pressure_min"] > 0
    # Sedov refines a compact radial region; Sod refines stripes along y:
    # both leave a sizeable part of the domain at coarser levels
    assert out["sedov"]["finest_fraction_of_cells"] < 0.9
    assert out["sod"]["finest_fraction_of_cells"] < 0.9
