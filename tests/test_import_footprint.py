"""SciPy loads only for the bubble's Poisson factorisation.

Each case runs in a fresh interpreter, so what this pytest process has
already imported does not decide the result.  Importing the sweep entry
points must load no ``scipy`` module; a solver shipped to a spawned worker
loads SciPy on its first solve and gives the parent's bits; a bubble
reference gathered with a prefix source loads SciPy in the calling
process, which forked pool workers then inherit.
"""
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.incomp.poisson import PoissonSolver

ROOT = Path(__file__).resolve().parents[1]

LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sweep_entry_points_load_no_scipy():
    out = run_fresh(
        "import sys\n"
        "import repro, repro.core, repro.experiments, repro.workloads, repro.parallel\n"
        f"print({LOADED_SCIPY})\n"
    )
    assert out.strip() == "[]", out


def test_pickled_solver_loads_scipy_on_first_solve_and_matches(tmp_path):
    solver = PoissonSolver(12, 18, 0.1, 0.15)
    rhs = np.sin(np.arange(12 * 18, dtype=float)).reshape(12, 18)
    want = solver.solve(rhs)
    shipped = tmp_path / "solver.pkl"
    shipped.write_bytes(pickle.dumps((solver, rhs)))
    got = tmp_path / "p.npy"
    out = run_fresh(
        "import pickle, sys\n"
        "import numpy as np\n"
        f"solver, rhs = pickle.loads(open({str(shipped)!r}, 'rb').read())\n"
        f"print({LOADED_SCIPY})\n"
        f"np.save({str(got)!r}, solver.solve(rhs))\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    before, after = out.splitlines()
    assert before == "[]", out
    assert after == "True", out
    np.testing.assert_array_equal(np.load(got), want, strict=True)


def test_bubble_prefix_loads_scipy_in_the_caller_before_the_pool_forks():
    out = run_fresh(
        "import sys, warnings\n"
        "from repro.experiments.engine import _prefix_source, gather_references\n"
        "from repro.incomp.solver import BubbleConfig\n"
        "config = dict(\n"
        "    solver=BubbleConfig(nx=12, ny=18, xlim=(-1.0, 1.0), ylim=(-1.0, 2.0),\n"
        "                        advection_scheme='upwind', reinit_interval=4),\n"
        "    spin_up_time=0.02, truncation_time=0.02, snapshot_times=(0.02,),\n"
        ")\n"
        "config_fn = lambda name: config\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    refs = gather_references(['bubble'], config_fn, backend='process',\n"
        "                             max_workers=1, prefix_for=_prefix_source(config_fn))\n"
        "print(refs['bubble'].workload)\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
        "print(sum('serially' in str(w.message) for w in caught))\n"
    )
    workload, loaded, fallbacks = out.splitlines()
    assert workload == "bubble", out
    assert loaded == "True", out
    assert fallbacks == "0", out
