"""Start-up footprint of the sweep entry points.

Times ``import repro.experiments, repro.workloads`` in fresh interpreters
and records, per repeat, the import seconds (interpreter start excluded),
the process's peak resident memory (``ru_maxrss``) after the import, and
whether any ``scipy`` module was loaded.  Only the bubble's Poisson solve
needs SciPy, so importing the entry points must not load it.

Usage::

    PYTHONPATH=src python benchmarks/bench_startup.py             # 15 repeats, writes the record
    PYTHONPATH=src python benchmarks/bench_startup.py --quick     # CI log: 3 repeats, no record
    python benchmarks/bench_startup.py --src parent=/path/to/old/src --src change=src

Each ``--src LABEL=DIR`` puts ``DIR`` first on the probe's ``PYTHONPATH``
and becomes one column of the record; the repeats alternate between the
columns, so a drifting host moves them alike.  Without ``--src`` the one
column is ``current``, this checkout's ``src``.  Every column reports the
median and quartiles of both figures next to the raw samples, and the
record carries the machine fingerprint of ``bench_kernels.py``.  The
record goes to ``benchmarks/results/BENCH_startup.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_kernels import _fingerprint

ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_startup.json"

#: fresh interpreters per column: (full record, --quick)
REPEATS = (15, 3)

IMPORTS = "repro.experiments, repro.workloads"

PROBE = (
    "import json, resource, sys, time\n"
    "t = time.perf_counter()\n"
    f"import {IMPORTS}\n"
    "import_s = time.perf_counter() - t\n"
    "print(json.dumps(dict(\n"
    "    import_s=import_s,\n"
    "    maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,\n"
    "    scipy_loaded=any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules),\n"
    ")))\n"
)


def probe(src: Path) -> dict:
    """One fresh-interpreter import of the entry points from ``src``."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          check=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    return json.loads(done.stdout.splitlines()[-1])


def summary(samples) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def measure(sources: dict, repeats: int) -> dict:
    runs = {label: [] for label in sources}
    for _ in range(repeats):
        for label, src in sources.items():
            runs[label].append(probe(src))
    return {
        label: {
            "import_s": summary([r["import_s"] for r in samples]),
            "maxrss_mb": summary([r["maxrss_mb"] for r in samples]),
            "scipy_loaded": any(r["scipy_loaded"] for r in samples),
        }
        for label, samples in runs.items()
    }


def parse_source(text: str):
    label, sep, src = text.partition("=")
    if not sep or not label or not src:
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    return label, Path(src).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI log mode: 3 repeats, print only, no record")
    parser.add_argument("--src", type=parse_source, action="append", default=None,
                        metavar="LABEL=DIR", help="a column: the repro sources under DIR")
    args = parser.parse_args(argv)

    repeats = REPEATS[args.quick]
    sources = dict(args.src) if args.src else {"current": ROOT / "src"}
    columns = measure(sources, repeats)

    print(f"=== start-up: import {IMPORTS}, {repeats} fresh interpreter(s) per column ===")
    for label, col in columns.items():
        t, rss = col["import_s"], col["maxrss_mb"]
        print(f"{label:>10}: import {t['median']:.3f} s (q1 {t['q1']:.3f}, q3 {t['q3']:.3f})"
              f"  maxrss {rss['median']:.1f} MB (q1 {rss['q1']:.1f}, q3 {rss['q3']:.1f})"
              f"  scipy loaded: {'yes' if col['scipy_loaded'] else 'no'}")

    if args.quick:
        return 0
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    record = {"imports": IMPORTS, "repeats": repeats, "fingerprint": _fingerprint(),
              "columns": columns}
    with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
