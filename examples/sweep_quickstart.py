"""Precision-sweep quickstart: the whole experimental loop in one call.

Sweeps any registered workload across truncated formats through the
declarative engine — reference runs, truncated runs, error norms and
operation-counter roll-ups included — and prints the result table:

    PYTHONPATH=src python examples/sweep_quickstart.py

Useful variations::

    # what can I sweep?  every registry entry with config class + metrics
    python examples/sweep_quickstart.py --list-workloads

    # the full instability suite on all four standard formats, in parallel
    python examples/sweep_quickstart.py \
        --workloads kh,rt,double-blast --formats fp64,fp32,bf16,fp16 \
        --backend process

    # CI smoke configuration (small grid, two formats)
    python examples/sweep_quickstart.py --workloads kh --formats fp32,bf16 \
        --max-level 2 --t-end 0.005 --backend process

    # kernel planes: --plane auto (default) runs references and points
    # fused, counters byte-identical; --plane instrumented runs every
    # context op by op, the fully counted classic behaviour
    python examples/sweep_quickstart.py --workloads kh --plane instrumented

    # drop the per-point operation counters: truncated points then run on
    # the fused truncating plane (bit-identical states, several times faster)
    python examples/sweep_quickstart.py --no-count-ops

    # the cellular detonation through the same engine (module-selective
    # truncation of the EOS, per-workload config overrides)
    python examples/sweep_quickstart.py --workloads cellular \
        --formats e11m46,e11m20 --policy module --modules eos \
        --config cellular:n_cells=32 --config cellular:n_steps=8

    # adaptive mode: bisect the mantissa axis to the precision cliff in
    # O(log n) runs instead of sweeping a fixed grid
    python examples/sweep_quickstart.py --adaptive --workloads cellular \
        --policy module --modules eos --min-bits 8 --max-bits 48 \
        --config cellular:n_cells=32 --config cellular:n_steps=8

    # cache the full-precision references: the second invocation reports
    # cache hits and launches zero reference tasks
    python examples/sweep_quickstart.py --cache-dir .raptor-refs
    python examples/sweep_quickstart.py --cache-dir .raptor-refs

    # shard a grid across hosts, then reassemble bit-identically
    # (works for both fixed-grid and --adaptive runs)
    python examples/sweep_quickstart.py --shard 0/4 --out shard0.pkl   # host A
    python examples/sweep_quickstart.py --shard 1/4 --out shard1.pkl   # host B
    ...
    python examples/sweep_quickstart.py --merge shard*.pkl

    # fault tolerance: record failing points instead of aborting, bound
    # each point's wall-clock on the process backend, retry transient
    # worker crashes, and journal progress so a killed sweep (or, with
    # --adaptive, cliff search) resumes bitwise-identically from where it
    # stopped
    python examples/sweep_quickstart.py --backend process \
        --on-error collect --point-timeout 300 --retries 2 \
        --resume .raptor-journal
"""
from __future__ import annotations

import argparse
import json
import pickle
import sys

from repro.core import format_table
from repro.experiments import (
    AdaptiveResult,
    AdaptiveSpec,
    CacheStats,
    PolicySpec,
    SweepResult,
    SweepSpec,
    run_adaptive_sweep,
    run_sweep,
)
from repro.kernels import PLANES
from repro.workloads import (
    CompressibleWorkload,
    UnknownWorkloadError,
    describe_workloads,
    get_workload_class,
)


def parse_shard(text: str):
    """Parse ``--shard i/n`` into ``(index, count)``."""
    try:
        index_part, _, count_part = text.partition("/")
        index, count = int(index_part), int(count_part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"shard must look like 'i/n', got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"shard count must be >= 1, got {count}")
    if not (0 <= index < count):
        raise argparse.ArgumentTypeError(f"shard index must be in [0, {count}), got {index}")
    return index, count


def parse_config_override(text: str):
    """Parse ``--config workload:key=value`` (value via JSON, else string)."""
    workload, sep, assignment = text.partition(":")
    key, eq, value = assignment.partition("=")
    if not sep or not eq or not workload.strip() or not key.strip():
        raise argparse.ArgumentTypeError(
            f"config override must look like 'workload:key=value', got {text!r}"
        )
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return workload.strip(), key.strip(), parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list-workloads",
        action="store_true",
        help="print every registry entry (config class, metrics, description) and exit",
    )
    parser.add_argument(
        "--workloads",
        default="kh,rt,double-blast",
        help="comma-separated registry names (try --list-workloads)",
    )
    parser.add_argument(
        "--formats",
        default="fp64,fp32,bf16,fp16",
        help="comma-separated formats (standard names or eXmY specs)",
    )
    parser.add_argument(
        "--policy",
        default=None,
        choices=["global", "m-1", "m-2", "module"],
        help="truncation policy applied to --modules (default: global; "
        "in --adaptive mode, omitting both --policy and --modules targets "
        "each workload's own default modules)",
    )
    parser.add_argument(
        "--modules",
        default=None,
        help="comma-separated physics modules the policy truncates "
        "(default hydro; eos for cellular, advection,diffusion for bubble)",
    )
    parser.add_argument(
        "--variables",
        default=None,
        help="comma-separated error variables; default: each workload's own",
    )
    parser.add_argument(
        "--plane",
        default="auto",
        choices=list(PLANES),
        help="kernel plane (repro.kernels): auto (default) runs non-counting "
        "contexts, references among them, on the fused contexts and counting "
        "contexts on the counted fused plane (bit-identical states, "
        "byte-identical counters); instrumented runs every context op by op",
    )
    parser.add_argument(
        "--no-count-ops",
        action="store_true",
        help="build the sweep points' (and adaptive probes') truncating "
        "policies without operation counters; dispatch then routes them "
        "onto the fused truncating plane — states stay bit-identical, "
        "the op/byte roll-up reads zero, points run several times faster",
    )
    parser.add_argument("--backend", default="serial", choices=["serial", "process"])
    parser.add_argument("--max-workers", type=int, default=None)
    parser.add_argument(
        "--on-error",
        default="raise",
        choices=["raise", "collect"],
        help="what a failing point does: raise (default) aborts the sweep "
        "with the original exception; collect records a structured "
        "PointFailure and keeps sweeping the healthy points",
    )
    parser.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock bound on the process backend (per-cell "
        "in --adaptive mode); hung workers are killed and the point is "
        "reported as a timeout failure",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry tasks orphaned by transient worker crashes up to N "
        "times in fresh process pools, with backoff (default: 1); "
        "deterministic crashers still fail after the budget",
    )
    parser.add_argument(
        "--resume",
        "--checkpoint",
        dest="checkpoint",
        default=None,
        metavar="DIR",
        help="journal every resolved point (or, with --adaptive, every "
        "resolved cliff-search cell) into DIR (crash-safe, atomic); "
        "rerunning the same command resumes, executing only the missing "
        "points or cells, bitwise identical to an uninterrupted run",
    )
    parser.add_argument("--max-level", type=int, default=3, help="AMR levels (8x8 blocks)")
    parser.add_argument("--t-end", type=float, default=None, help="override simulated end time")
    parser.add_argument(
        "--config",
        action="append",
        type=parse_config_override,
        default=[],
        metavar="WORKLOAD:KEY=VALUE",
        help="per-workload config override (repeatable), e.g. cellular:n_cells=32",
    )
    parser.add_argument("--json", action="store_true", help="emit the result as JSON")
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="bisect the mantissa axis to each workload's precision cliff "
        "instead of sweeping the fixed format grid",
    )
    parser.add_argument("--min-bits", type=int, default=4, help="adaptive: smallest mantissa")
    parser.add_argument("--max-bits", type=int, default=48, help="adaptive: widest mantissa")
    parser.add_argument("--exp-bits", type=int, default=11, help="adaptive: exponent width")
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="adaptive: error threshold of the failure predicate "
        "(default: each workload's own, e.g. cellular's physics invariant)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the reference-run cache; repeated sweeps reuse "
        "full-precision references instead of recomputing them",
    )
    parser.add_argument(
        "--shard",
        type=parse_shard,
        default=None,
        metavar="I/N",
        help="run only the I-th of N deterministic grid partitions "
        "(combine the outputs with --merge)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="save the (shard) result to PATH for a later --merge",
    )
    parser.add_argument(
        "--merge",
        nargs="+",
        default=None,
        metavar="SHARD.pkl",
        help="merge shard results saved with --out instead of running anything",
    )
    return parser


def list_workloads() -> None:
    rows = []
    for row in describe_workloads():
        rows.append(
            [
                row["name"],
                ",".join(row["aliases"]) or "-",
                row["kind"],
                row["config_class"],
                ",".join(row["error_variables"]),
                row["description"],
            ]
        )
    print(format_table(
        ["workload", "aliases", "kind", "config", "error variables", "description"], rows
    ))


def build_workload_configs(args: argparse.Namespace, workloads) -> dict:
    """Compressible workloads get the grid flags; --config overrides apply
    to any workload and win over the flag-derived values."""
    compressible = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2,
                        max_level=args.max_level, rk_stages=1)
    if args.t_end is not None:
        compressible["t_end"] = args.t_end
    configs = {}
    for name in workloads:
        if issubclass(get_workload_class(name), CompressibleWorkload):
            configs[name] = dict(compressible)
    for workload, key, value in args.config:
        configs.setdefault(workload, {})[key] = value
    return configs


def report_sweep(result: SweepResult, args: argparse.Namespace, merged: bool = False) -> None:
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return

    if merged:
        source = "reassembled from shards"
    else:
        source = f"on the {result.spec.backend} backend"
        if result.spec.shard_count > 1:
            source += f" (shard {result.spec.shard_index}/{result.spec.shard_count})"
    print(f"\n=== precision sweep: {len(result)} points {source} ===")
    print(result.table("dens"))

    rollup = result.rollup()
    gtrunc, gfull = rollup.giga_flops()
    print(
        format_table(
            ["counter", "truncated", "full"],
            [
                ["scalar ops (1e9)", f"{gtrunc:.4f}", f"{gfull:.4f}"],
                ["bytes moved", str(rollup.mem.truncated), str(rollup.mem.full)],
            ],
        )
    )
    report_footer(result, merged, "points", f"{result.total_point_seconds:.2f}s in point workers, ")


def report_adaptive(result: AdaptiveResult, args: argparse.Namespace, merged: bool = False) -> None:
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return
    source = "reassembled from shards" if merged else f"on the {result.spec.backend} backend"
    print(f"\n=== adaptive cliff search: {len(result)} cell(s) {source} ===")
    print(result.table())
    grid_total = sum(c.grid_points for c in result.cliffs)
    print(f"total runs: {result.total_runs} (vs {grid_total} for the fixed grids)")
    report_footer(result, merged, "cells")


def report_footer(result, merged: bool, units: str, detail: str = "") -> None:
    """Wall-clock, cache statistics and failures of a sweep or cliff search."""
    # merge() sums shard elapsed times: aggregate compute, nobody's wall-clock
    label = "aggregate shard time" if merged else "wall-clock"
    print(f"{label}: {result.elapsed_seconds:.2f}s ({detail}plane={result.spec.plane})")
    if result.cache_stats is not None:
        print("reference cache: " + CacheStats(**result.cache_stats).describe())
    if result.failures:
        print(f"failed {units}: {len(result.failures)}")
        for failure in result.failures:
            print(f"  {failure.describe()}")


def load_result(path):
    """Load a shard file saved with --out (sweep or adaptive)."""
    with open(path, "rb") as fh:
        result = pickle.load(fh)
    if not isinstance(result, (SweepResult, AdaptiveResult)):
        raise SystemExit(f"{path} holds a {type(result).__name__}, not a sweep/adaptive result")
    return result


def main() -> None:
    parser = build_parser()
    args = parser.parse_args()

    if args.list_workloads:
        list_workloads()
        return

    def note(message: str) -> None:
        # keep stdout pure JSON under --json; progress notes go to stderr
        print(message, file=sys.stderr if args.json else sys.stdout)

    if args.merge is not None:
        if args.shard is not None:
            raise SystemExit("--merge and --shard are mutually exclusive")
        shards = [load_result(path) for path in args.merge]
        kinds = {type(s) for s in shards}
        if len(kinds) > 1:
            raise SystemExit("--merge cannot mix sweep and adaptive shard files")
        merged = kinds.pop().merge(shards)
        if isinstance(merged, AdaptiveResult):
            note(f"merged {len(args.merge)} shard file(s) into {len(merged)} cells")
            report_adaptive(merged, args, merged=True)
        else:
            note(f"merged {len(args.merge)} shard file(s) into {len(merged)} points")
            report_sweep(merged, args, merged=True)
        if args.out:
            merged.save(args.out)
            note(f"saved merged result to {args.out}")
        return

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]

    def build_policy() -> PolicySpec:
        modules = tuple(
            m.strip() for m in (args.modules or "hydro").split(",") if m.strip()
        ) or None
        return {
            "global": PolicySpec.everywhere(modules=modules),
            "m-1": PolicySpec.amr_cutoff(1, modules=modules),
            "m-2": PolicySpec.amr_cutoff(2, modules=modules),
            "module": PolicySpec.module(*(modules or ("hydro",))),
        }[args.policy or "global"]

    def build_spec():
        workload_configs = build_workload_configs(args, workloads)
        if args.adaptive:
            # with neither --policy nor --modules given, let each workload's
            # default_modules pick the truncation target (a fixed hydro policy
            # would truncate nothing for cellular/bubble)
            explicit = args.policy is not None or args.modules is not None
            spec = AdaptiveSpec(
                workloads=workloads,
                policies=[build_policy()] if explicit else None,
                min_man_bits=args.min_bits,
                max_man_bits=args.max_bits,
                exp_bits=args.exp_bits,
                threshold=args.threshold,
                count_probe_ops=not args.no_count_ops,
                workload_configs=workload_configs,
                plane=args.plane,
                backend=args.backend,
                max_workers=args.max_workers,
                cache_dir=args.cache_dir,
                on_error=args.on_error,
                point_timeout=args.point_timeout,
                retries=args.retries,
            )
        else:
            formats = [f.strip() for f in args.formats.split(",") if f.strip()]
            variables = None
            if args.variables is not None:
                variables = tuple(v.strip() for v in args.variables.split(",") if v.strip())
            spec = SweepSpec(
                workloads=workloads,
                formats=formats,
                policies=[build_policy()],
                workload_configs=workload_configs,
                variables=variables,
                count_point_ops=not args.no_count_ops,
                plane=args.plane,
                backend=args.backend,
                max_workers=args.max_workers,
                cache_dir=args.cache_dir,
                on_error=args.on_error,
                point_timeout=args.point_timeout,
                retries=args.retries,
            )
        if args.shard is not None:
            spec = spec.shard(*args.shard)
        spec.validate()
        return spec

    # a bad workload name or spec value is a usage error: one argparse
    # ``error:`` line and exit status 2, not a traceback
    try:
        spec = build_spec()
    except (UnknownWorkloadError, ValueError) as exc:
        parser.error(str(exc))

    if args.adaptive:
        result = run_adaptive_sweep(spec, checkpoint=args.checkpoint)
        report_adaptive(result, args)
    else:
        result = run_sweep(spec, checkpoint=args.checkpoint)
        report_sweep(result, args)

    if args.out:
        result.save(args.out)
        note(f"saved result to {args.out}")


if __name__ == "__main__":
    main()
