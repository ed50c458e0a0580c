#!/usr/bin/env python
"""Rising bubble: how truncation strategy and precision shape the interface.

Reproduces the protocol of Figure 1 on a small grid: the advection and
diffusion operators of the incompressible multiphase solver are truncated to
4-bit and 12-bit mantissas, either everywhere or only away from the
interface (the M−1 / M−2 interface-distance cutoffs), and the resulting
interface is compared with the full-precision run.

An ASCII rendering of the final interface is printed for each case so the
qualitative differences are visible without any plotting dependencies.

Run:  python examples/bubble_interface_truncation.py
"""
import numpy as np

from repro.core import format_table
from repro.incomp import BubbleConfig
from repro.workloads import BubbleExperimentConfig, BubbleWorkload


def ascii_interface(phi: np.ndarray, width: int = 40) -> str:
    """Render the gas region (phi > 0) as ASCII art (y up, x across)."""
    nx, ny = phi.shape
    cols = min(width, nx)
    xi = (np.linspace(0, nx - 1, cols)).astype(int)
    yi = np.arange(ny - 1, -1, -2)
    lines = []
    for j in yi:
        row = "".join("#" if phi[i, j] > 0 else "." for i in xi)
        lines.append(row)
    return "\n".join(lines)


def main() -> None:
    workload = BubbleWorkload(
        BubbleExperimentConfig(
            solver=BubbleConfig(
                nx=28, ny=42, xlim=(-1.0, 1.0), ylim=(-1.0, 2.0),
                reynolds=3500.0, advection_scheme="weno5",
            ),
            spin_up_time=0.08,
            truncation_time=0.12,
            snapshot_times=(0.06, 0.12),
            fixed_dt=0.004,
        )
    )

    print("Spin-up + full-precision reference ...")
    prefix = workload.initial_state()  # one spin-up shared by every run
    reference = workload.run_strategy("none", 52, prefix=prefix)

    cases = [("everywhere", 4), ("everywhere", 12), ("cutoff-1", 4), ("cutoff-2", 4)]
    rows = []
    results = {}
    for strategy, man_bits in cases:
        print(f"Running strategy={strategy!r}, mantissa={man_bits} bits ...")
        result = workload.run_strategy(strategy, man_bits, prefix=prefix)
        results[(strategy, man_bits)] = result
        rows.append(
            [
                strategy,
                man_bits,
                f"{workload.error(result, reference):.3e}",
                f"{result.info['gas_volume']:.4f}",
                int(result.info["fragments"]),
            ]
        )

    print()
    print(format_table(
        ["strategy", "mantissa bits", "interface deviation", "gas volume", "fragments"],
        [["none (reference)", 52, "0", f"{reference.info['gas_volume']:.4f}", int(reference.info["fragments"])]] + rows,
    ))

    print("\nReference interface (phi > 0 shown as '#'):")
    print(ascii_interface(reference.state["phi"]))
    print("\n4-bit mantissa, truncated everywhere:")
    print(ascii_interface(results[("everywhere", 4)].state["phi"]))
    print("\n12-bit mantissa, truncated everywhere:")
    print(ascii_interface(results[("everywhere", 12)].state["phi"]))
    print(
        "\nAs in Figure 1 of the paper, 4-bit truncation visibly distorts the\n"
        "interface while 12 bits (or restricting truncation to cells away\n"
        "from the interface) stays close to the full-precision result."
    )


if __name__ == "__main__":
    main()
