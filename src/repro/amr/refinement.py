"""Refinement criteria.

Flash-X marks blocks for refinement with the Löhner error estimator: a
normalised, dimensionless second-derivative measure that is large near steep
gradients and discontinuities (shocks, interfaces) and small where the
solution is smooth.  The AMR experiments in the paper rely on exactly this
behaviour: the finest blocks follow the shock / interface, so excluding them
from truncation protects the sensitive regions.
"""
from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from .block import Block

__all__ = [
    "lohner_error",
    "gradient_error",
    "block_error",
    "stacked_block_errors",
    "prolong",
    "restrict",
]


def lohner_error(u: np.ndarray, filter_coefficient: float = 0.01) -> np.ndarray:
    """Löhner (1987) error estimator on a 2-D array.

    Returns an array of the same shape; the outermost ring of cells is set to
    zero because the stencil needs one neighbour in each direction.  The
    estimator is

    ``sqrt( sum |d2u|^2 / sum (|du|_avg + eps*|u|_avg)^2 )``

    where the sums run over the 2x2 cross-derivative stencil (here the two
    axis-aligned second differences, the standard FLASH simplification).

    Parameters
    ----------
    u:
        Cell-centred data (guard cells included if available).
    filter_coefficient:
        The ``epsilon`` damping constant that filters out ripples; FLASH uses
        0.01 by default.

    The stencil acts on the *trailing two* axes, so a stacked
    ``(nblocks, nx, ny)`` array is estimated in one shot
    (``supports_batching``); since the expressions are element-wise over
    the same values, the stacked form is bit-identical to evaluating each
    2-D slice separately.
    """
    u = np.asarray(u, dtype=np.float64)
    err = np.zeros_like(u)
    if u.shape[-2] < 3 or u.shape[-1] < 3:
        return err

    c = u[..., 1:-1, 1:-1]
    xp, xm = u[..., 2:, 1:-1], u[..., :-2, 1:-1]
    yp, ym = u[..., 1:-1, 2:], u[..., 1:-1, :-2]

    num = (xp - 2 * c + xm) ** 2 + (yp - 2 * c + ym) ** 2
    den = (
        (np.abs(xp - c) + np.abs(c - xm) + filter_coefficient * (np.abs(xp) + 2 * np.abs(c) + np.abs(xm))) ** 2
        + (np.abs(yp - c) + np.abs(c - ym) + filter_coefficient * (np.abs(yp) + 2 * np.abs(c) + np.abs(ym))) ** 2
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0, num / den, 0.0)
    err[..., 1:-1, 1:-1] = np.sqrt(ratio)
    return err


lohner_error.supports_batching = True


def gradient_error(u: np.ndarray) -> np.ndarray:
    """Simple normalised-gradient estimator (used by some tests/examples).

    Trailing-axes stencil like :func:`lohner_error`, so stacked evaluation
    is supported and bit-identical to the per-slice form.
    """
    u = np.asarray(u, dtype=np.float64)
    err = np.zeros_like(u)
    if u.shape[-2] < 3 or u.shape[-1] < 3:
        return err
    c = u[..., 1:-1, 1:-1]
    dx = np.abs(u[..., 2:, 1:-1] - u[..., :-2, 1:-1])
    dy = np.abs(u[..., 1:-1, 2:] - u[..., 1:-1, :-2])
    scale = np.abs(c) + 1e-30
    err[..., 1:-1, 1:-1] = 0.5 * (dx + dy) / scale
    return err


gradient_error.supports_batching = True


def block_error(
    block: Block,
    variables: Iterable[str],
    estimator=lohner_error,
    use_guards: bool = True,
) -> float:
    """Maximum estimator value over the block, across refinement variables."""
    worst = 0.0
    for name in variables:
        arr = block.data[name] if use_guards else block.interior_view(name)
        err = estimator(arr)
        if use_guards and block.ng > 0:
            ng = block.ng
            err = err[ng:-ng, ng:-ng]
        if err.size:
            worst = max(worst, float(np.max(err)))
    return worst


def stacked_block_errors(
    grid,
    variables: Iterable[str],
    estimator=lohner_error,
    ws=None,
) -> np.ndarray:
    """Per-leaf :func:`block_error` of ``grid``, in sorted-key order.

    For each variable the leaves (every AMR level — they share one cell
    shape) are gathered from the grid's block store into one
    ``(nleaves, nx, ny)`` stack, guard cells included, and the estimator
    runs once over the trailing axes.  Bit-identical to
    ``[block_error(b, variables, estimator) for b in grid.blocks()]``
    because the stacked estimator is element-wise equal to the per-slice
    one and the max reductions are exact.  Only estimators declaring
    ``supports_batching`` are accepted — a plain 2-D estimator applied to a
    3-D stack would silently mix axes.
    """
    if not getattr(estimator, "supports_batching", False):
        raise ValueError(
            "estimator does not support stacked evaluation; "
            "evaluate block_error per block instead"
        )
    from ..kernels.scratch import buffer

    slots = grid.topology_plan().slots
    ng = grid.ng
    stack = buffer(ws, ("estimator", "stack"), (1, len(slots), *grid.unk.shape[2:]))
    worst = np.zeros(len(slots))
    for name in variables:
        err = estimator(grid.stack([name], slots, out=stack)[0])
        if ng > 0:
            err = err[:, ng:-ng, ng:-ng]
        np.maximum(worst, err.max(axis=(1, 2)), out=worst)
    return worst


# ---------------------------------------------------------------------------
# inter-level transfer operators
# ---------------------------------------------------------------------------
def prolong(coarse: np.ndarray, factor: int = 2) -> np.ndarray:
    """Piecewise-constant prolongation (injection) coarse -> fine.

    Each coarse cell value is copied into the ``factor x factor`` fine cells
    it covers; this preserves cell averages exactly and never creates new
    extrema, which keeps the transfer benign for the truncation studies.
    Acts on the trailing two axes, so a stack of patches prolongs in one
    call (pure copies, so bitwise equal to prolonging each patch).
    """
    coarse = np.asarray(coarse, dtype=np.float64)
    return np.repeat(np.repeat(coarse, factor, axis=-2), factor, axis=-1)


def restrict(fine: np.ndarray) -> np.ndarray:
    """Conservative restriction fine -> coarse: the mean of each 2x2 cell group.

    Acts on the trailing two axes and reproduces, bit for bit, numpy's
    ``reshape(nx // 2, 2, ny // 2, 2).mean(axis=(1, 3))`` of a 2-D patch
    that is a view into a block (the form this function had before it was
    stacked).  That reduction's summation order depends on the memory
    layout numpy iterates, and a stack gathered from the block store has
    another one, so the order is written out element-wise: each group
    ``[[a, b], [c, d]]`` sums as ``(0 + (a + b)) + (c + d)`` — or, when the
    patch is two cells wide (a single output column), as
    ``((((0 + a) + b) + c) + d)`` — and divides by 4.  Pinned against the
    2-D mean by the grid tests; a NaN result stays NaN, its sign bit is
    not pinned.
    """
    fine = np.asarray(fine, dtype=np.float64)
    nx, ny = fine.shape[-2:]
    if nx % 2 or ny % 2:
        raise ValueError(f"fine shape {fine.shape} not divisible by 2")
    a, b = fine[..., 0::2, 0::2], fine[..., 0::2, 1::2]
    c, d = fine[..., 1::2, 0::2], fine[..., 1::2, 1::2]
    total = 0.0 + a + b + c + d if ny == 2 else 0.0 + (a + b) + (c + d)
    return total / 4
