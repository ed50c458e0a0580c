"""Preallocated scratch workspaces for the fused fast plane.

The fused kernels of :mod:`repro.kernels.fused` and
:mod:`repro.kernels.flux` are straight-line numpy; without help every call
allocates a fresh temporary per ufunc, and on sweep-scale 8x8 AMR blocks
that allocation churn is a measurable fraction of the hot loop.  A
:class:`Workspace` removes it: kernels request named output buffers via
:meth:`Workspace.out` and thread them through ``out=``, so after the first
call over a given block shape the whole flux pipeline runs with zero
allocations.

Buffers are keyed by ``(key, shape, dtype)`` where ``key`` encodes the call
site (typically ``(axis, stage, name)``), so the same workspace serves both
sweep directions, every variable and every batched block shape at once, and
is reused across substeps and steps.  (The hydro solver's batched stacks
mix blocks of every AMR level — each slot carries its own ``dx``/``dy`` —
so a stack's shape tracks the number of fused blocks sharing a context
signature, not a per-level count.)  A workspace is *scratch*: no buffer's
content is assumed to survive between kernel invocations, and every fused
kernel produces bit-identical results with or without one (``out=`` never
changes ufunc rounding, and the kernels never write into caller-owned
arrays).

Workspaces are deliberately cheap to drop: pickling or deep-copying one
(e.g. when a solver crosses a process boundary) yields a fresh, empty
workspace.

Every solver and grid owns one workspace; there is no switch that turns
the buffers off.  Kernels called standalone take ``ws=None`` and allocate
normally (:func:`out_accessor`, :func:`buffer`), with the same bits.
"""
from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = [
    "Workspace",
    "NULL_WORKSPACE",
    "out_accessor",
    "buffer",
]


class Workspace:
    """A pool of named, preallocated scratch arrays.

    ``out(key, shape, dtype)`` returns the buffer registered under
    ``(key, shape, dtype)``, allocating it on first use.  Callers pass the
    result straight to a ufunc's ``out=``; distinct keys guarantee distinct
    storage, so a kernel keeps values alive exactly as long as it keeps
    their keys unique.

    Batched kernels key their buffers by the stacked shape, so a long AMR
    run whose block counts keep changing (regridding) would
    accumulate one buffer family per group size ever seen.  ``max_bytes``
    bounds that growth: once the pool exceeds the cap, :meth:`trim` drops
    the *stale* buffers — those not requested since the previous trim —
    and keeps the live working set, so an oversized working set is never
    thrashed (a pool whose fresh buffers alone exceed the cap simply stays
    resident).  Trimming invalidates the dropped buffers, so callers must
    only invoke it at a quiescent point (the hydro solver trims between
    substeps, where no scratch value is live by construction).
    """

    __slots__ = ("_buffers", "_last_used", "_generation", "hits", "misses",
                 "max_bytes", "trims")

    #: default soft cap — generous next to the ~2 MB steady-state working
    #: set of an 8x8-block pipeline, small next to any real host
    DEFAULT_MAX_BYTES = 64 * 2 ** 20

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self._buffers: Dict[Tuple, np.ndarray] = {}
        self._last_used: Dict[Tuple, int] = {}
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.max_bytes = int(max_bytes)
        self.trims = 0

    def out(self, key, shape, dtype=np.float64) -> np.ndarray:
        """The scratch buffer for ``key`` at ``shape``/``dtype``."""
        full = (key, tuple(shape), np.dtype(dtype).char)
        buf = self._buffers.get(full)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[full] = buf
            self.misses += 1
        else:
            self.hits += 1
        self._last_used[full] = self._generation
        return buf

    # ------------------------------------------------------------------
    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the workspace."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        """Drop every buffer (counters kept)."""
        self._buffers.clear()
        self._last_used.clear()

    def trim(self) -> bool:
        """Drop the stale buffers if the pool exceeds ``max_bytes``.

        Stale = not requested since the previous :meth:`trim` call, i.e.
        outside the current working set (old batch-group shapes after a
        regrid).  Fresh buffers are always kept, so a working set larger
        than the cap is never thrashed.  Call only at quiescent points —
        no scratch value may be live.  Returns whether buffers were
        dropped.
        """
        generation = self._generation
        self._generation = generation + 1
        if self.nbytes <= self.max_bytes:
            return False
        stale = [key for key, used in self._last_used.items() if used < generation]
        for key in stale:
            del self._buffers[key]
            del self._last_used[key]
        if stale:
            self.trims += 1
        return bool(stale)

    # ------------------------------------------------------------------
    # a workspace is pure scratch: crossing a process boundary (pickle) or
    # being deep-copied yields a fresh, empty one
    def __reduce__(self):
        return (Workspace, ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workspace(buffers={self.n_buffers}, nbytes={self.nbytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class _NullWorkspace:
    """Stand-in used when no workspace is supplied: ``out`` returns ``None``
    so ufuncs allocate normally (``np.ufunc(..., out=None)`` is the default
    allocating path)."""

    __slots__ = ()
    hits = 0
    misses = 0

    def out(self, key, shape, dtype=np.float64):
        return None


#: module-level singleton handed to fused kernels called without a workspace
NULL_WORKSPACE = _NullWorkspace()


def out_accessor(ws):
    """The ``out`` accessor of ``ws`` — the single null-workspace fallback
    shared by every fused kernel (``ws=None`` means "allocate normally")."""
    return (ws if ws is not None else NULL_WORKSPACE).out


def buffer(ws, key, shape, dtype=np.float64) -> np.ndarray:
    """The scratch buffer of ``ws`` for ``key`` — a fresh array when ``ws``
    is ``None`` (for call sites that index into the buffer, where the
    null workspace's ``None`` cannot stand in)."""
    if ws is None:
        return np.empty(shape, dtype=dtype)
    return ws.out(key, shape, dtype)
