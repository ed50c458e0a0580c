"""Selective and dynamic truncation policies.

Section 6 of the paper explores three truncation modes:

1. *Global truncation* — every operation in the scope is truncated
   (:class:`GlobalPolicy`).
2. *Selective truncation with AMR* — truncation is applied only on blocks at
   levels coarser than ``M - l`` where ``M`` is the maximum refinement level
   (:class:`AMRCutoffPolicy`).  This is the "dynamic truncation" feature of
   Table 1: whether an operation is truncated depends on the simulation
   state (the block's refinement level) at run time.
3. *Selective truncation of a physics module* — only operations belonging to
   a chosen module (hydro, eos, advection, diffusion…) are truncated
   (:class:`ModulePolicy`).

A policy is consulted by the simulation driver for every (module, block)
pair and returns the numerics context to use — either a truncating context
or the shared full-precision context.  Policies compose with both op-mode
and mem-mode contexts.
"""
from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence

from .config import Mode, TruncationConfig
from .memmode import ShadowContext
from .opmode import FPContext, FullPrecisionContext, TruncatedContext
from .runtime import RaptorRuntime, get_runtime

__all__ = [
    "TruncationPolicy",
    "NoTruncationPolicy",
    "GlobalPolicy",
    "AMRCutoffPolicy",
    "ModulePolicy",
    "PredicatePolicy",
]


class TruncationPolicy:
    """Decides, per (module, block level), whether operations are truncated.

    Subclasses implement :meth:`should_truncate`; the base class handles
    context construction and caching so repeated queries are cheap.

    ``plane`` selects the kernel plane of the contexts the policy hands
    out (see :mod:`repro.kernels`): ``"auto"`` (default) substitutes the
    fused contexts wherever the counters survive — non-counting binary64
    contexts onto the fused binary64 context, *non-counting* truncating
    op-mode contexts onto the fused truncating context, counting op-mode
    contexts onto the counted fused plane (byte-identical counters) —
    ``"instrumented"`` never substitutes.  Error-tracking and shadow
    contexts always stay instrumented — their records depend on the data.
    """

    def __init__(
        self,
        config: Optional[TruncationConfig],
        runtime: Optional[RaptorRuntime] = None,
        plane: str = "auto",
    ) -> None:
        from ..kernels.dispatch import validate_plane

        self.config = config
        self.runtime = runtime if runtime is not None else get_runtime()
        self.plane = validate_plane(plane)
        self._full_contexts: Dict[Optional[str], FPContext] = {}
        self._trunc_contexts: Dict[Optional[str], FPContext] = {}

    # -- to be overridden -----------------------------------------------------
    def should_truncate(
        self,
        module: Optional[str] = None,
        level: Optional[int] = None,
        max_level: Optional[int] = None,
        state: Optional[dict] = None,
    ) -> bool:
        raise NotImplementedError

    # -- context factory --------------------------------------------------------
    def _full_context(self, module: Optional[str]) -> FPContext:
        ctx = self._full_contexts.get(module)
        if ctx is None:
            from ..kernels.dispatch import select_context

            count = self.config.count_ops if self.config is not None else True
            track = self.config.track_memory if self.config is not None else True
            ctx = select_context(
                FullPrecisionContext(
                    runtime=self.runtime, count_ops=count, track_memory=track, module=module
                ),
                self.plane,
            )
            self._full_contexts[module] = ctx
        return ctx

    def full_context(self, module: Optional[str] = None) -> FPContext:
        """The full-precision context of this policy for ``module``, on the
        policy's kernel plane — for code that always runs untruncated but
        should still run fused when the policy's plane allows it.

        The context is bound to the **policy's** runtime.  Callers that
        count into a per-run runtime the policy was not built on must
        instead build their own context and route it through
        :func:`repro.kernels.select_context` with this policy's ``plane``
        (see the burn context in ``repro.workloads.cellular``)."""
        return self._full_context(module)

    def _truncated_context(self, module: Optional[str]) -> FPContext:
        ctx = self._trunc_contexts.get(module)
        if ctx is None:
            assert self.config is not None
            if self.config.mode == Mode.MEM:
                # shadow contexts are the measurement: never re-planed
                ctx = ShadowContext.from_config(self.config, runtime=self.runtime, module=module)
            else:
                from ..kernels.dispatch import select_context

                ctx = select_context(
                    TruncatedContext.from_config(self.config, runtime=self.runtime, module=module),
                    self.plane,
                )
            self._trunc_contexts[module] = ctx
        return ctx

    def context_for(
        self,
        module: Optional[str] = None,
        level: Optional[int] = None,
        max_level: Optional[int] = None,
        state: Optional[dict] = None,
    ) -> FPContext:
        """Return the numerics context for an operation site."""
        if (
            self.config is None
            or self.config.is_noop()
            or not self.should_truncate(module=module, level=level, max_level=max_level, state=state)
        ):
            return self._full_context(module)
        return self._truncated_context(module)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        cfg = self.config.describe() if self.config is not None else "none"
        return f"{type(self).__name__}({cfg})"


class NoTruncationPolicy(TruncationPolicy):
    """Full precision everywhere — the reference runs of Section 6."""

    def __init__(
        self,
        runtime: Optional[RaptorRuntime] = None,
        count_ops: bool = True,
        track_memory: bool = True,
        plane: str = "auto",
    ) -> None:
        cfg = TruncationConfig(enabled=False, count_ops=count_ops, track_memory=track_memory)
        super().__init__(cfg, runtime, plane=plane)

    def should_truncate(self, **_kwargs) -> bool:
        return False


class GlobalPolicy(TruncationPolicy):
    """Truncate every operation in the instrumented scope (M−0 / Full Trunc)."""

    def should_truncate(self, **_kwargs) -> bool:
        return True


class AMRCutoffPolicy(TruncationPolicy):
    """Truncate only blocks coarser than the cutoff level ``M - l``.

    Parameters
    ----------
    cutoff:
        The ``l`` in the paper's ``M − l`` notation: ``cutoff=0`` truncates
        everything, ``cutoff=1`` disables truncation on the most refined
        level, ``cutoff=2`` on the two most refined levels, and so on.
    modules:
        Optional restriction of the truncation to a set of physics modules
        (e.g. only the hydro solver, or only advection + diffusion); ``None``
        truncates all modules on eligible blocks.
    """

    def __init__(
        self,
        config: TruncationConfig,
        cutoff: int,
        modules: Optional[Iterable[str]] = None,
        runtime: Optional[RaptorRuntime] = None,
        plane: str = "auto",
    ) -> None:
        super().__init__(config, runtime, plane=plane)
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.cutoff = int(cutoff)
        self.modules = set(modules) if modules is not None else None

    def should_truncate(
        self,
        module: Optional[str] = None,
        level: Optional[int] = None,
        max_level: Optional[int] = None,
        state: Optional[dict] = None,
    ) -> bool:
        if self.modules is not None and module not in self.modules:
            return False
        if level is None or max_level is None:
            # No AMR information available: behave like global truncation,
            # mirroring file/program scope on non-AMR code.
            return True
        # M-0 truncates everything; M-l leaves the l most refined levels
        # (levels > max_level - l) at full precision.
        return level <= max_level - self.cutoff

    def describe(self) -> str:
        mods = sorted(self.modules) if self.modules is not None else "all"
        return f"AMRCutoffPolicy(M-{self.cutoff}, modules={mods}, {self.config.describe()})"


class ModulePolicy(TruncationPolicy):
    """Truncate only the listed physics modules (entire-module truncation).

    Used for the Cellular experiment (truncating the EOS module) and the
    Bubble experiment (truncating advection and diffusion operators).
    """

    def __init__(
        self,
        config: TruncationConfig,
        modules: Iterable[str],
        runtime: Optional[RaptorRuntime] = None,
        plane: str = "auto",
    ) -> None:
        super().__init__(config, runtime, plane=plane)
        self.modules = set(modules)

    def should_truncate(self, module: Optional[str] = None, **_kwargs) -> bool:
        return module in self.modules

    def describe(self) -> str:
        return f"ModulePolicy(modules={sorted(self.modules)}, {self.config.describe()})"


class PredicatePolicy(TruncationPolicy):
    """Fully dynamic truncation driven by an arbitrary predicate.

    The predicate receives ``(module, level, max_level, state)`` and returns
    True to truncate.  This is the general form of "dynamic truncation"
    (Table 1, feature 3): e.g. truncate only where the local solution is
    smooth, or only after a given simulation time.
    """

    def __init__(
        self,
        config: TruncationConfig,
        predicate: Callable[[Optional[str], Optional[int], Optional[int], Optional[dict]], bool],
        runtime: Optional[RaptorRuntime] = None,
        plane: str = "auto",
    ) -> None:
        super().__init__(config, runtime, plane=plane)
        self.predicate = predicate

    def should_truncate(
        self,
        module: Optional[str] = None,
        level: Optional[int] = None,
        max_level: Optional[int] = None,
        state: Optional[dict] = None,
    ) -> bool:
        return bool(self.predicate(module, level, max_level, state))
