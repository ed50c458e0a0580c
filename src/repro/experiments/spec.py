"""Declarative description of a precision sweep.

A :class:`SweepSpec` names *what* to sweep — workloads (by registry name),
target floating-point formats, and truncation policies — and *how* to run it
(error variables, rounding mode, execution backend).  The engine in
:mod:`repro.experiments.engine` expands the spec into a deterministic grid of
:class:`SweepPoint` s and executes them.  :class:`GridSpec` holds what the
sweep and the adaptive cliff search specs share (sharding, validation, the
merge/checkpoint signature).

Everything here is picklable by construction so sweep points can cross
process boundaries untouched.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..core.config import TruncationConfig
from ..core.fpformat import FPFormat, STANDARD_FORMATS
from ..core.quantize import RoundingMode
from ..core.runtime import RaptorRuntime
from ..core.selective import (
    AMRCutoffPolicy,
    GlobalPolicy,
    ModulePolicy,
    NoTruncationPolicy,
    TruncationPolicy,
)

__all__ = [
    "GridSpec",
    "PolicySpec",
    "SweepPoint",
    "SweepSpec",
    "resolve_format",
    "format_label",
    "validate_alias_keyed_mapping",
    "validate_fault_tolerance",
]

_POLICY_KINDS = ("none", "global", "amr-cutoff", "module")


def resolve_format(fmt: Union[str, FPFormat]) -> FPFormat:
    """Resolve a format given as an :class:`FPFormat`, a standard name
    ("fp64", "bf16", …) or an ``eXmY`` spec string ("e11m18")."""
    if isinstance(fmt, FPFormat):
        return fmt
    if not isinstance(fmt, str):
        raise TypeError(f"format must be an FPFormat or a string, got {type(fmt).__name__}")
    key = fmt.strip().lower()
    if key in STANDARD_FORMATS:
        return STANDARD_FORMATS[key]
    if key.startswith("e") and "m" in key:
        exp_part, _, man_part = key[1:].partition("m")
        try:
            return FPFormat(int(exp_part), int(man_part))
        except ValueError:
            pass
    raise ValueError(
        f"unknown format {fmt!r}; use one of {sorted(STANDARD_FORMATS)} or an "
        "'e<exp>m<man>' spec such as 'e11m18'"
    )


def format_label(fmt: FPFormat) -> str:
    """Short display name of a format."""
    return fmt.name or f"e{fmt.exp_bits}m{fmt.man_bits}"


def validate_alias_keyed_mapping(
    mapping: Mapping[str, object], canonical_workloads: set, what: str
) -> None:
    """Check a per-workload mapping (configs, thresholds): every key must
    resolve to a swept workload, and no two keys may denote the same one."""
    from ..workloads.registry import canonical_name

    resolved: Dict[str, str] = {}
    for name in mapping:
        canonical = canonical_name(name)
        if canonical not in canonical_workloads:
            raise ValueError(f"{what} mentions {name!r}, which is not in workloads")
        if canonical in resolved:
            raise ValueError(
                f"{what} keys {resolved[canonical]!r} and {name!r} both refer "
                f"to workload {canonical!r}"
            )
        resolved[canonical] = name


def validate_fault_tolerance(
    on_error: str, point_timeout: Optional[float], retries: Optional[int]
) -> None:
    """Check the fault-tolerance knobs every spec (and ``find_cliff``) takes."""
    if on_error not in ("raise", "collect"):
        raise ValueError(f"on_error must be 'raise' or 'collect', got {on_error!r}")
    if point_timeout is not None and not point_timeout > 0:
        raise ValueError(f"point_timeout must be > 0 seconds (or None), got {point_timeout!r}")
    if retries is not None and retries < 0:
        raise ValueError(f"retries must be >= 0 (or None for the default), got {retries!r}")


@dataclass(frozen=True)
class PolicySpec:
    """Picklable recipe for a truncation policy.

    ``kind`` is one of:

    * ``"none"``       — full-precision reference behaviour,
    * ``"global"``     — truncate everywhere (or all of ``modules``),
    * ``"amr-cutoff"`` — the paper's M−``cutoff`` refinement-level strategy,
    * ``"module"``     — truncate only the listed physics modules.

    The target format is *not* part of the policy: the engine combines each
    policy with each format of the sweep grid.
    """

    kind: str = "global"
    cutoff: int = 0
    modules: Optional[Tuple[str, ...]] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; choose from {_POLICY_KINDS}")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if self.kind == "module" and not self.modules:
            raise ValueError("policy kind 'module' requires a non-empty modules tuple")
        if self.modules is not None:
            object.__setattr__(self, "modules", tuple(self.modules))

    # -- convenience constructors ------------------------------------------
    @classmethod
    def none(cls) -> "PolicySpec":
        return cls(kind="none", label="none")

    @classmethod
    def everywhere(cls, modules: Optional[Sequence[str]] = None) -> "PolicySpec":
        return cls(kind="global", modules=tuple(modules) if modules else None)

    @classmethod
    def amr_cutoff(cls, cutoff: int, modules: Optional[Sequence[str]] = None) -> "PolicySpec":
        return cls(kind="amr-cutoff", cutoff=cutoff, modules=tuple(modules) if modules else None)

    @classmethod
    def module(cls, *modules: str) -> "PolicySpec":
        return cls(kind="module", modules=tuple(modules))

    # ----------------------------------------------------------------------
    def describe(self) -> str:
        if self.label:
            return self.label
        mods = f"[{','.join(self.modules)}]" if self.modules else ""
        if self.kind == "none":
            return "none"
        if self.kind == "amr-cutoff":
            return f"M-{self.cutoff}{mods}"
        if self.kind == "module":
            return f"module{mods}"
        return f"global{mods}"

    def build(
        self,
        fmt: FPFormat,
        runtime: RaptorRuntime,
        rounding: str = RoundingMode.NEAREST_EVEN,
        plane: str = "auto",
        count_ops: bool = True,
    ) -> TruncationPolicy:
        """Materialise the policy for one sweep point.

        ``plane`` selects the kernel plane of the policy's contexts (see
        :mod:`repro.kernels`).  With the default ``count_ops=True``,
        truncated contexts record op counts and therefore always stay
        instrumented; ``count_ops=False`` builds non-counting contexts
        throughout, which makes the policy's truncated contexts eligible
        for the fused truncating context under ``plane="auto"``
        (bit-identical states, no counters)."""
        if self.kind == "none":
            return NoTruncationPolicy(
                runtime=runtime, count_ops=count_ops, track_memory=count_ops, plane=plane
            )
        config = TruncationConfig(
            targets={64: fmt}, rounding=rounding,
            count_ops=count_ops, track_memory=count_ops,
        )
        if self.kind == "amr-cutoff":
            return AMRCutoffPolicy(
                config, cutoff=self.cutoff, modules=self.modules, runtime=runtime, plane=plane
            )
        if self.kind == "module":
            assert self.modules is not None
            return ModulePolicy(config, modules=self.modules, runtime=runtime, plane=plane)
        # "global": optionally restricted to modules
        if self.modules:
            return ModulePolicy(config, modules=self.modules, runtime=runtime, plane=plane)
        return GlobalPolicy(config, runtime=runtime, plane=plane)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid, in deterministic enumeration order."""

    index: int
    workload: str
    fmt: FPFormat
    policy: PolicySpec

    @property
    def format_name(self) -> str:
        return format_label(self.fmt)

    def describe(self) -> str:
        return f"{self.workload} @ {self.format_name} / {self.policy.describe()}"


class GridSpec:
    """What :class:`SweepSpec` and :class:`~repro.experiments.adaptive.AdaptiveSpec`
    share: the shard slice, backend swaps, alias-aware configs, the checks
    both run, and the merge/checkpoint :meth:`signature`.

    A plain mixin, not a dataclass base, so each spec keeps its own field
    order and positional construction.  A spec supplies :meth:`full_units`
    (its whole grid; each unit has a global ``index`` and a ``workload``),
    :meth:`_axis_signature` and :meth:`failure_label`.
    """

    def __setstate__(self, state) -> None:
        # specs pickled before the fault-tolerance fields existed (old
        # shard/result files) default them on load
        self.__dict__.update(state)
        for name, default in (("on_error", "raise"), ("point_timeout", None), ("retries", None)):
            self.__dict__.setdefault(name, default)

    def full_units(self) -> tuple:
        """The complete grid, ignoring sharding, in deterministic order."""
        raise NotImplementedError

    def _axis_signature(self) -> tuple:
        """The spec's own fields that change what its units compute."""
        raise NotImplementedError

    def failure_label(self, unit) -> Tuple[int, str, str, str]:
        """``(index, workload, format_name, policy)`` of a unit's failure record."""
        raise NotImplementedError

    def units(self) -> tuple:
        """This spec's slice of the grid.

        With the default ``shard_index=0, shard_count=1`` this is the whole
        grid.  A sharded spec keeps every ``shard_count``-th unit starting
        at ``shard_index`` — a strided partition, so consecutive (same
        workload, similar cost) units spread across shards and the shards
        stay load-balanced.  Global indices are preserved, which is what
        lets ``merge`` reassemble shard outputs in the original grid order.
        """
        grid = self.full_units()
        if self.shard_count == 1:
            return grid
        return tuple(u for u in grid if u.index % self.shard_count == self.shard_index)

    def shard(self, index: int, count: int):
        """The ``index``-th of ``count`` deterministic grid partitions.

        Every unit of :meth:`full_units` lands in exactly one shard, so
        running all ``count`` shards (on any mix of hosts/backends) and
        merging their results reproduces the unsharded run bit for bit.
        """
        if count < 1:
            raise ValueError("shard count must be >= 1")
        if not (0 <= index < count):
            raise ValueError(f"shard index must be in [0, {count}), got {index}")
        if (self.shard_index, self.shard_count) != (0, 1):
            raise ValueError("spec is already sharded; shard the unsharded base spec")
        return replace(self, shard_index=index, shard_count=count)

    def unsharded(self):
        """The base spec covering the whole grid (identity when unsharded)."""
        if (self.shard_index, self.shard_count) == (0, 1):
            return self
        return replace(self, shard_index=0, shard_count=1)

    def with_backend(self, backend: str, max_workers: Optional[int] = None):
        """A copy of the spec running on a different backend."""
        return replace(self, backend=backend, max_workers=max_workers)

    def config_kwargs(self, workload: str) -> Dict[str, object]:
        """Config overrides for a workload, matching names alias-aware, so
        ``{"kh": ...}`` and ``{"kelvin-helmholtz": ...}`` mean the same."""
        direct = self.workload_configs.get(workload)
        if direct is not None:
            return dict(direct)
        from ..workloads.registry import canonical_name

        target = canonical_name(workload)
        for name, kwargs in self.workload_configs.items():
            if canonical_name(name) == target:
                return dict(kwargs)
        return {}

    def signature(self) -> tuple:
        """What must agree across shards for a merge to be meaningful: the
        full grid, the spec's own axis fields and the per-workload configs.
        Backend, worker count and the fault-tolerance knobs are excluded —
        results are backend-independent, so shards may run on
        heterogeneous hosts (and a checkpointed run resume on another)."""
        base = self.unsharded()
        return (
            base.full_units(),
            *base._axis_signature(),
            tuple((w, sorted(base.config_kwargs(w).items())) for w in base.workloads),
        )

    def _validate_grid(self, what: str) -> set:
        """The checks every spec runs before execution (fail fast, not in a
        worker); returns the canonical workload names.  Aliases deduplicate,
        unknown names raise with the registry listing, registered classes
        missing the scenario protocol are rejected with the missing surface
        spelled out, config overrides are probed against each workload's
        ``config_class`` so typo'd fields fail here, and an unknown backend
        or a worker cap below one fails before any prefix is built."""
        from ..kernels import validate_plane
        from ..parallel.executor import validate_backend
        from ..workloads.registry import canonical_name, get_workload_class
        from ..workloads.scenario import scenario_protocol_errors

        validate_plane(self.plane)
        if self.rounding not in RoundingMode.ALL:
            raise ValueError(f"unknown rounding mode {self.rounding!r}")
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not (0 <= self.shard_index < self.shard_count):
            raise ValueError(
                f"shard_index must be in [0, {self.shard_count}), got {self.shard_index}"
            )
        validate_fault_tolerance(self.on_error, self.point_timeout, self.retries)
        validate_backend(self.backend, self.max_workers)
        if not self.workloads:
            raise ValueError(f"{what} needs at least one workload")
        seen = set()
        for name in self.workloads:
            canonical = canonical_name(name)
            if canonical in seen:
                raise ValueError(
                    f"duplicate workload {name!r} (canonical name {canonical!r}) in {what}"
                )
            seen.add(canonical)
            cls = get_workload_class(name)
            problems = scenario_protocol_errors(cls)
            if problems:
                raise ValueError(
                    f"workload {name!r} ({cls.__qualname__}) does not implement the "
                    f"scenario (sweep) protocol: {'; '.join(problems)}; it is "
                    "registered for name-based lookup but cannot be swept yet"
                )
        validate_alias_keyed_mapping(self.workload_configs, seen, "workload_configs")
        for name, kwargs in self.workload_configs.items():
            config_class = getattr(get_workload_class(name), "config_class", None)
            if config_class is not None:
                try:
                    config_class(**kwargs)
                except TypeError as exc:
                    raise ValueError(f"invalid workload_configs for {name!r}: {exc}") from None
        return seen


@dataclass
class SweepSpec(GridSpec):
    """Declarative precision sweep: workloads × formats × policies.

    Parameters
    ----------
    workloads:
        Registry names (or aliases) of the workloads to sweep.
    formats:
        Target formats — :class:`FPFormat` objects, standard names or
        ``eXmY`` strings.
    policies:
        Truncation policies combined with every format.  Default: truncate
        the hydro module everywhere.
    workload_configs:
        Per-workload overrides, keyed by the name used in ``workloads``;
        values are keyword arguments for the workload's ``config_class``.
    variables:
        State variables whose error norms (vs. the full-precision
        reference) each point reports.  ``None`` (the default) reports
        each workload's own ``default_error_variables``, which is the only
        spelling that works for sweeps mixing scenario kinds (e.g.
        compressible + bubble); an explicit tuple must be available on
        every swept workload.
    rounding:
        Rounding mode of the truncated operations.
    plane:
        Kernel plane of the sweep's contexts (:mod:`repro.kernels`):
        ``"auto"`` (default) runs non-counting contexts — reference
        tasks among them — on the fused contexts and counting contexts on
        the counted fused plane (byte-identical counters);
        ``"instrumented"`` runs every context op by op.
    backend / max_workers:
        Execution backend ("serial" or "process") and its worker cap.
    keep_states:
        Also return the final uniform-grid state of every point (larger
        results; off by default).
    count_point_ops:
        Record op/mem counters in the sweep points (default; compressible
        points replay them from per-block ledgers on the counted fused
        plane).  ``False`` builds every point policy non-counting, which
        routes truncated contexts onto the fused truncating context under
        ``plane="auto"`` — bit-identical states, faster still, but
        the point snapshots carry zeroed counters.
    cache_dir:
        Directory of the on-disk reference cache (see
        :mod:`repro.experiments.cache`).  ``None`` disables caching unless
        a cache object is passed to ``run_sweep`` directly.
    shard_index / shard_count:
        This spec's slice of the expanded grid.  The default ``0 / 1`` is
        the whole grid; :meth:`shard` produces the partitioned copies.
    on_error:
        ``"raise"`` (default): the first failing point aborts the sweep,
        today's behaviour.  ``"collect"``: failing points — exceptions,
        non-finite blow-ups, timeouts, crashing workers — become structured
        :class:`~repro.experiments.engine.PointFailure` records on
        ``SweepResult.failures`` while the healthy points complete
        bit-identically to a fault-free run.
    point_timeout:
        Per-point deadline in seconds, enforced by the process backend
        (hung workers are killed and the pool rebuilt); the serial backend
        cannot enforce it and warns.  ``None`` (default) disables it.
    retries:
        Fresh-pool rebuilds granted to a task whose worker keeps dying
        (transient crash / OOM), with exponential backoff between rebuilds.
        ``None`` (default) means one rebuild, the same as ``1``;
        deterministic solver errors are never retried.
    """

    workloads: Sequence[str] = ("sedov",)
    formats: Sequence[Union[str, FPFormat]] = ("fp64", "fp32", "bf16", "fp16")
    policies: Sequence[PolicySpec] = (PolicySpec(kind="global", modules=("hydro",)),)
    workload_configs: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    variables: Optional[Tuple[str, ...]] = None
    rounding: str = RoundingMode.NEAREST_EVEN
    plane: str = "auto"
    backend: str = "serial"
    max_workers: Optional[int] = None
    keep_states: bool = False
    count_point_ops: bool = True
    cache_dir: Optional[str] = None
    shard_index: int = 0
    shard_count: int = 1
    on_error: str = "raise"
    point_timeout: Optional[float] = None
    retries: Optional[int] = None

    def resolved_formats(self) -> Tuple[FPFormat, ...]:
        return tuple(resolve_format(f) for f in self.formats)

    def validate(self) -> None:
        """Check the spec before execution (fail fast, not in a worker)."""
        from ..workloads.registry import get_workload_class

        if not self.formats:
            raise ValueError("SweepSpec needs at least one format")
        if not self.policies:
            raise ValueError("SweepSpec needs at least one policy")
        if self.variables is not None and not self.variables:
            raise ValueError(
                "SweepSpec needs at least one error variable "
                "(or variables=None for per-workload defaults)"
            )
        self._validate_grid("SweepSpec")
        if self.variables is not None:
            for name in self.workloads:
                known = tuple(getattr(get_workload_class(name), "error_variables", ()))
                unknown = [v for v in self.variables if v not in known]
                if unknown:
                    raise ValueError(
                        f"unknown error variable(s) {unknown} for workload {name!r}; "
                        f"its outcomes carry {list(known)} — pass variables=None to "
                        "use each workload's own defaults"
                    )
        self.resolved_formats()

    def full_grid(self) -> Tuple[SweepPoint, ...]:
        """The *complete* sweep grid (ignoring sharding), in deterministic
        order: workload → policy → format."""
        formats = self.resolved_formats()
        grid = []
        index = 0
        for workload in self.workloads:
            for policy in self.policies:
                for fmt in formats:
                    grid.append(SweepPoint(index=index, workload=workload, fmt=fmt, policy=policy))
                    index += 1
        return tuple(grid)

    full_units = full_grid
    #: this spec's slice of the grid (see :meth:`GridSpec.units`)
    points = GridSpec.units

    def _axis_signature(self) -> tuple:
        # the kernel plane changes which contexts feed the counters and
        # non-counting points carry zeroed counters, so shards must agree
        # on both (states would match, the merged roll-up would not)
        return (self.variables, self.rounding, self.plane, self.count_point_ops)

    def failure_label(self, point: SweepPoint) -> Tuple[int, str, str, str]:
        return (point.index, point.workload, point.format_name, point.policy.describe())

    def variables_for(self, workload: str) -> Tuple[str, ...]:
        """The error variables reported for one workload's points: the
        spec's explicit tuple, or the workload's own defaults when the
        spec leaves ``variables=None``."""
        if self.variables is not None:
            return tuple(self.variables)
        from ..workloads.registry import get_workload_class

        return tuple(get_workload_class(workload).default_error_variables)
