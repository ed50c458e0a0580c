"""The unified scenario protocol: one result type, one error contract.

Every workload in the registry — the compressible AMR runs, the cellular
detonation, and the bubble level-set experiment — implements the same small
surface, which is what lets the sweep engine, the reference cache, the
sharding machinery, and the adaptive cliff search treat all of them
uniformly:

* ``initial_state()`` — the policy-independent binary64 prefix of a run
  (the refined initial grid, the spun-up bubble solver state, the cellular
  initial arrays), or ``None`` for a scenario without one.  The sweep
  engine builds it once per workload per sweep call and hands it to every
  reference, point and cliff probe;
* ``run(policy=None, runtime=None) -> Outcome`` — execute under a
  truncation policy (``None`` = full-precision reference behaviour).  A
  scenario with a prefix also accepts ``prefix=`` (the value of
  ``initial_state()``) and starts from a private copy of it, so the
  caller's prefix is never mutated;
* ``reference() -> Outcome`` — the full-precision reference run;
* ``error(outcome, reference) -> float`` — the workload's scalar error
  metric (sfocu L1 for the compressible workloads, detonation-front
  deviation for cellular, interface deviation for bubble);
* ``acceptable(outcome, reference, threshold=None) -> bool`` — the failure
  predicate of the adaptive cliff search: an error threshold, a physics
  invariant (cellular's "the detonation still propagates and the EOS still
  converges"), or both.

Class attributes complete the contract: ``kind`` tags the scenario family,
``error_variables`` lists the state variables sfocu norms can be requested
for, ``default_error_variables`` is what a sweep reports when the spec
leaves ``variables=None``, and ``cliff_threshold`` is the default failure
threshold of :func:`repro.experiments.adaptive.find_cliff`.

:class:`Outcome` is the common result every scenario returns.  Its
serializable core (``state`` — a dict of float64 arrays — plus ``time``,
``info``, ``runtime_snapshot``) is exactly what the
:class:`~repro.experiments.cache.ReferenceCache` round-trips through
``.npz`` and what crosses process boundaries; the live ``runtime`` / ``grid``
handles are conveniences for in-process callers and are dropped by
:meth:`Outcome.detach`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.runtime import RaptorRuntime
from ..io.checkpoint import Checkpoint

__all__ = ["Outcome", "Scenario", "is_scenario", "scenario_protocol_errors"]


@dataclass(eq=False)
class Outcome:
    """Everything one scenario execution produces.

    The first five fields are the serializable core (plain arrays, floats
    and JSON-ready dicts); ``runtime`` and ``grid`` are live in-process
    handles that :meth:`detach` strips before an outcome is pickled to
    another process or written to the reference cache.
    """

    workload: str
    state: Dict[str, np.ndarray]
    time: float = 0.0
    info: Dict[str, float] = field(default_factory=dict)
    runtime_snapshot: Optional[dict] = None
    kind: str = "compressible"
    metadata: Dict[str, object] = field(default_factory=dict)
    runtime: Optional[RaptorRuntime] = field(default=None, repr=False)
    grid: Optional[object] = field(default=None, repr=False)

    # -- uniform views -------------------------------------------------------
    @property
    def checkpoint(self) -> Checkpoint:
        """The state as a :class:`~repro.io.checkpoint.Checkpoint` (the
        repo-wide comparison / persistence container)."""
        cached = self.__dict__.get("_checkpoint")
        if cached is None:
            cached = Checkpoint.from_arrays(self.state, time=self.time, metadata=self.metadata)
            self.__dict__["_checkpoint"] = cached
        return cached

    def snapshot(self) -> dict:
        """The op/mem counter snapshot, from the live runtime when present."""
        if self.runtime is not None:
            return self.runtime.snapshot()
        return self.runtime_snapshot or {}

    def detach(self) -> "Outcome":
        """A copy safe to pickle or cache: counters frozen into
        ``runtime_snapshot``, live runtime and grid handles dropped."""
        return replace(self, runtime=None, grid=None, runtime_snapshot=self.snapshot())

    # -- counters ------------------------------------------------------------
    @property
    def truncated_fraction(self) -> float:
        if self.runtime is not None:
            return self.runtime.ops.truncated_fraction
        ops = self.snapshot().get("ops", {})
        total = ops.get("truncated", 0) + ops.get("full", 0)
        return ops.get("truncated", 0) / total if total else 0.0

    def giga_flops(self) -> Tuple[float, float]:
        """(truncated, full) scalar-operation counts in units of 1e9."""
        if self.runtime is not None:
            return self.runtime.giga_flops()
        ops = self.snapshot().get("ops", {})
        return ops.get("truncated", 0) / 1e9, ops.get("full", 0) / 1e9

    # -- error norms ---------------------------------------------------------
    def l1_error(self, reference: "Outcome", variable: str = "dens") -> float:
        """sfocu L1 error of ``variable`` against a reference outcome."""
        from ..io.sfocu import compare

        report = compare(self.checkpoint, reference.checkpoint, [variable])
        return report.l1(variable)

    def errors(
        self, reference: "Outcome", variables: Sequence[str] = ("dens", "velx")
    ) -> Dict[str, float]:
        from ..io.sfocu import compare

        report = compare(self.checkpoint, reference.checkpoint, list(variables))
        return {name: report.l1(name) for name in variables}


class Scenario:
    """Base class (and documentation of the protocol) for sweepable
    scenarios.

    Subclasses must provide ``name``, ``config_class``, and
    :meth:`run`; :meth:`reference` and :meth:`acceptable` have protocol
    defaults.  Duck-typed implementations that do not inherit from this
    class are equally valid — :func:`is_scenario` checks the surface, not
    the ancestry.
    """

    name: str = ""
    config_class: Optional[type] = None
    #: scenario family tag, recorded in outcomes and cache entries
    kind: str = "generic"
    #: state variables sfocu norms may be requested for
    error_variables: Tuple[str, ...] = ()
    #: variables a sweep reports when the spec leaves ``variables=None``
    default_error_variables: Tuple[str, ...] = ()
    #: the physics modules a truncation policy must cover to affect this
    #: scenario — the default policy of the adaptive cliff search targets
    #: these, so a cellular search truncates the EOS, not "hydro"
    default_modules: Tuple[str, ...] = ()
    #: default failure threshold of the adaptive cliff search
    cliff_threshold: float = 1e-3

    def initial_state(self):
        """The binary64 prefix every run of this scenario starts from, or
        ``None`` when :meth:`run` builds its own state (then it is never
        passed a ``prefix``)."""
        return None

    def run(self, policy=None, runtime=None) -> Outcome:
        raise NotImplementedError

    def reference(self, plane: Optional[str] = None, **kwargs) -> Outcome:
        """Full-precision reference run.

        ``plane=None`` keeps the classic counting reference (op counting
        enabled, on the default plane: counted contexts replay their
        ledgers, counters byte-identical).  ``"instrumented"`` counts the
        same way but op by op — the baseline when the reference's own cost
        is measured.  ``"auto"`` runs non-counting, on the fused binary64
        context of :mod:`repro.kernels` — the final state is bit-identical
        but the counters are not recorded, so the detached/cached snapshot
        holds zeros.  The experiment engine requests ``"auto"`` by default
        (it compares references by state and never reads their counters);
        callers that study the reference's own op counts should pass
        ``None`` or ``"instrumented"``.
        """
        if plane is None:
            return self.run(policy=None, **kwargs)
        from ..core.selective import NoTruncationPolicy
        from ..kernels import validate_plane

        validate_plane(plane)
        runtime = kwargs.pop("runtime", None)
        rt = runtime if runtime is not None else RaptorRuntime(self.name or "reference")
        if plane == "instrumented":
            policy = NoTruncationPolicy(runtime=rt, plane="instrumented")
        else:
            policy = NoTruncationPolicy(
                runtime=rt, count_ops=False, track_memory=False, plane="auto"
            )
        return self.run(policy=policy, runtime=rt, **kwargs)

    def error(self, outcome: Outcome, reference: Outcome) -> float:
        """Scalar error metric of ``outcome`` against ``reference``."""
        raise NotImplementedError

    def acceptable(
        self, outcome: Outcome, reference: Outcome, threshold: Optional[float] = None
    ) -> bool:
        """The cliff-search failure predicate: by default, the scalar error
        stays within the threshold.  Scenarios with a physics invariant
        (e.g. cellular's detonation propagation) override this."""
        limit = self.cliff_threshold if threshold is None else threshold
        return self.error(outcome, reference) <= limit

    def evaluate(
        self, outcome: Outcome, reference: Outcome, threshold: Optional[float] = None
    ) -> Tuple[float, bool]:
        """``(error, acceptable)`` in one call.  When :meth:`acceptable` is
        the protocol default (a pure threshold on :meth:`error`), the error
        is computed once and reused — sfocu comparisons are the expensive
        part for grid-state scenarios.  Overridden predicates are honoured
        unchanged."""
        error = float(self.error(outcome, reference))
        if type(self).acceptable is Scenario.acceptable:
            limit = self.cliff_threshold if threshold is None else threshold
            return error, error <= limit
        return error, bool(self.acceptable(outcome, reference, threshold=threshold))


#: (attribute, why it is required) — the checkable protocol surface
_PROTOCOL_SURFACE = (
    ("run", "run(policy=..., runtime=...) -> Outcome"),
    ("reference", "reference() -> Outcome"),
    ("error", "error(outcome, reference) -> float"),
    ("acceptable", "acceptable(outcome, reference, threshold=...) -> bool"),
    ("error_variables", "tuple of state variables error norms apply to"),
    ("default_error_variables", "variables reported when a spec leaves variables=None"),
)


def scenario_protocol_errors(cls: type) -> Tuple[str, ...]:
    """Human-readable list of protocol violations of ``cls`` (empty when
    the class satisfies the scenario protocol)."""
    problems = []
    for attribute, description in _PROTOCOL_SURFACE:
        if not hasattr(cls, attribute):
            problems.append(f"missing {attribute!r} ({description})")
        elif attribute in ("run", "reference", "error", "acceptable") and not callable(
            getattr(cls, attribute)
        ):
            problems.append(f"{attribute!r} is not callable ({description})")
    return tuple(problems)


def is_scenario(cls: type) -> bool:
    """Whether ``cls`` satisfies the scenario protocol (duck-typed)."""
    return not scenario_protocol_errors(cls)
