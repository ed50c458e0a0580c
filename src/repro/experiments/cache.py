"""Content-addressed cache for full-precision reference runs.

The single most expensive redundant step of a precision sweep is the
full-precision reference trajectory: every ``run_sweep`` of the same
(workload, config) pair recomputes an identical FP64 run before any
truncated point executes.  This module caches those references so a warm
sweep launches **zero** reference tasks.

Keying
------
A cached entry is addressed by a :class:`ReferenceKey` derived purely from
the sweep inputs — never from anything produced by the run itself:

* ``workload`` — the *canonical* registry name, so ``"kh"`` and
  ``"kelvin-helmholtz"`` share one entry;
* ``config_hash`` — SHA-256 over the fully resolved config dataclass
  (defaults included), so two kwarg spellings of the same effective
  configuration also share one entry;
* ``grid_shape`` — the finest covering-grid cells (every workload config
  exposes ``finest_cells``: 2-D for compressible AMR, 1-D for the cellular
  detonation, (nx, ny) for the bubble solver), kept explicit in the key
  (and the filename) so operators can see at a glance which resolution an
  entry holds;
* ``n_steps`` — the config's explicit step count when it has one (the
  cellular detonation), else the fixed step count when the config pins
  ``fixed_dt`` against a time horizon (``t_end`` for the compressible
  workloads, ``truncation_time`` for bubble), ``0`` for adaptive time
  stepping (where the step count is an output, and already determined by
  the hashed config).

Invalidation
------------
Every entry stores the :func:`solver_fingerprint` current at write time — a
SHA-256 over the source of all physics packages (``core``, ``amr``,
``hydro``, ``eos``, ``burn``, ``incomp``, ``kernels``, ``workloads``,
``io``) plus ``repro.__version__``.  A lookup whose stored fingerprint does not match
the running code **deletes the entry and reports a miss**: stale physics
can never be served, and no manual cache-busting is required after editing
a solver file.

Layout
------
:class:`ReferenceCache` is a two-level store: an in-memory LRU
(:class:`MemoryLRU`, default 8 entries) in front of an on-disk ``.npz``
backend (:class:`NpzReferenceStore`).  Either level can be disabled.  The
disk format reuses the checkpoint convention (`var_*` arrays + JSON
metadata) and round-trips the reference state bit-exactly, which is what
keeps warm-cache sweep metrics bitwise identical to cold ones.

See ``docs/architecture.md`` for where the cache sits in a sweep's data
flow, and ``docs/experiments.md`` for usage from ``run_sweep``.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "CacheStats",
    "MemoryLRU",
    "NpzReferenceStore",
    "ReferenceCache",
    "ReferenceKey",
    "reference_key",
    "solver_fingerprint",
]

#: subpackages of ``repro`` excluded from the physics fingerprint on
#: purpose: they orchestrate runs but cannot change the numbers a
#: reference run produces.  Everything else — including any subpackage
#: added after this module was written — participates: the list of
#: physics packages is enumerated from the installed tree at call time,
#: so a new kernels/solver package can never be silently left out of
#: cache invalidation.  ``kernels`` is included: the fused kernels are
#: contractually bit-identical, but a bug there must invalidate caches.
_NON_PHYSICS_PACKAGES = frozenset({"experiments", "parallel", "codesign", "testing"})

_fingerprint_cache: Optional[str] = None


def _physics_packages(root: Path) -> List[str]:
    """The ``repro`` subpackages whose source participates in the physics
    fingerprint: every importable subpackage not on the orchestration
    exclude-list, discovered dynamically."""
    return sorted(
        entry.name
        for entry in root.iterdir()
        if entry.is_dir()
        and (entry / "__init__.py").is_file()
        and entry.name not in _NON_PHYSICS_PACKAGES
    )


def solver_fingerprint(refresh: bool = False) -> str:
    """SHA-256 fingerprint of the physics code currently importable.

    Hashes ``repro.__version__`` plus the source bytes of every ``.py`` file
    in the physics subpackages (sorted path order, path names included so
    file renames also invalidate).  The result is memoised per process;
    pass ``refresh=True`` to force a re-read (test helper).
    """
    global _fingerprint_cache
    if _fingerprint_cache is not None and not refresh:
        return _fingerprint_cache
    import repro

    digest = hashlib.sha256()
    digest.update(repro.__version__.encode("utf-8"))
    root = Path(repro.__file__).parent
    for package in _physics_packages(root):
        for path in sorted((root / package).glob("**/*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
    _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReferenceKey:
    """Content address of one reference trajectory."""

    workload: str
    config_hash: str
    grid_shape: Tuple[int, ...]
    n_steps: int

    def filename(self) -> str:
        """Stable, human-scannable entry filename."""
        shape = "x".join(str(n) for n in self.grid_shape) or "noshape"
        return f"{self.workload}-{shape}-s{self.n_steps}-{self.config_hash[:16]}.npz"

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "config_hash": self.config_hash,
            "grid_shape": list(self.grid_shape),
            "n_steps": self.n_steps,
        }


def _config_digest(config: object) -> str:
    """Deterministic SHA-256 of a (possibly nested) config object."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    else:
        payload = config
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_key(
    workload: str,
    config_kwargs: Optional[Mapping[str, object]] = None,
    *,
    config: Optional[object] = None,
) -> ReferenceKey:
    """Build the cache key of a workload's reference run.

    The key is computed from the *resolved* config — either the workload's
    ``config_class`` instantiated with ``config_kwargs`` (so passing
    default values explicitly yields the same key as omitting them), or a
    ready-made ``config`` object (the spelling used when the caller holds
    a workload instance rather than a name + kwargs).
    """
    from ..workloads.registry import canonical_name, get_workload_class

    canonical = canonical_name(workload)
    if config is None:
        cls = get_workload_class(canonical)
        config_class = getattr(cls, "config_class", None)
        if config_class is not None:
            config = config_class(**dict(config_kwargs or {}))
        else:
            config = dict(config_kwargs or {})
    elif config_kwargs:
        raise ValueError("pass either config_kwargs or a config object, not both")

    shape = getattr(config, "finest_cells", ())
    grid_shape = tuple(int(n) for n in shape) if shape else ()

    # explicit step counts (cellular) win; otherwise a pinned dt against a
    # time horizon (t_end for compressible, truncation_time for bubble)
    n_steps = int(getattr(config, "n_steps", 0) or 0)
    if not n_steps:
        fixed_dt = getattr(config, "fixed_dt", None)
        horizon = getattr(config, "t_end", None) or getattr(config, "truncation_time", None)
        if fixed_dt and horizon:
            n_steps = int(round(float(horizon) / float(fixed_dt)))

    return ReferenceKey(
        workload=canonical,
        config_hash=_config_digest(config),
        grid_shape=grid_shape,
        n_steps=n_steps,
    )


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
@dataclass
class CacheStats:
    """Counters of one cache's lifetime (both levels combined)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    evictions: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), {self.stores} store(s), "
            f"{self.invalidations} invalidation(s)"
        )


# ---------------------------------------------------------------------------
# in-memory LRU level
# ---------------------------------------------------------------------------
class MemoryLRU:
    """Bounded in-memory map of :class:`ReferenceKey` → reference result.

    Eviction is least-recently-*used*: a ``get`` refreshes an entry's
    position.  ``max_entries=0`` disables the level (every ``put`` is a
    no-op), which the sweep engine uses when references are too large to
    keep resident.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.max_entries = max_entries
        self._entries: "OrderedDict[ReferenceKey, object]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ReferenceKey) -> bool:
        return key in self._entries

    def get(self, key: ReferenceKey):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: ReferenceKey, value) -> None:
        if self.max_entries == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: ReferenceKey) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()


# ---------------------------------------------------------------------------
# on-disk .npz level
# ---------------------------------------------------------------------------
class NpzReferenceStore:
    """Directory of ``.npz`` reference entries, one file per key.

    Each file stores the reference state arrays bit-exactly (``var_*``
    float64 entries), the final time, and a JSON metadata blob carrying the
    key, the run info, the runtime snapshot and the solver fingerprint of
    the writer.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory).expanduser()

    # -- paths ---------------------------------------------------------
    def path_for(self, key: ReferenceKey) -> Path:
        return self.directory / key.filename()

    def entries(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        # exclude in-flight writer tmp files (named *.tmp.npz, see write())
        return sorted(
            path for path in self.directory.glob("*.npz")
            if not path.name.endswith(".tmp.npz")
        )

    # -- io ------------------------------------------------------------
    @staticmethod
    def _read_errors() -> tuple:
        """Exception classes that mean "entry unreadable", not "bug"."""
        import zipfile

        return (OSError, ValueError, KeyError, json.JSONDecodeError, zipfile.BadZipFile)

    def write(self, key: ReferenceKey, reference, fingerprint: str) -> Path:
        from ..io.checkpoint import Checkpoint

        path = self.path_for(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        # an entry *is* a checkpoint — the repo-wide .npz convention of
        # repro.io.checkpoint; the cache-specific fields travel as metadata
        checkpoint = Checkpoint.from_arrays(
            reference.state,
            time=reference.time,
            metadata={
                "key": key.to_dict(),
                "fingerprint": fingerprint,
                "workload": reference.workload,
                "kind": getattr(reference, "kind", "compressible"),
                "info": reference.info,
                # snapshot() freezes live counters; detached outcomes hand
                # back their stored runtime_snapshot unchanged
                "runtime_snapshot": reference.snapshot(),
            },
        )
        # write-then-rename with a per-writer tmp name, so a crashed writer
        # never leaves a half-entry and concurrent writers (shards sharing a
        # cache dir that miss the same key) cannot interleave or race the
        # rename — last atomic replace wins with a complete file either way
        # (.npz suffix because numpy appends it to bare save paths)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp.npz", dir=self.directory
        )
        os.close(fd)
        try:
            checkpoint.save(tmp_name)
            Path(tmp_name).replace(path)
        except BaseException:
            Path(tmp_name).unlink(missing_ok=True)
            raise
        return path

    def read(self, key: ReferenceKey):
        """Load an entry, or return ``None`` when absent/corrupt.

        A corrupt/truncated entry (a hard kill predating the atomic-write
        discipline, disk error) is a *miss*, not a crash: the file is
        deleted with a :class:`RuntimeWarning` so the recompute can store a
        clean replacement instead of tripping over the same bytes forever.

        Returns ``(reference, fingerprint)``; fingerprint checking is the
        caller's job (the cache front-end), so corrupt and stale entries
        can be counted separately.
        """
        from ..io.checkpoint import Checkpoint
        from ..workloads.scenario import Outcome

        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            checkpoint = Checkpoint.load(path)
        except self._read_errors() as exc:
            warnings.warn(
                f"deleting corrupt reference-cache entry {path.name} "
                f"({type(exc).__name__}: {exc}); the reference will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
            path.unlink(missing_ok=True)
            return None
        meta = checkpoint.metadata
        reference = Outcome(
            workload=meta.get("workload", key.workload),
            info=meta.get("info", {}),
            runtime_snapshot=meta.get("runtime_snapshot", {}),
            state=checkpoint.data,
            time=checkpoint.time,
            kind=meta.get("kind", "compressible"),
        )
        return reference, meta.get("fingerprint", "")

    def read_fingerprint(self, key: ReferenceKey) -> Optional[str]:
        """The stored solver fingerprint of an entry — without materialising
        its state arrays (npz members load lazily) — or ``None`` when the
        entry is absent or unreadable.  Keeps membership tests cheap for
        multi-megabyte references."""
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
                if "_metadata" not in npz.files:
                    return None
                meta = json.loads(bytes(npz["_metadata"].tobytes()).decode("utf-8"))
        except self._read_errors():
            return None
        return meta.get("fingerprint", "")

    def delete(self, key: ReferenceKey) -> None:
        path = self.path_for(key)
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    def clear(self) -> int:
        n = 0
        for path in self.entries():
            path.unlink()
            n += 1
        return n


# ---------------------------------------------------------------------------
# the two-level cache
# ---------------------------------------------------------------------------
class ReferenceCache:
    """Two-level (memory LRU over ``.npz`` directory) reference cache.

    >>> cache = ReferenceCache("~/.cache/raptor-refs")
    >>> result = run_sweep(spec, cache=cache)          # cold: misses + stores
    >>> result = run_sweep(spec, cache=cache)          # warm: zero ref tasks
    >>> cache.stats.describe()
    '1 hit(s), 1 miss(es), 1 store(s), 0 invalidation(s)'

    ``directory=None`` gives a memory-only cache (useful in tests and for
    repeated sweeps inside one process); ``max_memory_entries=0`` gives a
    disk-only cache.
    """

    def __init__(
        self,
        directory=None,
        max_memory_entries: int = 8,
        fingerprint: Optional[str] = None,
    ) -> None:
        if directory is None and max_memory_entries == 0:
            raise ValueError("cache needs at least one level: a directory or memory entries")
        self.memory = MemoryLRU(max_memory_entries)
        self.disk = NpzReferenceStore(directory) if directory is not None else None
        self.fingerprint = fingerprint if fingerprint is not None else solver_fingerprint()
        self._stats = CacheStats()

    @property
    def stats(self) -> CacheStats:
        """Lifetime counters, with LRU evictions folded in from the memory
        level (a copy — mutate nothing through it)."""
        return dataclasses.replace(self._stats, evictions=self.memory.evictions)

    # ------------------------------------------------------------------
    def get(self, key: ReferenceKey):
        """The cached reference for ``key``, or ``None`` on miss.

        A disk entry written under a different solver fingerprint is
        deleted (counted as an invalidation) and reported as a miss.
        """
        entry = self.memory.get(key)
        if entry is not None:
            self._stats.hits += 1
            return entry
        if self.disk is not None:
            loaded = self.disk.read(key)
            if loaded is not None:
                reference, fingerprint = loaded
                if fingerprint != self.fingerprint:
                    self.disk.delete(key)
                    self.memory.discard(key)
                    self._stats.invalidations += 1
                else:
                    self.memory.put(key, reference)
                    self._stats.hits += 1
                    return reference
        self._stats.misses += 1
        return None

    def put(self, key: ReferenceKey, reference) -> None:
        """Store a freshly computed reference under ``key`` in both levels."""
        self.memory.put(key, reference)
        if self.disk is not None:
            self.disk.write(key, reference, self.fingerprint)
        self._stats.stores += 1

    def __contains__(self, key: ReferenceKey) -> bool:
        """Whether :meth:`get` would hit — membership is fingerprint-aware,
        so a stale disk entry is not 'in' the cache."""
        if key in self.memory:
            return True
        if self.disk is None:
            return False
        return self.disk.read_fingerprint(key) == self.fingerprint

    # ------------------------------------------------------------------
    def invalidate(self, key: ReferenceKey) -> None:
        """Explicitly drop one entry from both levels."""
        self.memory.discard(key)
        if self.disk is not None:
            self.disk.delete(key)
        self._stats.invalidations += 1

    def clear(self) -> None:
        """Drop every entry from both levels."""
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()

    def describe(self) -> str:
        where = str(self.disk.directory) if self.disk is not None else "memory-only"
        return f"ReferenceCache({where}, lru={self.memory.max_entries})"
