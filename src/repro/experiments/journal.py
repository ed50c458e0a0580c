"""Crash-safe checkpointing: the journal behind ``run_sweep(checkpoint=...)``
and ``run_adaptive_sweep(checkpoint=...)``.

A journal is a directory:

* ``journal.json`` — metadata: format version, the checkpoint signature of
  the owning spec (:func:`repro.experiments.engine.checkpoint_signature`),
  and the total unit count, written once when the journal is created.
* ``point-<index>.pkl`` — one pickle per resolved unit (a sweep point or a
  cliff-search cell), holding its ``PointResult`` or ``CliffResult`` (or
  ``PointFailure`` in collect mode), keyed by global grid index.
* ``reference-<workload>.pkl`` — one pickle per computed reference outcome.

Every file is written with the reference cache's discipline — tempfile in
the same directory, then atomic :meth:`Path.replace` — so a SIGKILL at any
instant leaves either no entry or a complete one, never a torn pickle.
That, plus the executor's ``on_result`` callback firing as each unit
resolves, is what makes resume exact: rerunning the same spec against the
journal loads the recorded entries, runs only the missing units, and the
assembled result is bitwise identical to an uninterrupted run.

A journal created by a *different* spec (grid, plane, configs, shard slice,
``keep_states``, or the other experiment kind) is rejected with
:class:`CheckpointMismatchError` — mixing units from two different runs
must never produce a plausible-looking result.  Corrupt entries (torn by a crash predating this module, disk
errors) are deleted with a warning and simply recomputed.
"""
from __future__ import annotations

import json
import os
import pickle
import re
import tempfile
import warnings
from pathlib import Path
from typing import Dict

__all__ = [
    "CheckpointMismatchError",
    "SweepJournal",
    "atomic_pickle",
    "atomic_write_bytes",
]

_META_NAME = "journal.json"
_FORMAT_VERSION = 1
_POINT_RE = re.compile(r"^point-(\d+)\.pkl$")
_REFERENCE_PREFIX = "reference-"


class CheckpointMismatchError(ValueError):
    """The journal on disk belongs to a different sweep spec."""


def atomic_write_bytes(path, data: bytes) -> Path:
    """Write ``data`` to ``path`` via tempfile + rename (crash-atomic)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_pickle(obj, path) -> Path:
    """Pickle ``obj`` to ``path`` atomically (used by the journal and by
    ``SweepResult.save`` / ``AdaptiveResult.save``)."""
    return atomic_write_bytes(path, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _load_entry(path: Path, what: str):
    """Unpickle one journal entry; a corrupt (torn, truncated) entry is
    deleted with a warning and reported as absent, so the resuming sweep
    recomputes it instead of crashing."""
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except Exception as exc:
        warnings.warn(
            f"deleting corrupt checkpoint {what} {path.name} "
            f"({type(exc).__name__}: {exc}); it will be recomputed",
            RuntimeWarning,
            stacklevel=3,
        )
        path.unlink(missing_ok=True)
        return None


class SweepJournal:
    """Directory-backed journal of one (possibly interrupted) sweep or cliff search."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory).expanduser()

    # ------------------------------------------------------------------
    def open(self, signature: str, total_points: int) -> None:
        """Bind the journal to a sweep: create the metadata file, or verify
        an existing journal was written by the same spec."""
        meta_path = self.directory / _META_NAME
        if meta_path.is_file():
            meta = _load_meta(meta_path)
            if meta.get("signature") != signature:
                raise CheckpointMismatchError(
                    f"checkpoint at {self.directory} was written by a different "
                    "sweep spec (grid, plane, configs, keep_states or shard "
                    "slice disagree); point a fresh directory at this sweep or "
                    "delete the stale journal"
                )
            return
        atomic_write_bytes(
            meta_path,
            json.dumps(
                {
                    "version": _FORMAT_VERSION,
                    "signature": signature,
                    "total_points": total_points,
                },
                indent=2,
            ).encode(),
        )

    # ------------------------------------------------------------------
    def record_point(self, index: int, obj) -> None:
        atomic_pickle(obj, self.directory / f"point-{index:06d}.pkl")

    def record_reference(self, workload: str, outcome) -> None:
        sanitized = re.sub(r"[^A-Za-z0-9_.-]", "_", workload)
        atomic_pickle(outcome, self.directory / f"{_REFERENCE_PREFIX}{sanitized}.pkl")

    # ------------------------------------------------------------------
    def load_points(self) -> Dict[int, object]:
        """Journaled point entries by global grid index."""
        out: Dict[int, object] = {}
        for path in sorted(self.directory.glob("point-*.pkl")):
            match = _POINT_RE.match(path.name)
            if match is None:
                continue
            obj = _load_entry(path, "point")
            if obj is not None:
                out[int(match.group(1))] = obj
        return out

    def load_references(self) -> Dict[str, object]:
        """Journaled reference outcomes by workload name (the name the
        recording spec used, carried inside the outcome)."""
        out: Dict[str, object] = {}
        for path in sorted(self.directory.glob(f"{_REFERENCE_PREFIX}*.pkl")):
            if path.suffix != ".pkl":
                continue
            obj = _load_entry(path, "reference")
            workload = getattr(obj, "workload", None)
            if obj is not None and workload:
                out[workload] = obj
        return out

    def completed_indices(self) -> list:
        """Indices with a journaled entry (no unpickling; cheap polling)."""
        return sorted(
            int(m.group(1))
            for m in (_POINT_RE.match(p.name) for p in self.directory.glob("point-*.pkl"))
            if m is not None
        )


def _load_meta(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointMismatchError(
            f"checkpoint metadata {path} is unreadable ({type(exc).__name__}: {exc}); "
            "delete the journal directory to start over"
        ) from exc
