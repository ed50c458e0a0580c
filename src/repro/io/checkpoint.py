"""Checkpoints: uniform-grid snapshots of a simulation state.

Flash-X writes HDF5 checkpoint/plot files; the comparison utility ``sfocu``
then compares two of them variable by variable.  This reproduction stores
the covering-grid data of selected variables (plus metadata) in ``.npz``
files, which is sufficient for every comparison the experiments need.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from ..amr.grid import AMRGrid

__all__ = ["Checkpoint"]


@dataclass
class Checkpoint:
    """A named collection of uniform-grid variables plus metadata."""

    data: Dict[str, np.ndarray]
    time: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_grid(
        cls,
        grid: AMRGrid,
        variables=None,
        time: float = 0.0,
        metadata: Optional[Dict[str, object]] = None,
        level: Optional[int] = None,
    ) -> "Checkpoint":
        """Sample an AMR grid's leaves onto the covering grid of ``level``
        (default: the finest level currently present).  Sampling at the
        grid's ``max_level`` gives shape-compatible checkpoints across runs
        whose AMR hierarchies ended up refined differently."""
        names = list(variables) if variables is not None else list(grid.variables)
        data = {name: grid.uniform_data(name, level=level) for name in names}
        meta = dict(metadata or {})
        meta.setdefault("finest_level", grid.finest_level)
        meta.setdefault("n_leaves", grid.n_leaves)
        meta.setdefault("leaf_levels", grid.leaf_levels())
        return cls(data=data, time=time, metadata=meta)

    @classmethod
    def from_arrays(
        cls,
        arrays: Dict[str, np.ndarray],
        time: float = 0.0,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "Checkpoint":
        return cls(data={k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()},
                   time=time, metadata=dict(metadata or {}))

    # ------------------------------------------------------------------
    def variables(self):
        return sorted(self.data.keys())

    def __contains__(self, name: str) -> bool:
        return name in self.data

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]

    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Write the checkpoint to an ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {f"var_{k}": v for k, v in self.data.items()}
        payload["_time"] = np.asarray(self.time)
        payload["_metadata"] = np.frombuffer(
            json.dumps(self.metadata, default=str).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(path, **payload)
        return path

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint written by :meth:`save`.

        The file is opened here and handed to ``np.load``: given a path,
        numpy leaks its own handle when a corrupt archive fails inside
        ``NpzFile`` (``BadZipFile``).
        """
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            data = {
                key[len("var_"):]: np.asarray(npz[key], dtype=np.float64)
                for key in npz.files
                if key.startswith("var_")
            }
            time = float(npz["_time"]) if "_time" in npz.files else 0.0
            metadata = {}
            if "_metadata" in npz.files:
                metadata = json.loads(bytes(npz["_metadata"].tobytes()).decode("utf-8"))
        return cls(data=data, time=time, metadata=metadata)
