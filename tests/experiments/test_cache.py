"""Tests for the reference-run cache: keys, levels, hit/miss/invalidation
semantics, and the warm-cache guarantee of ``run_sweep``."""
import numpy as np
import pytest

from repro.experiments import (
    PolicySpec,
    ReferenceCache,
    ReferenceKey,
    SweepSpec,
    reference_key,
    run_sweep,
    solver_fingerprint,
)
from repro.experiments.cache import MemoryLRU, NpzReferenceStore
from repro.experiments.engine import ReferenceResult

FAST = dict(nxb=8, nyb=8, n_root_x=2, n_root_y=2, max_level=2, t_end=0.005, rk_stages=1)


def _spec(**overrides) -> SweepSpec:
    base = dict(
        workloads=["kelvin-helmholtz"],
        formats=["fp64", "bf16"],
        policies=[PolicySpec.everywhere(modules=("hydro",))],
        workload_configs={"kelvin-helmholtz": FAST},
        variables=("dens",),
    )
    base.update(overrides)
    return SweepSpec(**base)


def _reference(value: float = 1.0) -> ReferenceResult:
    return ReferenceResult(
        workload="kelvin-helmholtz",
        info={"steps": 3.0, "time": 0.005},
        runtime_snapshot={"ops": {"truncated": 0, "full": 7}},
        state={"dens": np.full((4, 4), value), "pres": np.arange(16.0).reshape(4, 4)},
        time=0.005,
    )


# ---------------------------------------------------------------------------
# keys and fingerprints
# ---------------------------------------------------------------------------
class TestKeys:
    def test_alias_and_canonical_share_a_key(self):
        assert reference_key("kh", FAST) == reference_key("kelvin-helmholtz", FAST)

    def test_explicit_defaults_share_a_key(self):
        from repro.workloads import KelvinHelmholtzConfig

        defaults = KelvinHelmholtzConfig(**FAST)
        spelled_out = dict(FAST, gamma=defaults.gamma, cfl=defaults.cfl)
        assert reference_key("kh", FAST) == reference_key("kh", spelled_out)

    def test_different_configs_differ(self):
        assert reference_key("kh", FAST) != reference_key("kh", dict(FAST, t_end=0.01))
        assert reference_key("kh", FAST) != reference_key("sedov", FAST)

    def test_grid_shape_and_steps_in_key(self):
        key = reference_key("kh", FAST)
        assert key.grid_shape == (32, 32)  # 2 roots * 8 cells * 2**(2-1)
        assert key.n_steps == 0  # adaptive dt
        fixed = reference_key("kh", dict(FAST, fixed_dt=0.001))
        assert fixed.n_steps == 5
        assert key.filename().startswith("kelvin-helmholtz-32x32-s0-")

    def test_solver_fingerprint_is_stable_and_hex(self):
        fp = solver_fingerprint()
        assert fp == solver_fingerprint()
        assert len(fp) == 64 and int(fp, 16) >= 0

    def test_cellular_key_carries_cells_and_steps(self):
        key = reference_key("cellular", dict(n_cells=32, n_steps=8))
        assert key.grid_shape == (32,)
        assert key.n_steps == 8
        assert key.filename().startswith("cellular-32-s8-")
        assert key != reference_key("cellular", dict(n_cells=32, n_steps=9))

    def test_bubble_key_carries_grid_and_fixed_steps(self):
        from repro.incomp import BubbleConfig

        kwargs = dict(
            solver=BubbleConfig(nx=16, ny=24),
            spin_up_time=0.04, truncation_time=0.06, fixed_dt=0.004,
        )
        key = reference_key("bubble", kwargs)
        assert key.grid_shape == (16, 24)
        assert key.n_steps == 15  # truncation_time / fixed_dt
        assert key != reference_key("bubble", dict(kwargs, truncation_time=0.08))

    def test_nested_dataclass_configs_hash_deterministically(self):
        # CellularConfig nests NewtonSolverConfig and CarbonBurnNetwork;
        # the digest must not depend on object identity
        a = reference_key("cellular", dict(n_cells=32))
        b = reference_key("cellular", dict(n_cells=32))
        assert a == b

    def test_physics_packages_enumerated_dynamically(self, tmp_path):
        from repro.experiments.cache import _physics_packages

        for name in ("hydro", "kernels", "experiments", "parallel", "codesign", "newpkg"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "__init__.py").write_text("")
        (tmp_path / "not_a_package").mkdir()  # no __init__.py: skipped
        (tmp_path / "loose.py").write_text("")  # plain file: skipped
        # orchestration packages are excluded; everything else — including
        # a package that did not exist when cache.py was written — is in
        assert _physics_packages(tmp_path) == ["hydro", "kernels", "newpkg"]

    def test_fingerprint_covers_every_physics_package(self, tmp_path):
        import repro
        from pathlib import Path
        from repro.experiments.cache import _NON_PHYSICS_PACKAGES, _physics_packages

        root = Path(repro.__file__).parent
        packages = _physics_packages(root)
        # the real tree: kernels (fast planes) must participate, the
        # orchestration-only packages must not
        assert "kernels" in packages and "hydro" in packages and "core" in packages
        assert not set(packages) & _NON_PHYSICS_PACKAGES

    def test_fingerprint_changes_when_physics_source_changes(self):
        import repro
        from pathlib import Path

        root = Path(repro.__file__).parent
        extra = root / "kernels" / "_fingerprint_probe_delete_me.py"
        before = solver_fingerprint(refresh=True)
        try:
            extra.write_text("# temporary fingerprint probe\n")
            after = solver_fingerprint(refresh=True)
        finally:
            extra.unlink()
            solver_fingerprint(refresh=True)  # restore the memoised value
        assert before != after


# ---------------------------------------------------------------------------
# the two levels
# ---------------------------------------------------------------------------
class TestMemoryLRU:
    def test_lru_evicts_least_recently_used(self):
        lru = MemoryLRU(max_entries=2)
        k = [ReferenceKey("w", f"h{i}", (4, 4), 0) for i in range(3)]
        lru.put(k[0], "a")
        lru.put(k[1], "b")
        assert lru.get(k[0]) == "a"  # refresh k0
        lru.put(k[2], "c")  # evicts k1, the least recently used
        assert k[1] not in lru and k[0] in lru and k[2] in lru
        assert lru.evictions == 1

    def test_zero_entries_disables_the_level(self):
        lru = MemoryLRU(max_entries=0)
        key = ReferenceKey("w", "h", (4, 4), 0)
        lru.put(key, "x")
        assert lru.get(key) is None and len(lru) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryLRU(max_entries=-1)


class TestNpzStore:
    def test_round_trip_is_bit_exact(self, tmp_path):
        store = NpzReferenceStore(tmp_path)
        key = reference_key("kh", FAST)
        ref = _reference(value=np.pi)
        store.write(key, ref, "finger")
        loaded, fingerprint = store.read(key)
        assert fingerprint == "finger"
        assert loaded.time == ref.time
        assert loaded.info == ref.info
        assert loaded.runtime_snapshot == ref.runtime_snapshot
        for name in ref.state:
            assert loaded.state[name].dtype == np.float64
            np.testing.assert_array_equal(loaded.state[name], ref.state[name])

    def test_missing_and_corrupt_entries_read_as_none(self, tmp_path):
        store = NpzReferenceStore(tmp_path)
        key = reference_key("kh", FAST)
        assert store.read(key) is None
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_bytes(b"not an npz")
        with pytest.warns(RuntimeWarning, match="deleting corrupt reference-cache entry"):
            assert store.read(key) is None
        # a zip magic number followed by garbage raises BadZipFile, not
        # ValueError — it must also read as a miss, not crash the sweep
        store.path_for(key).write_bytes(b"PK\x03\x04garbage")
        with pytest.warns(RuntimeWarning, match="deleting corrupt reference-cache entry"):
            assert store.read(key) is None
        cache = ReferenceCache(tmp_path)
        assert cache.get(key) is None and cache.stats.misses == 1

    def test_corrupt_entry_is_deleted_with_a_warning_and_recomputed(self, tmp_path):
        """A torn/garbage ``.npz`` must not wedge the cache: reading it warns,
        deletes the file, and the next write-read cycle works normally."""
        store = NpzReferenceStore(tmp_path)
        key = reference_key("kh", FAST)
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"PK\x03\x04torn-by-a-crash")
        with pytest.warns(RuntimeWarning, match="corrupt reference-cache entry"):
            assert store.read(key) is None
        assert not path.exists(), "the corrupt entry must be deleted, not retried forever"
        store.write(key, _reference(), "fp")
        entry = store.read(key)
        assert entry is not None and entry[1] == "fp"

    @pytest.mark.parametrize("garbage", [b"not an npz", b"PK\x03\x04torn-by-a-crash"])
    def test_corrupt_entry_leaks_no_file_handle(self, tmp_path, garbage):
        """numpy leaks the handle it opens for a path when ``NpzFile``
        fails (``BadZipFile``); reads must open and close the file
        themselves."""
        import gc
        import warnings

        store = NpzReferenceStore(tmp_path)
        key = reference_key("kh", FAST)
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            path.write_bytes(garbage)
            assert store.read_fingerprint(key) is None
            assert store.read(key) is None
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = NpzReferenceStore(tmp_path)
        store.write(reference_key("kh", FAST), _reference(), "fp")
        assert not list(tmp_path.glob("*.tmp*"))
        assert len(store.entries()) == 1

    def test_read_fingerprint_without_loading_state(self, tmp_path):
        store = NpzReferenceStore(tmp_path)
        key = reference_key("kh", FAST)
        assert store.read_fingerprint(key) is None
        store.write(key, _reference(), "fp-abc")
        assert store.read_fingerprint(key) == "fp-abc"

    def test_cellular_reference_round_trips_bit_exact(self, tmp_path):
        store = NpzReferenceStore(tmp_path)
        key = reference_key("cellular", dict(n_cells=8, n_steps=3))
        ref = ReferenceResult(
            workload="cellular",
            info={"eos_converged": 1.0, "detonation_propagated": 1.0},
            runtime_snapshot={"ops": {"truncated": 5, "full": 2}},
            state={
                "dens": np.full(8, 1.0e7),
                "temp": np.geomspace(2e8, 3.5e9, 8),
                "front_positions": np.array([20.0, 24.0, 28.0]),
                "times": np.array([0.1, 0.2, 0.3]) * 1e-7,
            },
            time=3e-8,
            kind="cellular",
        )
        store.write(key, ref, "finger")
        loaded, _ = store.read(key)
        assert loaded.kind == "cellular"
        assert loaded.info == ref.info
        for name in ref.state:
            np.testing.assert_array_equal(loaded.state[name], ref.state[name])

    def test_bubble_levelset_reference_round_trips_bit_exact(self, tmp_path):
        from repro.incomp import BubbleConfig

        rng = np.random.default_rng(7)
        phi = rng.normal(size=(16, 24))
        ref = ReferenceResult(
            workload="bubble",
            info={"gas_volume": 0.42, "fragments": 2.0},
            runtime_snapshot={},
            state={
                "phi": phi,
                "phi_snap0": phi * 0.5,
                "centroid": rng.normal(size=15),
                "snapshot_times": np.array([0.03, 0.06]),
            },
            time=0.1,
            kind="bubble",
        )
        store = NpzReferenceStore(tmp_path)
        key = reference_key(
            "bubble",
            dict(solver=BubbleConfig(nx=16, ny=24), truncation_time=0.06, fixed_dt=0.004),
        )
        store.write(key, ref, "finger")
        loaded, _ = store.read(key)
        assert loaded.kind == "bubble"
        for name in ref.state:
            assert loaded.state[name].dtype == np.float64
            np.testing.assert_array_equal(loaded.state[name], ref.state[name])


# ---------------------------------------------------------------------------
# the combined cache
# ---------------------------------------------------------------------------
class TestReferenceCache:
    def test_miss_put_hit(self, tmp_path):
        cache = ReferenceCache(tmp_path)
        key = reference_key("kh", FAST)
        assert cache.get(key) is None
        cache.put(key, _reference())
        assert key in cache
        assert cache.get(key) is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1 and cache.stats.stores == 1

    def test_disk_persists_across_cache_objects(self, tmp_path):
        key = reference_key("kh", FAST)
        ReferenceCache(tmp_path).put(key, _reference())
        fresh = ReferenceCache(tmp_path)
        assert fresh.get(key) is not None
        assert fresh.stats.hits == 1 and fresh.stats.misses == 0

    def test_fingerprint_mismatch_invalidates_and_deletes(self, tmp_path):
        key = reference_key("kh", FAST)
        stale = ReferenceCache(tmp_path, fingerprint="old-physics")
        stale.put(key, _reference())
        current = ReferenceCache(tmp_path)
        # membership agrees with get(): a stale entry is not 'in' the cache
        assert key not in current
        assert current.get(key) is None
        assert current.stats.invalidations == 1 and current.stats.misses == 1
        # the stale entry is gone from disk, not just skipped
        assert current.disk.read(key) is None

    def test_explicit_invalidate_and_clear(self, tmp_path):
        cache = ReferenceCache(tmp_path)
        key = reference_key("kh", FAST)
        cache.put(key, _reference())
        cache.invalidate(key)
        assert key not in cache
        cache.put(key, _reference())
        cache.clear()
        assert key not in cache and not cache.disk.entries()

    def test_memory_only_cache(self):
        cache = ReferenceCache(directory=None, max_memory_entries=2)
        key = reference_key("kh", FAST)
        cache.put(key, _reference())
        assert cache.get(key) is not None

    def test_lru_evictions_reported_in_stats(self):
        cache = ReferenceCache(directory=None, max_memory_entries=2)
        for t_end in (0.004, 0.005, 0.006):
            cache.put(reference_key("kh", dict(FAST, t_end=t_end)), _reference())
        assert cache.stats.evictions == 1
        assert cache.stats.to_dict()["evictions"] == 1

    def test_tilde_directory_expands_to_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = ReferenceCache("~/refs")
        cache.put(reference_key("kh", FAST), _reference())
        assert (tmp_path / "refs").is_dir()
        assert len(list((tmp_path / "refs").glob("*.npz"))) == 1

    def test_no_levels_rejected(self):
        with pytest.raises(ValueError, match="at least one level"):
            ReferenceCache(directory=None, max_memory_entries=0)


# ---------------------------------------------------------------------------
# engine integration: the warm-cache guarantee
# ---------------------------------------------------------------------------
class TestCachedSweep:
    @pytest.fixture(scope="class")
    def warm_cache_and_cold_result(self, tmp_path_factory):
        cache = ReferenceCache(tmp_path_factory.mktemp("refs"))
        return cache, run_sweep(_spec(), cache=cache)

    def test_cold_run_stores_the_reference(self, warm_cache_and_cold_result):
        cache, result = warm_cache_and_cold_result
        assert result.cache_stats["misses"] == 1
        assert result.cache_stats["stores"] == 1
        assert len(cache.disk.entries()) == 1

    def test_warm_run_launches_zero_reference_tasks(
        self, warm_cache_and_cold_result, monkeypatch
    ):
        from repro.experiments import engine

        cache, cold = warm_cache_and_cold_result

        def _boom(task):
            raise AssertionError("reference task launched despite a warm cache")

        monkeypatch.setattr(engine, "_execute_reference", _boom)
        warm = run_sweep(_spec(), cache=cache)
        # stats are per-run deltas even on a shared cache object
        assert warm.cache_stats == {
            "hits": 1, "misses": 0, "stores": 0, "invalidations": 0, "evictions": 0,
        }
        for cold_point, warm_point in zip(cold.points, warm.points):
            assert cold_point.metrics_key() == warm_point.metrics_key()
            assert cold_point.errors == warm_point.errors

    def test_disk_round_trip_preserves_metrics_bitwise(
        self, warm_cache_and_cold_result
    ):
        cache, cold = warm_cache_and_cold_result
        # a fresh cache object reads the reference back through .npz only
        disk_only = ReferenceCache(cache.disk.directory, max_memory_entries=0)
        warm = run_sweep(_spec(), cache=disk_only)
        assert warm.cache_stats == {
            "hits": 1, "misses": 0, "stores": 0, "invalidations": 0, "evictions": 0,
        }
        for cold_point, warm_point in zip(cold.points, warm.points):
            assert cold_point.metrics_key() == warm_point.metrics_key()

    def test_spec_cache_dir_field_enables_caching(self, tmp_path):
        spec = _spec(cache_dir=str(tmp_path))
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert first.cache_stats["misses"] == 1
        assert second.cache_stats == {
            "hits": 1, "misses": 0, "stores": 0, "invalidations": 0, "evictions": 0,
        }

    def test_uncached_sweep_reports_no_stats(self):
        assert run_sweep(_spec(formats=["bf16"])).cache_stats is None

    def test_result_to_dict_includes_cache_stats(self, warm_cache_and_cold_result):
        import json

        _, cold = warm_cache_and_cold_result
        payload = cold.to_dict()
        assert payload["cache"]["misses"] == 1
        assert json.loads(json.dumps(payload)) == payload
