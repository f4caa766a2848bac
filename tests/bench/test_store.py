"""Result store: keys, integrity, cold/warm identity, repair, eviction."""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.executor import ParallelExecutor, SerialExecutor
from repro.bench.spec import PointResult, SweepSpec
from repro.bench.store import (
    STORE_ENV,
    ResultStore,
    point_key,
    resolve_store,
    spec_keys,
    store_from_env,
)
from repro.errors import ReproError
from repro.faults import ArrivalSkew, FaultPlan


def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        cluster="b",
        nodes=2,
        ppn=2,
        sizes=(1024, 16384),
        algorithms=("dpml",),
        leader_counts=(1, 2),
        iterations=1,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestKeys:
    def test_truncated_spec_hash_rejected(self):
        spec = tiny_spec()
        point = spec.points()[0]
        with pytest.raises(ReproError, match="full_hash"):
            point_key(point, spec_hash=spec.spec_hash())

    def test_keys_are_full_digests_in_expansion_order(self):
        spec = tiny_spec()
        keys = spec_keys(spec)
        assert len(keys) == spec.n_points
        assert len(set(keys)) == spec.n_points
        assert all(len(k) == 64 and int(k, 16) >= 0 for k in keys)
        point = spec.points()[0]
        assert keys[0] == point_key(point, spec_hash=spec.full_hash())

    def test_variations_never_alias(self):
        """fidelity / fault-plan / seed each move the key."""
        plan = FaultPlan(faults=(ArrivalSkew(magnitude=1e-4),))
        specs = {
            "base": tiny_spec(),
            "hybrid": tiny_spec(fidelity="hybrid"),
            "seeded": tiny_spec(base_seed=7),
            "faulty": tiny_spec(faults=plan),
        }
        keys = [spec_keys(s)[0] for s in specs.values()]
        assert len(set(keys)) == len(keys)

    def test_same_point_same_key(self):
        spec = tiny_spec()
        assert spec_keys(spec) == spec_keys(tiny_spec())


class TestBlobLifecycle:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = spec_keys(tiny_spec())[0]
        store.put(key, {"latency": 1.25e-5, "error": None})
        assert store.get(key) == {"latency": 1.25e-5, "error": None}
        assert store.session_counters["hits"] == 1

    def test_miss_on_absent_key(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("ab" * 32) is None
        assert store.session_counters["misses"] == 1

    def test_blob_bytes_deterministic(self, tmp_path):
        store = ResultStore(tmp_path)
        key = spec_keys(tiny_spec())[0]
        store.put(key, {"latency": 2.0e-6, "error": None})
        first = store._path(key).read_bytes()
        store.put(key, {"latency": 2.0e-6, "error": None})
        assert store._path(key).read_bytes() == first

    def test_corrupt_blob_is_a_miss_and_write_back_repairs(self, tmp_path):
        store = ResultStore(tmp_path)
        key = spec_keys(tiny_spec())[0]
        store.put(key, {"latency": 3.0e-6, "error": None})
        path = store._path(key)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x04  # single bit flip
        path.write_bytes(bytes(raw))
        assert store.get(key) is None
        assert store.session_counters["corrupt"] == 1
        assert not path.exists()  # dropped so write-back can repair
        store.put(key, {"latency": 3.0e-6, "error": None})
        assert store.get(key) == {"latency": 3.0e-6, "error": None}

    def test_blob_under_wrong_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        k1, k2 = spec_keys(tiny_spec())[:2]
        store.put(k1, {"latency": 1e-6, "error": None})
        path2 = store._path(k2)
        path2.parent.mkdir(parents=True, exist_ok=True)
        path2.write_bytes(store._path(k1).read_bytes())  # copied blob
        assert store.get(k2) is None  # payload.key mismatch

    def test_errors_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        key = spec_keys(spec)[0]
        bad = PointResult(point=spec.points()[0], error="ValueError: boom")
        assert store.put_result(key, bad) is False
        assert store.get(key) is None

    def test_concurrent_writers_same_key_safe(self, tmp_path):
        store = ResultStore(tmp_path)
        key = spec_keys(tiny_spec())[0]
        result = {"latency": 4.5e-6, "error": None}
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: store.put(key, result), range(64)))
        assert store.get(key) == result
        # no stray temp files survive the storm
        leftovers = [
            p for p in store._path(key).parent.iterdir()
            if p.suffix == ".tmp"
        ]
        assert leftovers == []


class TestExecutorIntegration:
    def test_cold_then_warm_byte_identical(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path)
        executor = SerialExecutor()
        cold = executor.run(spec, store=store)
        warm = executor.run(spec, store=store)
        assert cold.meta["store"] == {
            "root": str(tmp_path), "hits": 0,
            "misses": spec.n_points, "stored": spec.n_points,
        }
        assert warm.meta["store"] == {
            "root": str(tmp_path), "hits": spec.n_points,
            "misses": 0, "stored": 0,
        }
        assert cold.to_json(include_meta=False) == warm.to_json(
            include_meta=False
        )

    @pytest.mark.parametrize(
        "spec",
        [
            tiny_spec(),
            SweepSpec(
                name="leaders-b", cluster="b", nodes=2, ppn=4,
                sizes=(1024, 16384), algorithms=("dpml",),
                leader_counts=(1, 2, 4), iterations=1,
            ),
            SweepSpec(
                name="leaders-a", cluster="a", nodes=2, ppn=4,
                sizes=(4096,), algorithms=("dpml",),
                leader_counts=(1, 4), iterations=1,
            ),
            SweepSpec(
                name="algorithms", cluster="b", nodes=2, ppn=2,
                sizes=(1024, 4096),
                algorithms=("mvapich2", "recursive_doubling"),
                leader_counts=(None,), iterations=1,
            ),
            SweepSpec(
                name="hybrid", cluster="b", nodes=2, ppn=4,
                sizes=(16384,), algorithms=("dpml",),
                leader_counts=(2,), iterations=1, fidelity="hybrid",
            ),
        ],
        ids=lambda spec: spec.name,
    )
    def test_serial_parallel_cached_all_equivalent(self, tmp_path, spec):
        plain = SerialExecutor().run(spec)
        store = ResultStore(tmp_path)
        parallel_cold = ParallelExecutor(2).run(spec, store=store)
        serial_warm = SerialExecutor().run(spec, store=store)
        reference = plain.to_json(include_meta=False)
        assert parallel_cold.to_json(include_meta=False) == reference
        assert serial_warm.to_json(include_meta=False) == reference
        assert serial_warm.meta["store"]["hits"] == spec.n_points

    def test_warm_store_misses_after_a_model_change(self, tmp_path, monkeypatch):
        import repro.bench.store as store_module

        store = ResultStore(tmp_path)
        executor = SerialExecutor()
        executor.run(tiny_spec(), store=store)
        monkeypatch.setattr(store_module, "MODEL_ID", "0" * 64)
        moved = executor.run(tiny_spec(), store=store)
        assert moved.meta["store"]["hits"] == 0
        assert moved.meta["store"]["stored"] == moved.meta["n_points"]

    def test_partial_warm_runs_only_missing_points(self, tmp_path):
        store = ResultStore(tmp_path)
        executor = SerialExecutor()
        executor.run(tiny_spec(sizes=(1024,)), store=store)
        # different spec -> different namespace -> nothing reusable
        other = executor.run(tiny_spec(sizes=(1024, 16384)), store=store)
        assert other.meta["store"]["hits"] == 0
        # same spec again -> fully warm
        again = executor.run(tiny_spec(sizes=(1024, 16384)), store=store)
        assert again.meta["store"]["hits"] == other.meta["n_points"]

    def test_failed_points_reexecute_on_warm_run(self, tmp_path):
        spec = tiny_spec(algorithms=("dpml", "no_such_algorithm"))
        store = ResultStore(tmp_path)
        executor = SerialExecutor()
        cold = executor.run(spec, store=store)
        warm = executor.run(spec, store=store)
        n_bad = len(cold.errors)
        assert n_bad > 0
        assert cold.meta["store"]["stored"] == spec.n_points - n_bad
        assert warm.meta["store"]["misses"] == n_bad
        assert cold.to_json(include_meta=False) == warm.to_json(
            include_meta=False
        )

    def test_progress_sees_every_point_when_warm(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path)
        SerialExecutor().run(spec, store=store)
        seen = []
        SerialExecutor().run(
            spec, store=store,
            progress=lambda done, total, r: seen.append((done, total)),
        )
        assert seen == [(i + 1, spec.n_points) for i in range(spec.n_points)]


class TestMaintenance:
    def _filled(self, tmp_path, n=4):
        store = ResultStore(tmp_path)
        for i, key in enumerate(spec_keys(tiny_spec())[:n]):
            store.put(key, {"latency": (i + 1) * 1e-6, "error": None})
        return store

    def test_stats(self, tmp_path):
        store = self._filled(tmp_path)
        stats = store.stats()
        assert stats["entries"] == 4
        assert stats["bytes"] > 0
        assert stats["counters"]["stored"] == 4

    def test_verify_reports_corruption_without_deleting(self, tmp_path):
        store = self._filled(tmp_path)
        victim = next(store.entries())
        victim.path.write_bytes(b"not json")
        report = store.verify()
        assert report["ok"] == 3
        assert report["corrupt"] == [victim.key]
        assert victim.path.exists()  # verify is a diagnostic

    def test_gc_by_age(self, tmp_path):
        store = self._filled(tmp_path)
        entries = list(store.entries())
        old = entries[0]
        os.utime(old.path, (old.mtime - 1000, old.mtime - 1000))
        report = store.gc(older_than=500)
        assert report["evicted"] == 1
        assert not old.path.exists()

    def test_gc_by_size_evicts_oldest_first(self, tmp_path):
        store = self._filled(tmp_path)
        entries = sorted(store.entries(), key=lambda e: e.key)
        for i, entry in enumerate(entries):
            stamp = 1_000_000 + i
            os.utime(entry.path, (stamp, stamp))
        keep_bytes = sum(e.size for e in entries[2:])
        report = store.gc(max_bytes=keep_bytes)
        assert report["evicted"] == 2
        survivors = {e.key for e in store.entries()}
        assert survivors == {e.key for e in entries[2:]}

    def test_gc_dry_run_evicts_nothing(self, tmp_path):
        store = self._filled(tmp_path)
        entries = sorted(store.entries(), key=lambda e: e.key)
        for i, entry in enumerate(entries):
            stamp = 1_000_000 + i
            os.utime(entry.path, (stamp, stamp))
        keep_bytes = sum(e.size for e in entries[2:])
        report = store.gc(max_bytes=keep_bytes, dry_run=True)
        # Same selection as the real pass, but nothing is unlinked.
        assert report["dry_run"] is True
        assert report["evicted"] == 2
        assert report["evicted_bytes"] == sum(e.size for e in entries[:2])
        assert {e.key for e in store.entries()} == {e.key for e in entries}
        # The real pass then evicts exactly what the dry run promised.
        real = store.gc(max_bytes=keep_bytes)
        assert real["dry_run"] is False
        assert real["evicted"] == report["evicted"]
        assert real["evicted_bytes"] == report["evicted_bytes"]
        assert {e.key for e in store.entries()} == {
            e.key for e in entries[2:]
        }

    def test_gc_negative_budget_rejected(self, tmp_path, capsys):
        from repro.cli import main

        store = self._filled(tmp_path)
        before = {e.key for e in store.entries()}
        with pytest.raises(ReproError, match="max_bytes"):
            store.gc(max_bytes=-1)
        argv = [
            "bench", "cache", "gc", "--store", str(tmp_path),
            "--max-bytes", "-1",
        ]
        assert main(argv) == 2
        assert "max_bytes" in capsys.readouterr().err
        assert {e.key for e in store.entries()} == before

    def test_counters_persist_across_instances(self, tmp_path):
        store = self._filled(tmp_path)
        store.get(next(iter(spec_keys(tiny_spec()))))
        store.flush_counters()
        reopened = ResultStore(tmp_path)
        counters = reopened.cumulative_counters()
        assert counters["stored"] == 4
        assert counters["hits"] == 1
        assert json.loads(reopened.counters_path.read_text())["stored"] == 4


class TestResolution:
    def test_store_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert store_from_env() is None
        monkeypatch.setenv(STORE_ENV, str(tmp_path))
        store = store_from_env()
        assert store is not None and store.root == tmp_path

    def test_resolve_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env"))
        assert resolve_store(None, True) is None  # --no-store wins
        explicit = resolve_store(str(tmp_path / "flag"), False)
        assert explicit.root == tmp_path / "flag"
        assert resolve_store(None, False).root == tmp_path / "env"
