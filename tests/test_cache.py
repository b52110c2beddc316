"""The content-addressed disk cache and the cache-lifecycle API."""

from __future__ import annotations

import json

import pytest

from repro import cache as cache_mod
from repro.cache import (
    MISS,
    STATS,
    BoundedMemo,
    CacheStats,
    DiskCache,
    clear_all_caches,
    register_cache,
)


@pytest.fixture()
def disk(tmp_path):
    return DiskCache(tmp_path / "cache")


class TestDiskCache:
    def test_roundtrip(self, disk):
        assert disk.get("kind", "a", 1) is MISS
        disk.put("kind", "a", 1, payload={"x": [1, 2]}, elapsed=0.5)
        assert disk.get("kind", "a", 1) == {"x": [1, 2]}

    def test_null_payload_is_not_a_miss(self, disk):
        disk.put("kind", "nothing", payload=None)
        assert disk.get("kind", "nothing") is None

    def test_key_sensitivity(self, disk):
        disk.put("kind", "a", payload=1)
        assert disk.get("kind", "b") is MISS
        assert disk.get("other", "a") is MISS
        assert disk.entry_path("kind", "a") != disk.entry_path("kind", "b")

    def test_clear_and_counts(self, disk):
        for i in range(5):
            disk.put("kind", i, payload=i)
        assert disk.entry_count() == 5
        assert disk.total_bytes() > 0
        assert disk.clear() == 5
        assert disk.entry_count() == 0
        assert disk.get("kind", 3) is MISS

    def test_disabled_cache_never_hits(self, tmp_path):
        disk = DiskCache(tmp_path, enabled=False)
        disk.put("kind", "a", payload=1)
        assert disk.get("kind", "a") is MISS
        assert disk.entry_count() == 0

    def test_stats_counters(self, disk):
        before = STATS.snapshot()
        disk.get("kind", "nope")
        disk.put("kind", "yes", payload=1, elapsed=2.0)
        disk.get("kind", "yes")
        delta = STATS.delta(before)
        assert delta.disk_misses == 1
        assert delta.disk_writes == 1
        assert delta.disk_hits == 1
        assert delta.seconds_saved == pytest.approx(2.0)


class TestCacheStats:
    def test_snapshot_delta_reset(self):
        stats = CacheStats(disk_hits=3, derivations=2, seconds_saved=1.5)
        snap = stats.snapshot()
        stats.disk_hits += 4
        delta = stats.delta(snap)
        assert delta.disk_hits == 4 and delta.derivations == 0
        stats.reset()
        assert stats.as_dict() == CacheStats().as_dict()

    def test_process_stats_sum_the_memo_counters(self):
        memo = BoundedMemo()
        cache_mod.reset_stats()
        assert STATS.snapshot().memo_hits == STATS.snapshot().memo_misses == 0
        memo.get("k")
        memo.put("k", 1)
        memo.get("k")
        snap = STATS.snapshot()
        assert (snap.memo_hits, snap.memo_misses) == (1, 1)
        assert (STATS.memo_hits, STATS.memo_misses) == (1, 1)
        assert "memo 1 hits / 1 misses" in STATS.summary()
        STATS.incr(memo_hits=2)
        assert STATS.memo_hits == 3

    def test_summary_mentions_everything(self):
        text = CacheStats(disk_hits=1, memo_misses=2, derivations=3).summary()
        assert "1 hits" in text and "3 derivations" in text


class TestBoundedMemo:
    def test_put_get_and_bound(self):
        memo = BoundedMemo(maxsize=2, register=False)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("c", 3)  # evicts the least recently used ("a")
        assert "a" not in memo
        assert memo.get("b") == 2 and memo.get("c") == 3
        assert len(memo) == 2

    def test_lru_recency(self):
        memo = BoundedMemo(maxsize=2, register=False)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.get("a")  # refresh "a"; "b" is now the eviction candidate
        memo.put("c", 3)
        assert "a" in memo and "b" not in memo

    def test_miss_sentinel_distinguishes_cached_none(self):
        memo = BoundedMemo(register=False)
        memo.put("k", None)
        assert memo.get("k") is None
        assert memo.get("other") is MISS


class TestThreadSafety:
    """The serving layer shares memos and STATS across worker threads."""

    def test_bounded_memo_threaded_hammer(self):
        import random
        import threading

        memo = BoundedMemo(maxsize=64, register=False)
        threads, errors = 8, []
        lookups_per_thread = 2000

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(lookups_per_thread):
                    key = rng.randrange(200)
                    value = memo.get(key)
                    if value is not MISS and value != key * 3:
                        errors.append((key, value))
                    memo.put(key, key * 3)
            except Exception as exc:  # pragma: no cover - the failure signal
                errors.append(exc)

        pool = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors
        stats = memo.stats()
        # every lookup was counted exactly once, despite the contention
        assert stats["hits"] + stats["misses"] == threads * lookups_per_thread
        assert len(memo) <= 64

    def test_cache_stats_incr_is_atomic(self):
        import threading

        stats = CacheStats()
        increments_per_thread = 5000

        def worker() -> None:
            for _ in range(increments_per_thread):
                stats.incr(memo_hits=1, seconds_saved=0.5)

        pool = [threading.Thread(target=worker) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert stats.memo_hits == 8 * increments_per_thread
        assert stats.seconds_saved == pytest.approx(8 * increments_per_thread * 0.5)


class TestLifecycle:
    def test_registered_caches_are_cleared(self):
        memo = BoundedMemo()  # registers itself
        calls = []
        register_cache(lambda: calls.append("custom"))
        memo.put("k", 1)
        clear_all_caches()
        assert len(memo) == 0
        assert calls == ["custom"]

    def test_clear_all_resets_pipeline_memos(self):
        from repro.experiments import common
        from repro.param import derive, engine

        # Touch the pipeline so the memos are non-trivially populated.
        common.benchmark_learning("gcc")
        assert common._LEARNING_CACHE
        clear_all_caches()
        assert not common._LEARNING_CACHE
        assert not common._RUN_CACHE
        assert len(derive._TARGET_MEMO) == 0
        assert len(engine._SETUP_MEMO) == 0
        assert common.rules_full_suite.cache_info().currsize == 0

    def test_clear_all_resets_sequence_verification_memo(self):
        from repro.experiments.common import benchmark_learning
        from repro.param import seqderive

        seqderive.derive_sequence_rules(benchmark_learning("gcc").rules)
        assert len(seqderive._SEQ_CACHE) > 0
        assert "param.seq_verify" in [
            memo.stats()["name"] for memo in cache_mod.memo_registry()
        ]
        clear_all_caches()
        assert len(seqderive._SEQ_CACHE) == 0

    def test_disk_survives_clear_all(self, tmp_path):
        previous_root = cache_mod.disk_cache().root
        disk = cache_mod.reset_disk_cache(tmp_path / "persist")
        try:
            disk.put("kind", "a", payload=1)
            clear_all_caches()
            assert disk.get("kind", "a") == 1
        finally:
            cache_mod.reset_disk_cache(previous_root)


class TestPipelineDiskReuse:
    def test_warm_derivation_skips_recompute(self, tmp_path):
        """A fresh process (simulated via clear_all_caches) re-deriving the
        same rule set performs zero symbolic derivations."""
        from repro.experiments.common import benchmark_learning
        from repro.param.derive import derive_rules

        previous_root = cache_mod.disk_cache().root
        cache_mod.reset_disk_cache(tmp_path / "warm")
        try:
            learned = benchmark_learning("gcc").rules
            cold = derive_rules(learned)
            clear_all_caches()
            before = STATS.snapshot()
            warm = derive_rules(learned)
            delta = STATS.delta(before)
            assert delta.derivations == 0
            assert delta.disk_hits > 0
            assert [str(r) for r in warm.derived] == [str(r) for r in cold.derived]
            assert warm.counts == cold.counts
            assert warm.target_stage == cold.target_stage
        finally:
            cache_mod.reset_disk_cache(previous_root)
            clear_all_caches()

    def test_tampered_derive_rules_entry_is_recomputed(self, tmp_path):
        """A ``derive-rules`` entry edited in place (still valid JSON, one
        host mnemonic changed) is a miss: it is quarantined and the correct
        rule set is derived again instead of the tampered one served."""
        import re

        from repro.experiments.common import benchmark_learning
        from repro.param.derive import derive_rules

        previous_root = cache_mod.disk_cache().root
        root = tmp_path / "tamper"
        cache_mod.reset_disk_cache(root)
        try:
            learned = benchmark_learning("gcc").rules
            cold = [str(rule) for rule in derive_rules(learned).derived]
            (entry,) = [
                path for path in root.glob("*/*.json")
                if '"stages"' in path.read_text()
            ]
            text = entry.read_text()
            tampered = re.sub(r'"host": \["addl ', '"host": ["subl ', text, count=1)
            assert tampered != text
            entry.write_text(tampered)

            clear_all_caches()
            before = STATS.snapshot()
            warm = [str(rule) for rule in derive_rules(learned).derived]
            delta = STATS.delta(before)
            assert warm == cold
            assert delta.disk_misses >= 1
            healed = entry.read_text()  # rewritten with the correct rules
            assert healed.count('"host": ["subl ') == text.count('"host": ["subl ')
        finally:
            cache_mod.reset_disk_cache(previous_root)
            clear_all_caches()
