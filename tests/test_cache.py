"""The in-process memos, their counters, and the cache-lifecycle API."""

from __future__ import annotations

from repro import cache as cache_mod
from repro.cache import (
    MISS,
    STATS,
    BoundedMemo,
    CacheStats,
    clear_all_caches,
    register_cache,
)


class TestCacheStats:
    def test_snapshot_delta_reset(self):
        stats = CacheStats(memo_hits=3, derivations=2)
        snap = stats.snapshot()
        stats.memo_hits += 4
        delta = stats.delta(snap)
        assert delta.memo_hits == 4 and delta.derivations == 0
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
        text = CacheStats(memo_hits=1, memo_misses=2, derivations=3).summary()
        assert text == "memo 1 hits / 2 misses, 3 derivations"


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
                stats.incr(memo_hits=1, derivations=2)

        pool = [threading.Thread(target=worker) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert stats.memo_hits == 8 * increments_per_thread
        assert stats.derivations == 8 * increments_per_thread * 2


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


class TestDerivationMemo:
    def test_second_learned_set_derives_nothing(self):
        """Target verification is memoized per process: a second
        ``derive_rules`` over a different learned set whose targets are
        already verified performs zero symbolic derivations."""
        from repro.experiments.common import benchmark_learning
        from repro.learning import RuleSet
        from repro.param.derive import derive_rules

        learned = benchmark_learning("gcc").rules
        subset = RuleSet()
        for rule in learned.rules[::2]:
            subset.add(rule)
        assert len(subset) < len(learned)
        derive_rules(learned)
        before = STATS.snapshot()
        second = derive_rules(subset)
        delta = STATS.delta(before)
        assert delta.derivations == 0
        assert delta.memo_hits > 0
        assert second.counts.learned_rules == len(subset)
