"""Fault-injection tests for the cross-process disk code cache.

The disk code cache (:mod:`repro.service.diskcode`) sits between pool
workers and ``compile()``: a corrupted entry that slipped through would be
*executed as guest semantics*.  These tests attack the entry format
(truncation, bit flips, version skew, misfiled keys) and the lockfile
protocol (stale locks from dead claimants, wait timeouts, claim races
across real forked processes) and assert the cache always degrades to a
miss — never to executing tampered source, never to a deadlock.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.dbt.compiler import (
    BlockSource,
    add_compile_listener,
    compile_block,
    compile_block_source,
    generate_block_source,
    remove_compile_listener,
)
from repro import fslock
from repro.service.diskcode import CACHED, CLAIMED, TIMEOUT, DiskCodeCache


@pytest.fixture
def cache(tmp_path):
    return DiskCodeCache(tmp_path / "codecache")


def _source(text: str = "def _run0(state):\n    return None\n") -> BlockSource:
    return BlockSource(text=text, step_counts=(1,), host_counts=())


# ---------------------------------------------------------------------------
# BlockSource payload validation


class TestBlockSource:
    def test_payload_roundtrip_through_json(self):
        fused = BlockSource(
            text="def _block(st, counts):\n    return\n",
            step_counts=(2, 2, 2),
            host_counts=(("control", 3), ("rule", 5), ("tcg", 1)),
        )
        for source in (_source(), fused):
            clone = BlockSource.from_payload(
                json.loads(json.dumps(source.to_payload()))
            )
            assert clone == source
        assert fused.to_payload()["host_counts"] == [
            ["control", 3], ["rule", 5], ["tcg", 1]
        ]

    @pytest.mark.parametrize(
        "corrupt",
        [
            {},
            {"text": 5, "step_counts": [1], "host_counts": []},
            {"text": "x", "step_counts": "nope", "host_counts": []},
            {"text": "x", "step_counts": [1, "two"], "host_counts": []},
            {"text": "x", "step_counts": [1], "host_counts": "yes"},
            # a block-v2 payload: no host_counts at all
            {"text": "x", "step_counts": [1], "forward_only": True},
            {"text": "x", "step_counts": [1], "host_counts": [["tcg"]]},
            {"text": "x", "step_counts": [1], "host_counts": [["tcg", 1, 2]]},
            {"text": "x", "step_counts": [1], "host_counts": [["tcg", "4"]]},
            {"text": "x", "step_counts": [1], "host_counts": [[4, 4]]},
            {"text": "x", "step_counts": [1], "host_counts": {"tcg": 4}},
        ],
    )
    def test_bad_payload_shapes_raise(self, corrupt):
        with pytest.raises((KeyError, ValueError)):
            BlockSource.from_payload(corrupt)

    def test_malformed_host_counts_entry_is_quarantined(self, cache):
        """A checksum-valid entry whose ``host_counts`` has the wrong shape
        is dropped like any corrupt entry, never instantiated."""
        digest = cache.key("unit", "condition", 0, "quick")

        class _Malformed:
            def to_payload(self):
                return {"text": "x", "step_counts": [1], "host_counts": [["tcg"]]}

        assert cache.store(digest, _Malformed()) is True
        path = cache.entry_path(digest)
        assert cache.load(digest) is None
        assert cache.stats()["corrupt"] == 1
        assert not path.exists()


# ---------------------------------------------------------------------------
# entry integrity under fault injection


class TestEntryIntegrity:
    def test_store_load_roundtrip(self, cache):
        digest = cache.key("unit", "condition", 0, "quick")
        assert cache.load(digest) is None  # cold miss
        assert cache.store(digest, _source()) is True
        assert cache.load(digest) == _source()
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["writes"] == 1

    def test_store_is_write_once(self, cache):
        digest = cache.key("unit", "condition", 0, "quick")
        assert cache.store(digest, _source()) is True
        assert cache.store(digest, _source("def _run0(state):\n    pass\n")) is False
        assert cache.stats()["writes"] == 1
        assert cache.load(digest) == _source()  # first write wins

    def test_truncated_entry_is_quarantined_and_rewritten(self, cache):
        digest = cache.key("unit", "condition", 0, "quick")
        cache.store(digest, _source())
        path = cache.entry_path(digest)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.load(digest) is None  # never parsed as an entry
        assert not path.exists()  # quarantined: deleted so a writer rewrites
        assert cache.stats()["corrupt"] == 1
        assert cache.store(digest, _source()) is True
        assert cache.load(digest) == _source()

    def test_bitflipped_source_text_never_loads(self, cache):
        """A tampered payload fails the checksum: the poisoned text is
        returned to no caller, so it can never reach ``compile()``."""
        digest = cache.key("unit", "condition", 0, "quick")
        cache.store(digest, _source("def _run0(state):\n    return None\n"))
        path = cache.entry_path(digest)
        entry = json.loads(path.read_text())
        entry["payload"]["text"] = "import os; os.system('evil')"
        path.write_text(json.dumps(entry))
        assert cache.load(digest) is None
        assert cache.stats()["corrupt"] == 1
        assert not path.exists()

    def test_version_stale_entry_is_a_miss(self, cache):
        digest = cache.key("unit", "condition", 0, "quick")
        cache.store(digest, _source())
        path = cache.entry_path(digest)
        entry = json.loads(path.read_text())
        entry["format"] = "diskcode-v0"
        path.write_text(json.dumps(entry))
        assert cache.load(digest) is None
        assert cache.stats()["corrupt"] == 1

    def test_misfiled_entry_is_a_miss(self, cache):
        """An entry copied under the wrong digest (key binding) is rejected
        even though its own checksum is internally consistent."""
        digest_a = cache.key("unit", "condition", 0, "quick")
        digest_b = cache.key("unit", "condition", 4, "quick")
        cache.store(digest_a, _source())
        cache.entry_path(digest_b).parent.mkdir(parents=True, exist_ok=True)
        cache.entry_path(digest_b).write_text(
            cache.entry_path(digest_a).read_text()
        )
        assert cache.load(digest_b) is None
        assert cache.stats()["corrupt"] == 1

    def test_unwritable_root_degrades_to_no_persistence(self, tmp_path):
        # A root nested under a regular file: every mkdir/open fails with
        # ENOTDIR (robust even when the suite runs as root, where
        # permission-bit write denial doesn't apply).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = DiskCodeCache(blocker / "codecache")
        digest = cache.key("unit", "condition", 0, "quick")
        assert cache.store(digest, _source()) is False  # no raise
        outcome, cached = cache.claim_or_wait(digest)
        assert outcome == CLAIMED and cached is None  # generate locally


# ---------------------------------------------------------------------------
# lockfile claim-or-wait protocol


class TestClaimOrWait:
    def test_claim_then_release_then_reclaim(self, cache):
        digest = cache.key("u", "condition", 0, "quick")
        outcome, cached = cache.claim_or_wait(digest)
        assert outcome == CLAIMED and cached is None
        assert cache.lock_path(digest).exists()
        cache.release(digest)
        assert not cache.lock_path(digest).exists()
        outcome, _ = cache.claim_or_wait(digest)
        assert outcome == CLAIMED

    def test_published_entry_short_circuits_claim(self, cache):
        digest = cache.key("u", "condition", 0, "quick")
        cache.store(digest, _source())
        outcome, cached = cache.claim_or_wait(digest)
        assert outcome == CACHED and cached == _source()
        assert not cache.lock_path(digest).exists()  # double-check released it

    def test_waiter_times_out_against_live_lock(self, tmp_path):
        """A healthy (fresh) foreign lock with no publication: the waiter
        must give up at ``wait_timeout`` and fall back to local work —
        degraded to duplicate codegen, never a stall."""
        cache = DiskCodeCache(
            tmp_path, stale_lock_seconds=60.0, wait_timeout=0.2
        )
        digest = cache.key("u", "condition", 0, "quick")
        assert fslock.try_claim(cache.lock_path(digest))  # some other process holds the lock
        waiter = DiskCodeCache(
            tmp_path, stale_lock_seconds=60.0, wait_timeout=0.2
        )
        started = time.monotonic()
        outcome, cached = waiter.claim_or_wait(digest)
        assert outcome == TIMEOUT and cached is None
        assert time.monotonic() - started < 5.0
        assert waiter.stats()["wait_timeouts"] == 1
        assert cache.lock_path(digest).exists()  # not ours to release

    def test_timed_out_waiter_builds_and_publishes_once(self, tmp_path):
        """After a wait timeout against a live lock the waiter generates
        locally and publishes; the claimant's later store is a no-op, so
        the entry is written exactly once and the first writer's stays."""
        holder = DiskCodeCache(tmp_path, stale_lock_seconds=60.0, wait_timeout=0.2)
        digest = holder.key("u", "condition", 0, "quick")
        assert fslock.try_claim(holder.lock_path(digest))
        waiter = DiskCodeCache(tmp_path, stale_lock_seconds=60.0, wait_timeout=0.2)
        generated = []

        def generate():
            generated.append(1)
            return _source()

        assert waiter.get_or_build(digest, generate) == _source()
        assert generated == [1]
        stats = waiter.stats()
        assert stats["wait_timeouts"] == 1
        assert stats["generations"] == 1 and stats["writes"] == 1
        assert holder.lock_path(digest).exists()  # not ours to release
        assert holder.store(digest, _source("def _run0(state):\n    pass\n")) is False
        assert holder.load(digest) == _source()
        assert holder.entry_count() == 1

    def test_stale_lock_from_dead_claimant_is_broken(self, tmp_path):
        cache = DiskCodeCache(
            tmp_path, stale_lock_seconds=0.2, wait_timeout=10.0
        )
        digest = cache.key("u", "condition", 0, "quick")
        assert fslock.try_claim(cache.lock_path(digest))
        # Backdate the lockfile: its claimant "died" long ago.
        lock = cache.lock_path(digest)
        old = time.time() - 60.0
        os.utime(lock, (old, old))
        waiter = DiskCodeCache(
            tmp_path, stale_lock_seconds=0.2, wait_timeout=10.0
        )
        outcome, cached = waiter.claim_or_wait(digest)
        assert outcome == CLAIMED and cached is None
        assert waiter.stats()["stale_breaks"] == 1

    def test_waiter_picks_up_late_publication(self, tmp_path):
        """Winner publishes while the loser is polling: the loser returns
        the published source instead of generating."""
        import threading

        cache = DiskCodeCache(tmp_path, wait_timeout=10.0)
        digest = cache.key("u", "condition", 0, "quick")
        assert fslock.try_claim(cache.lock_path(digest))

        def publish():
            time.sleep(0.05)
            cache.store(digest, _source())
            cache.release(digest)

        thread = threading.Thread(target=publish)
        thread.start()
        waiter = DiskCodeCache(tmp_path, wait_timeout=10.0)
        outcome, cached = waiter.claim_or_wait(digest)
        thread.join()
        assert outcome == CACHED and cached == _source()
        assert waiter.stats()["waits"] >= 1


# ---------------------------------------------------------------------------
# cross-process claim race (real forked processes)


def _stampede_child(root, digest, barrier, results):
    """One racing process: claim-or-wait, generate on claim, record outcome."""
    cache = DiskCodeCache(root, wait_timeout=30.0)
    barrier.wait()  # all children hit claim_or_wait at the same instant
    outcome, cached = cache.claim_or_wait(digest)
    stored = False
    if outcome == CLAIMED:
        stored = cache.store(digest, _source())
        cache.release(digest)
    results.put(
        {
            "pid": os.getpid(),
            "outcome": outcome,
            "stored": stored,
            "got_source": cached == _source() if cached is not None else None,
        }
    )


class TestCrossProcessStampede:
    def test_n_processes_one_write(self, tmp_path):
        """The cold-start stampede, deterministically: N forked processes
        race ``claim_or_wait`` for one digest.  Exactly one claims and
        writes; every other process waits and reads the winner's entry."""
        ctx = multiprocessing.get_context("fork")
        n = 4
        barrier = ctx.Barrier(n)
        results = ctx.Queue()
        cache = DiskCodeCache(tmp_path)
        digest = cache.key("u", "condition", 0, "quick")
        children = [
            ctx.Process(
                target=_stampede_child,
                args=(tmp_path, digest, barrier, results),
            )
            for _ in range(n)
        ]
        for child in children:
            child.start()
        outcomes = [results.get(timeout=60) for _ in range(n)]
        for child in children:
            child.join(timeout=60)
            assert child.exitcode == 0
        claimed = [o for o in outcomes if o["outcome"] == CLAIMED]
        waited = [o for o in outcomes if o["outcome"] == CACHED]
        assert len(claimed) == 1, outcomes
        assert claimed[0]["stored"] is True
        assert len(waited) == n - 1
        assert all(o["got_source"] for o in waited)
        # exactly one entry file on disk, loadable, no leftover locks
        assert cache.entry_count() == 1
        assert cache.load(digest) == _source()
        assert not cache.lock_path(digest).exists()


# ---------------------------------------------------------------------------
# generated source round-trips through the cache into real compiled blocks


@pytest.fixture(scope="module")
def demo_block(demo_pair, demo_setup):
    """First translated block of the demo program + its decoded defs."""
    from repro.dbt.block import BlockMap
    from repro.dbt.executor import BlockKernel
    from repro.dbt.translator import BlockTranslator

    config = demo_setup.configs["condition"]
    unit = demo_pair.guest
    blockmap = BlockMap(unit)
    tb = BlockTranslator(unit, blockmap, config).translate(blockmap.blocks[0])
    return tb, BlockKernel(tb).defs


class TestSourceRoundtrip:
    def test_codegen_is_deterministic(self, demo_block):
        tb, defs = demo_block
        assert generate_block_source(tb, defs) == generate_block_source(tb, defs)

    def test_cached_source_compiles_identically(self, demo_block, tmp_path):
        """disk-store → disk-load → compile must equal direct compilation:
        same compiled type, same generated code."""
        tb, defs = demo_block
        cache = DiskCodeCache(tmp_path)
        digest = cache.key("demo", "condition", tb.start, "quick")
        cache.store(digest, generate_block_source(tb, defs))
        loaded = cache.load(digest)
        direct = compile_block(tb, defs)
        recompiled = compile_block_source(tb, loaded, defs)
        assert type(recompiled) is type(direct)
        assert recompiled.execute.__code__.co_code == direct.execute.__code__.co_code

    def test_entry_from_previous_codegen_is_a_miss(
        self, demo_block, tmp_path, monkeypatch
    ):
        """The block codegen version is part of the key: an entry an older
        codegen wrote is never served, and the block is regenerated."""
        from repro.semantics.state import ConcreteState
        from repro.service import diskcode

        tb, defs = demo_block
        cache = DiskCodeCache(tmp_path)
        stale_text = "def _block(st, counts):\n    raise AssertionError('stale')\n"
        stale_keys = []
        for version in ("block-v1", "block-v2"):
            with monkeypatch.context() as patch:
                patch.setattr(diskcode, "BLOCK_CODEGEN_VERSION", version)
                stale = cache.key("demo", "condition", tb.start, "quick")
            cache.store(stale, _source(stale_text))
            stale_keys.append(stale)

        digest = cache.key("demo", "condition", tb.start, "quick")
        assert digest not in stale_keys
        assert cache.load(digest) is None
        cache.store(digest, generate_block_source(tb, defs))
        loaded = cache.load(digest)
        assert loaded == generate_block_source(tb, defs)

        results = []
        for compiled in (compile_block_source(tb, loaded, defs), compile_block(tb, defs)):
            state = ConcreteState()
            state.reset_flags()
            counts = {}
            compiled.execute(state, counts)
            results.append((state.snapshot(), counts, compiled.host_counts))
        assert results[0] == results[1]

    def test_warm_hit_fires_no_compile_listener(self, demo_block):
        """Listeners count *codegen* (work happened), so re-instantiating
        cached source must not fire them — the accounting the stampede
        tests rely on."""
        tb, defs = demo_block
        source = generate_block_source(tb, defs)
        fired = []
        listener = lambda block: fired.append(block.start)  # noqa: E731
        add_compile_listener(listener)
        try:
            compile_block_source(tb, source, defs)
            assert fired == []
            generate_block_source(tb, defs)
            assert fired == [tb.start]
        finally:
            remove_compile_listener(listener)
