"""Fault injection against the one content-addressed store (``repro.castore``).

Every rebuildable on-disk cache is an adapter over :class:`CAStore`: the
pipeline's stage artifacts and the derivation cache.  Each attack below runs
against both and must end in a miss or in no persistence: nothing raises,
and no tampered payload ever reaches a decoder (and so never reaches a rule
set).  The claim-or-wait cases at the end drive :meth:`CAStore.get_or_build`
itself, within one process and across forked ones.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro import castore
from repro import fslock
from repro.cache import MISS, DiskCache
from repro.castore import BUILT, HIT, CAStore, canonical_digest
from repro.pipeline.artifacts import ArtifactStore, artifact_digest

TAG = "PAYLOAD-original"


class _ArtifactTarget:
    """ArtifactStore: one stage's artifacts keyed by input digest."""

    def __init__(self, root, monkeypatch):
        self.root = root
        self.store = ArtifactStore(root)
        self.seen = []

    def _digest(self, which):
        return artifact_digest("learn", which)

    def put(self, tag, which=0):
        self.store.store("learn", self._digest(which), {"tag": tag})

    def get(self, which=0):
        payload = self.store.load("learn", self._digest(which))
        if payload is None:
            return None
        self.seen.append(payload["tag"])
        return payload["tag"]

    def path(self, which=0):
        return self.store.entry_path("learn", self._digest(which))

    def get_or_build(self, tag):
        payload, _ = self.store.get_or_build(
            "learn", self._digest(0), lambda: {"tag": tag}
        )
        return payload["tag"]

    def corrupt_count(self):
        return self.store.stats()["corrupt"]


class _DeriveTarget:
    """DiskCache: derivation results keyed by (kind, parts)."""

    def __init__(self, root, monkeypatch):
        self.root = root
        self.cache = DiskCache(root)
        self.seen = []

    def _decode(self, value):
        self.seen.append(value["tag"])
        return value["tag"]

    def put(self, tag, which=0):
        self.cache.put("derive-rules", which, payload={"tag": tag}, elapsed=1.0)

    def get(self, which=0):
        value = self.cache.get("derive-rules", which, decode=self._decode)
        return None if value is MISS else value

    def path(self, which=0):
        return self.cache.entry_path("derive-rules", which)

    def get_or_build(self, tag):
        value = self.get()
        if value is None:
            self.put(tag)
            value = tag
        return value

    def corrupt_count(self):
        return self.cache._store.counters()["corrupt"]


@pytest.fixture(
    params=[_ArtifactTarget, _DeriveTarget],
    ids=["artifacts", "derive-cache"],
)
def make_target(request, monkeypatch):
    return lambda root: request.param(root, monkeypatch)


@pytest.fixture
def target(make_target, tmp_path):
    return make_target(tmp_path / "store")


def _assert_quarantined(target):
    assert target.get() is None
    assert not target.path().exists()  # deleted so the next writer rewrites it
    assert target.corrupt_count() == 1


class TestRoundtrip:
    def test_store_load_and_write_once(self, target):
        assert target.get() is None
        target.put(TAG)
        assert target.get() == TAG
        first = target.path().read_bytes()
        target.put("PAYLOAD-second")  # write-once: first writer's entry stays
        assert target.path().read_bytes() == first
        assert target.get() == TAG


class TestFaultInjection:
    def test_truncation(self, target):
        target.put(TAG)
        text = target.path().read_text()
        target.path().write_text(text[: len(text) // 2])
        _assert_quarantined(target)
        target.put("PAYLOAD-fresh")
        assert target.get() == "PAYLOAD-fresh"

    def test_payload_bit_flip(self, target):
        target.put(TAG)
        raw = bytearray(target.path().read_bytes())
        at = raw.index(TAG.encode())
        raw[at] ^= 0x20  # "P" -> "p": still valid JSON, different payload
        target.path().write_bytes(bytes(raw))
        _assert_quarantined(target)
        assert target.seen == []  # the flipped payload reached no decoder
        assert target.get_or_build("PAYLOAD-rebuilt") == "PAYLOAD-rebuilt"

    def test_misfiled_key(self, target):
        """An entry copied under another digest is rejected even though its
        own checksum is internally consistent."""
        target.put(TAG, which=0)
        target.path(1).parent.mkdir(parents=True, exist_ok=True)
        target.path(1).write_text(target.path(0).read_text())
        assert target.get(1) is None
        assert not target.path(1).exists()
        assert target.corrupt_count() == 1
        assert target.seen == []

    def test_stale_format_tag(self, target):
        target.put(TAG)
        entry = json.loads(target.path().read_text())
        entry["format"] = "some-older-format"
        target.path().write_text(json.dumps(entry))
        _assert_quarantined(target)
        assert target.seen == []

    def test_unwritable_root(self, make_target, tmp_path):
        # A root nested under a regular file: every mkdir/open fails with
        # ENOTDIR (robust even when the suite runs as root, where
        # permission-bit write denial doesn't apply).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        target = make_target(blocker / "store")
        target.put(TAG)  # no raise
        assert target.get() is None
        assert target.get_or_build("PAYLOAD-local") == "PAYLOAD-local"
        assert target.get() is None

    def test_failed_rename(self, target, monkeypatch):
        """``os.replace`` failing mid-publish leaves nothing behind."""

        def failing_replace(src, dst):
            raise OSError("injected rename failure")

        with monkeypatch.context() as patch:
            patch.setattr(castore.os, "replace", failing_replace)
            target.put(TAG)  # no raise
            assert target.get() is None
            assert target.get_or_build("PAYLOAD-local") == "PAYLOAD-local"
        assert target.get() is None
        leftovers = [name for _, _, files in os.walk(target.root) for name in files]
        assert leftovers == []  # no entry and no stray temp file


# ---------------------------------------------------------------------------
# claim-or-wait single flight through CAStore.get_or_build

FORMAT = "test-v1"
DIGEST = canonical_digest("unit", 0)


def _store(root, **budgets) -> CAStore:
    return CAStore(root, FORMAT, **budgets)


class _Builds:
    """A ``build()`` that records each call and returns *value*."""

    def __init__(self, value=TAG):
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.value


class TestClaimOrWait:
    def test_waiter_times_out_against_live_lock(self, tmp_path):
        """A healthy (fresh) foreign lock with no publication: the waiter
        gives up at ``wait_timeout`` and builds locally — duplicated work,
        never a stall."""
        store = _store(tmp_path, stale_lock_seconds=60.0, wait_timeout=0.2)
        assert fslock.try_claim(store.lock_path(DIGEST))  # another process's lock
        build = _Builds()
        started = time.monotonic()
        assert store.get_or_build(DIGEST, build) == (TAG, BUILT)
        assert time.monotonic() - started < 5.0
        assert build.calls == 1
        assert store.counters()["wait_timeouts"] == 1
        assert store.lock_path(DIGEST).exists()  # not ours to release

    def test_timed_out_waiter_builds_and_publishes_once(self, tmp_path):
        """After a wait timeout against a live lock the waiter builds and
        publishes; the claimant's later store is a no-op, so the entry is
        written exactly once and the first writer's stays."""
        holder = _store(tmp_path, stale_lock_seconds=60.0, wait_timeout=0.2)
        assert fslock.try_claim(holder.lock_path(DIGEST))
        waiter = _store(tmp_path, stale_lock_seconds=60.0, wait_timeout=0.2)
        build = _Builds()
        assert waiter.get_or_build(DIGEST, build) == (TAG, BUILT)
        assert build.calls == 1
        counters = waiter.counters()
        assert counters["wait_timeouts"] == 1
        assert counters["builds"] == 1 and counters["writes"] == 1
        assert holder.lock_path(DIGEST).exists()  # not ours to release
        assert holder.store(DIGEST, "PAYLOAD-second") is False
        assert holder.load(DIGEST) == TAG
        assert holder.entry_count() == 1

    def test_stale_lock_from_dead_claimant_is_broken(self, tmp_path):
        store = _store(tmp_path, stale_lock_seconds=0.2, wait_timeout=10.0)
        lock = store.lock_path(DIGEST)
        assert fslock.try_claim(lock)
        # Backdate the lockfile: its claimant "died" long ago.
        old = time.time() - 60.0
        os.utime(lock, (old, old))
        waiter = _store(tmp_path, stale_lock_seconds=0.2, wait_timeout=10.0)
        build = _Builds()
        assert waiter.get_or_build(DIGEST, build) == (TAG, BUILT)
        assert build.calls == 1
        counters = waiter.counters()
        assert counters["stale_breaks"] == 1 and counters["claims"] == 1
        assert counters["wait_timeouts"] == 0
        assert not lock.exists()  # the new claimant released it
        assert waiter.load(DIGEST) == TAG

    def test_waiter_picks_up_late_publication(self, tmp_path):
        """The claimant publishes while the waiter polls: the waiter returns
        the published payload instead of building."""
        store = _store(tmp_path, wait_timeout=10.0)
        lock = store.lock_path(DIGEST)
        assert fslock.try_claim(lock)

        def publish():
            time.sleep(0.05)
            store.store(DIGEST, TAG)
            fslock.release(lock)

        thread = threading.Thread(target=publish)
        thread.start()
        waiter = _store(tmp_path, wait_timeout=10.0)
        build = _Builds("PAYLOAD-local")
        assert waiter.get_or_build(DIGEST, build) == (TAG, HIT)
        thread.join()
        assert build.calls == 0
        assert waiter.counters()["waits"] >= 1


def _stampede_child(root, barrier, results):
    """One racing process: get_or_build on one digest, report the outcome."""
    store = _store(root, wait_timeout=30.0)
    barrier.wait()  # every child reaches get_or_build at the same instant
    value, outcome = store.get_or_build(DIGEST, _Builds())
    results.put(
        {
            "pid": os.getpid(),
            "outcome": outcome,
            "value": value,
            "builds": store.counters()["builds"],
            "writes": store.counters()["writes"],
        }
    )


class TestCrossProcessStampede:
    def test_n_processes_one_write(self, tmp_path):
        """The cold-start stampede, deterministically: N forked processes
        race ``get_or_build`` for one digest.  Exactly one builds and
        writes; every other process waits and reads the winner's entry."""
        ctx = multiprocessing.get_context("fork")
        n = 4
        barrier = ctx.Barrier(n)
        results = ctx.Queue()
        children = [
            ctx.Process(target=_stampede_child, args=(tmp_path, barrier, results))
            for _ in range(n)
        ]
        for child in children:
            child.start()
        outcomes = [results.get(timeout=60) for _ in range(n)]
        for child in children:
            child.join(timeout=60)
            assert child.exitcode == 0
        built = [o for o in outcomes if o["outcome"] == BUILT]
        hit = [o for o in outcomes if o["outcome"] == HIT]
        assert len(built) == 1, outcomes
        assert built[0]["builds"] == 1 and built[0]["writes"] == 1
        assert len(hit) == n - 1
        assert all(o["value"] == TAG and o["builds"] == 0 for o in hit)
        # exactly one entry file on disk, loadable, no leftover lock
        store = _store(tmp_path)
        assert store.entry_count() == 1
        assert store.load(DIGEST) == TAG
        assert not store.lock_path(DIGEST).exists()
