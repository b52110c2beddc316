"""The shared single-flight lockfile helpers (``repro.fslock``).

The pipeline artifact store and the ruleset store share one claim-or-wait
protocol; these tests pin the protocol itself, and the claim-or-wait cases
in ``tests/test_castore.py`` pin its use through ``CAStore.get_or_build``.
"""

from __future__ import annotations

import threading
import time

from repro import fslock


class TestTryClaim:
    def test_first_claim_wins_second_loses(self, tmp_path):
        lock = tmp_path / "x.lock"
        assert fslock.try_claim(lock) is True
        assert fslock.try_claim(lock) is False
        fslock.release(lock)
        assert fslock.try_claim(lock) is True

    def test_creates_parent_directories(self, tmp_path):
        lock = tmp_path / "a" / "b" / "x.lock"
        assert fslock.try_claim(lock) is True
        assert lock.is_file()

    def test_release_is_idempotent(self, tmp_path):
        lock = tmp_path / "x.lock"
        fslock.release(lock)  # nothing to release: no raise
        fslock.try_claim(lock)
        fslock.release(lock)
        fslock.release(lock)

    def test_unwritable_directory_degrades_to_claimed(self, tmp_path):
        """An OSError other than 'exists' means locking is unavailable —
        act as claimed (duplicated work beats a hard failure)."""
        read_only = tmp_path / "ro"
        read_only.mkdir()
        read_only.chmod(0o500)
        try:
            assert fslock.try_claim(read_only / "x.lock") is True
        finally:
            read_only.chmod(0o700)


class TestLockAge:
    def test_missing_lock_has_no_age(self, tmp_path):
        assert fslock.lock_age(tmp_path / "none.lock") is None

    def test_age_grows(self, tmp_path):
        lock = tmp_path / "x.lock"
        fslock.try_claim(lock)
        age = fslock.lock_age(lock)
        assert age is not None and age >= 0.0


class TestClaimOrWait:
    def test_uncontended_claim(self, tmp_path):
        outcome, value = fslock.claim_or_wait(
            tmp_path / "x.lock", lambda: None, wait_timeout=1.0
        )
        assert outcome == fslock.CLAIMED
        assert value is None
        # claim_or_wait does NOT release; the claimer publishes then releases
        assert (tmp_path / "x.lock").is_file()

    def test_waiter_gets_published_value(self, tmp_path):
        lock = tmp_path / "x.lock"
        box = {}
        events = []
        assert fslock.try_claim(lock)

        def holder():
            time.sleep(0.05)
            box["value"] = "published"
            fslock.release(lock)

        thread = threading.Thread(target=holder)
        thread.start()
        outcome, value = fslock.claim_or_wait(
            lock,
            lambda: box.get("value"),
            wait_timeout=5.0,
            poll_interval=0.005,
            on_event=events.append,
        )
        thread.join()
        assert (outcome, value) == (fslock.CACHED, "published")
        assert events == ["wait"]

    def test_double_check_under_lock(self, tmp_path):
        """A value that appears between the claim and the load is returned
        as cached even though we won the lock."""
        lock = tmp_path / "x.lock"
        outcome, value = fslock.claim_or_wait(
            lock, lambda: "already-there", wait_timeout=1.0
        )
        assert (outcome, value) == (fslock.CACHED, "already-there")
        # the cached path released the claim it had just taken
        assert not lock.is_file()

    def test_stale_lock_is_broken(self, tmp_path):
        lock = tmp_path / "x.lock"
        fslock.try_claim(lock)  # an abandoned claim (holder died)
        events = []
        outcome, value = fslock.claim_or_wait(
            lock,
            lambda: None,
            stale_lock_seconds=0.0,
            wait_timeout=5.0,
            poll_interval=0.005,
            on_event=events.append,
        )
        assert outcome == fslock.CLAIMED
        assert "stale_break" in events

    def test_wait_timeout_degrades(self, tmp_path):
        lock = tmp_path / "x.lock"
        fslock.try_claim(lock)  # held and never released
        events = []
        started = time.monotonic()
        outcome, value = fslock.claim_or_wait(
            lock,
            lambda: None,
            stale_lock_seconds=60.0,
            wait_timeout=0.05,
            poll_interval=0.005,
            on_event=events.append,
        )
        assert outcome == fslock.TIMEOUT
        assert value is None
        assert time.monotonic() - started < 5.0
        assert "wait_timeout" in events
