"""Filesystem lockfile single-flight: claim-or-wait with stale-lock breaking.

When N processes miss on the same content-addressed entry, exactly one
should produce it and the rest should wait for the publication instead of
re-producing.  :mod:`repro.castore` runs every rebuildable store through
this protocol; :mod:`repro.pipeline.store` uses the lock as a mutex.

Three primitives, all built on plain files so they survive any process
dying at any point:

* :func:`try_claim` — create ``<lock>`` with ``O_CREAT | O_EXCL`` (atomic
  on every POSIX filesystem).  An *unwritable* lock directory degrades to
  "claimed": the caller produces locally and publication becomes a no-op,
  so a read-only cache never stalls anyone.
* :func:`lock_age` — mtime age of a live lock, None once released.
* :func:`claim_or_wait` — the full protocol: claim, or poll ``load()``
  until the winner publishes.  A lock whose holder died (no entry appears
  and the lockfile outlives ``stale_lock_seconds``) is broken and
  re-claimed, so a SIGKILL'd claimant can never deadlock the fleet; a
  waiter that exhausts ``wait_timeout`` falls back to producing locally —
  duplicated work, never a stall.

Callers count events through the ``on_event`` hook (event names
``"claim"``, ``"wait"``, ``"wait_timeout"``, ``"stale_break"``).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Optional, Tuple, TypeVar

#: Claim outcomes returned by :func:`claim_or_wait`.
CLAIMED = "claimed"
CACHED = "cached"
TIMEOUT = "timeout"

T = TypeVar("T")


def try_claim(lock: Path) -> bool:
    """Atomically create *lock*; True if this process now holds the claim.

    An unwritable lock directory also returns True — the caller produces
    locally (duplicated work at worst) instead of waiting on a lock nobody
    can ever take.
    """
    try:
        lock.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(lock), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return True
    with os.fdopen(fd, "w") as handle:
        handle.write(f"{os.getpid()} {time.time():.6f}\n")
    return True


def release(lock: Path) -> None:
    """Drop a held (or stale) lock; never raises."""
    try:
        lock.unlink()
    except OSError:
        pass


def lock_age(lock: Path) -> Optional[float]:
    """Seconds since the lock was taken, or None if it has been released."""
    try:
        return time.time() - lock.stat().st_mtime
    except OSError:
        return None


def claim_or_wait(
    lock: Path,
    load: Callable[[], Optional[T]],
    *,
    stale_lock_seconds: float = 5.0,
    wait_timeout: float = 30.0,
    poll_interval: float = 0.005,
    on_event: Optional[Callable[[str], None]] = None,
) -> Tuple[str, Optional[T]]:
    """Claim the right to produce an entry, or wait for whoever did.

    ``load`` is the caller's entry loader (returns the published value or
    None).  Returns one of::

        (CLAIMED, None)     -- caller must produce, publish, and release
        (CACHED, value)     -- another process published; use it
        (TIMEOUT, None)     -- waited too long; produce locally,
                               do NOT release (the lock isn't ours)

    Never raises and never blocks longer than ``wait_timeout``.
    """

    def note(event: str) -> None:
        if on_event is not None:
            on_event(event)

    deadline = time.monotonic() + wait_timeout
    while True:
        if try_claim(lock):
            # Double-check under the lock: the previous holder may have
            # published between the caller's load-miss and our claim.
            cached = load()
            if cached is not None:
                release(lock)
                return CACHED, cached
            note("claim")
            return CLAIMED, None
        note("wait")
        while time.monotonic() < deadline:
            cached = load()
            if cached is not None:
                return CACHED, cached
            age = lock_age(lock)
            if age is None:
                break  # lock released; race for the claim again
            if age > stale_lock_seconds:
                # Dead claimant: break the lock and race to re-claim.
                note("stale_break")
                release(lock)
                break
            time.sleep(poll_interval)
        else:
            note("wait_timeout")
            return TIMEOUT, None
