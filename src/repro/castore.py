"""One content-addressed store: digest -> verified JSON payload.

Every rebuildable on-disk artifact in the repo goes through :class:`CAStore`:
the pipeline's stage artifacts (:class:`repro.pipeline.artifacts.ArtifactStore`),
a thin adapter that owns only its key parts, its decode step and its public
method names; the entry format, the publish discipline and the fault model
below live here and nowhere else.

**Entry format.**  One JSON file per entry at ``<root>/<digest[:2]>/<digest>.json``::

    {"format": <store format tag>, "key": <digest>,
     "sha256": canonical_digest(format, digest, payload), "payload": <JSON>}

The checksum binds the payload to its key *and* to the store's format tag,
so an entry copied under another digest, written by an older format, or
edited in place (even into other valid JSON) fails verification.

**Publish.**  Entries are write-once: :meth:`CAStore.store` skips a key whose
file already exists, and writes through :func:`atomic_write_text` (temp file
in the same directory + ``os.replace``), so a reader sees either no entry or
a complete one, however many processes write or crash mid-write.

**Fault model.**  Every failure degrades to a miss or to no persistence,
never to an error and never to trusting bad bytes:

* a missing or unreadable entry is a miss;
* an entry that does not parse, has the wrong format tag or key, fails its
  checksum, or whose payload the caller's ``decode`` rejects (``KeyError``,
  ``TypeError`` or ``ValueError``) is *quarantined*: deleted, so the next
  writer rewrites it, and counted as ``corrupt`` and as a miss;
* a store that cannot write (read-only or full root, a failing rename)
  returns False and the caller keeps its freshly built value.

**Single flight.**  :meth:`CAStore.get_or_build` runs ``build()`` at most
once across processes through :func:`repro.fslock.claim_or_wait`: one
process claims and builds, the others wait for its entry.  A waiter that
times out against a live lock builds locally and publishes too; the
write-once check keeps whichever entry landed first.

A ``None`` payload (or a ``decode`` that returns ``None``) reads as a miss,
so adapters that cache "no result" wrap their values.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro import fslock

#: :meth:`CAStore.get_or_build` outcomes.
HIT = "hit"
BUILT = "built"

#: Per-store counters (per process), in :meth:`CAStore.counters` order.
COUNTERS = (
    "hits",
    "misses",
    "corrupt",
    "writes",
    "builds",
    "claims",
    "waits",
    "wait_timeouts",
    "stale_breaks",
)

Decode = Optional[Callable[[Any], Any]]


def canonical_digest(*parts: Any) -> str:
    """SHA-256 over the canonical JSON of *parts* (sorted keys, no spaces)."""
    canon = json.dumps(list(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def atomic_write_text(path: Path, text: str) -> None:
    """Write *text* to *path* atomically (temp file in-dir + rename).

    A reader observes the old file or the complete new one, never a
    truncated one.  Raises ``OSError`` on filesystem failure; callers
    decide whether that disables persistence or propagates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CAStore:
    """Checksummed, write-once JSON entries under one root directory.

    Safe to share between threads and processes; the only shared state is
    the filesystem.  Counters are per instance.
    """

    def __init__(
        self,
        root: os.PathLike,
        format: str,
        *,
        stale_lock_seconds: float = 5.0,
        wait_timeout: float = 30.0,
        poll_interval: float = 0.005,
    ) -> None:
        self.root = Path(root)
        self.format = format
        self.stale_lock_seconds = stale_lock_seconds
        self.wait_timeout = wait_timeout
        self.poll_interval = poll_interval
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(COUNTERS, 0)

    def _incr(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    # -- paths ---------------------------------------------------------------

    def entry_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def lock_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.lock"

    # -- load/store ----------------------------------------------------------

    def load(self, digest: str, decode: Decode = None) -> Optional[Any]:
        """The verified (and decoded) payload for *digest*, or None."""
        path = self.entry_path(digest)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except OSError:
            self._incr("misses")
            return None
        except ValueError:
            return self._quarantine(path)
        try:
            if entry["format"] != self.format or entry["key"] != digest:
                raise ValueError("stale or misfiled entry")
            payload = entry["payload"]
            if entry["sha256"] != canonical_digest(self.format, digest, payload):
                raise ValueError("checksum mismatch")
            value = payload if decode is None else decode(payload)
        except (KeyError, TypeError, ValueError):
            return self._quarantine(path)
        self._incr("hits")
        return value

    def _quarantine(self, path: Path) -> None:
        """Drop a corrupt entry so the next writer rewrites it."""
        self._incr("corrupt")
        self._incr("misses")
        try:
            path.unlink()
        except OSError:
            pass

    def store(self, digest: str, payload: Any) -> bool:
        """Publish *payload* under *digest*; False if present or unwritable."""
        path = self.entry_path(digest)
        if path.exists():
            return False
        entry = {
            "format": self.format,
            "key": digest,
            "sha256": canonical_digest(self.format, digest, payload),
            "payload": payload,
        }
        try:
            atomic_write_text(path, json.dumps(entry, sort_keys=True))
        except OSError:
            return False
        self._incr("writes")
        return True

    # -- single flight -------------------------------------------------------

    def get_or_build(
        self,
        digest: str,
        build: Callable[[], Any],
        *,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Decode = None,
    ) -> Tuple[Any, str]:
        """``(value, HIT | BUILT)``, running ``build()`` once cluster-wide.

        ``encode`` turns a built value into its JSON payload and ``decode``
        turns a verified payload back (both default to identity).  A build
        failure propagates after the claim is released.
        """
        value = self.load(digest, decode)
        if value is not None:
            return value, HIT
        lock = self.lock_path(digest)
        outcome, value = fslock.claim_or_wait(
            lock,
            lambda: self.load(digest, decode),
            stale_lock_seconds=self.stale_lock_seconds,
            wait_timeout=self.wait_timeout,
            poll_interval=self.poll_interval,
            on_event=lambda event: self._incr(event + "s"),
        )
        if outcome == fslock.CACHED:
            return value, HIT
        try:
            value = build()
            self._incr("builds")
            self.store(digest, value if encode is None else encode(value))
        finally:
            if outcome == fslock.CLAIMED:
                fslock.release(lock)
        return value, BUILT

    # -- maintenance ---------------------------------------------------------

    def _entries(self) -> Iterator[Path]:
        if self.root.is_dir():
            yield from self.root.glob("*/*.json")

    def entry_count(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
