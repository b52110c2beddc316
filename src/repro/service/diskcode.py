"""Cross-process shared code cache: generated block source on disk.

The in-memory :class:`~repro.service.codecache.SingleFlightCodeCache`
coalesces concurrent compilations *within* one serving process.  A pre-fork
worker pool (:mod:`repro.service.pool`) needs the same property *across*
processes: when N freshly-forked workers take a cold-start stampede for the
same program, the block codegen should happen once, cluster-wide, and every
other worker should get a warm source-level hit.

Two mechanisms, both built on plain files so they survive any worker dying
at any point:

* **content-addressed entries** — :func:`generate_block_source` output is
  persisted as JSON keyed by a SHA-256 digest over ``(unit digest, stage,
  block start, training corpus, pipeline version, codegen version)``.
  Entries are published with the repo-wide atomic-rename discipline
  (:func:`repro.cache.atomic_write_text`) and carry a SHA-256 checksum over
  their own payload: a truncated, bit-flipped, or hand-edited entry fails
  verification and is treated as a **miss** (deleted and rewritten), never
  executed.
* **lockfile claim-or-wait** — a worker that misses tries to create
  ``<digest>.lock`` with ``O_CREAT | O_EXCL`` (atomic on every POSIX
  filesystem).  The winner generates and publishes; losers poll for the
  entry to appear instead of generating again.  A lock whose holder died
  (no entry appears and the lockfile outlives ``stale_lock_seconds``) is
  broken and re-claimed, so a SIGKILL'd claimant can never deadlock the
  pool; and a waiter that exhausts ``wait_timeout`` falls back to
  generating locally — duplicated work, never a stall.  The protocol
  itself lives in :mod:`repro.fslock` (it is shared with the pipeline
  artifact store); this class binds it to digest-addressed paths and
  per-process counters.

Workers recompile cached source locally with
:func:`repro.dbt.compiler.compile_block_source` — only ``compile()`` of
already-generated text, no codegen, no compile-listener fire — which is
what the stampede tests count to prove single-flight held.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro import fslock
from repro.cache import PIPELINE_VERSION, atomic_write_text
from repro.dbt.compiler import BLOCK_CODEGEN_VERSION, BlockSource
from repro.dbt.trace import TRACE_CODEGEN_VERSION, TraceSource

#: Bump when the generated-code shape changes incompatibly (new run
#: calling convention, different namespace contract): stale entries from
#: an older build become misses instead of being executed.
DISKCODE_VERSION = "diskcode-v1"

#: Claim outcomes returned by :meth:`DiskCodeCache.claim_or_wait`
#: (re-exported from :mod:`repro.fslock`, where the protocol lives).
CLAIMED = fslock.CLAIMED
CACHED = fslock.CACHED
TIMEOUT = fslock.TIMEOUT


def _payload_checksum(key: str, payload: Dict[str, Any]) -> str:
    """Checksum binding an entry's payload to its key and format version."""
    canon = json.dumps(
        [DISKCODE_VERSION, key, payload], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class DiskCodeCache:
    """Content-addressed generated-source store with lockfile single-flight.

    All methods are safe to call from executor threads and from many
    processes at once; the only shared state is the filesystem.  Counters
    are per-process (each pool worker reports its own through the stats
    endpoint; the pool aggregates).
    """

    def __init__(
        self,
        root: os.PathLike,
        stale_lock_seconds: float = 5.0,
        wait_timeout: float = 30.0,
        poll_interval: float = 0.005,
    ) -> None:
        self.root = Path(root)
        self.stale_lock_seconds = stale_lock_seconds
        self.wait_timeout = wait_timeout
        self.poll_interval = poll_interval
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self.generations = 0  # codegen performed by this process
        self.claims = 0
        self.waits = 0  # claim lost; waited on another process's codegen
        self.wait_timeouts = 0
        self.stale_breaks = 0

    def _incr(self, name: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + delta)

    # -- keys and paths ------------------------------------------------------

    def key(self, unit_digest: str, stage: str, start: int, training: str) -> str:
        """Content digest identifying one block's generated source.

        The block codegen version is mixed in, so a codegen change turns
        every entry an older build wrote into a miss.
        """
        canon = json.dumps(
            [
                DISKCODE_VERSION,
                PIPELINE_VERSION,
                BLOCK_CODEGEN_VERSION,
                unit_digest,
                stage,
                start,
                training,
            ],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def trace_key(
        self,
        unit_digest: str,
        stage: str,
        block_starts: Tuple[int, ...],
        training: str,
    ) -> str:
        """Content digest for one superblock's generated trace source.

        Traces are content-addressed exactly like blocks, with the
        constituent block-start tuple standing in for the single start and
        the trace codegen version mixed in so a trace-calling-convention
        change can never resurrect stale entries.
        """
        canon = json.dumps(
            [
                DISKCODE_VERSION,
                PIPELINE_VERSION,
                TRACE_CODEGEN_VERSION,
                unit_digest,
                stage,
                list(block_starts),
                training,
            ],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def entry_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def lock_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.lock"

    # -- entry load/store ----------------------------------------------------

    def load(self, digest: str) -> Optional[BlockSource]:
        """The cached block source for *digest*, or None.

        A malformed, truncated, checksum-mismatched, or version-stale
        entry is deleted (so the next writer rewrites it) and reported as
        a miss — corrupted source text must never reach ``compile()``.
        """
        return self._load_entry(digest, BlockSource.from_payload)

    def load_trace(self, digest: str) -> Optional[TraceSource]:
        """The cached trace source for *digest*, or None (same discipline)."""
        return self._load_entry(digest, TraceSource.from_payload)

    def _load_entry(self, digest: str, from_payload):
        path = self.entry_path(digest)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self._incr("misses")
            return None
        except (OSError, ValueError):
            self._quarantine(path)
            return None
        try:
            if entry["format"] != DISKCODE_VERSION or entry["key"] != digest:
                raise ValueError("stale or misfiled entry")
            payload = entry["payload"]
            if entry["sha256"] != _payload_checksum(digest, payload):
                raise ValueError("checksum mismatch")
            source = from_payload(payload)
        except (KeyError, TypeError, ValueError):
            self._quarantine(path)
            return None
        self._incr("hits")
        return source

    def _quarantine(self, path: Path) -> None:
        """Drop a corrupt entry so it is rewritten; count it as a miss."""
        self._incr("corrupt")
        self._incr("misses")
        try:
            path.unlink()
        except OSError:
            pass

    def store(self, digest: str, source) -> bool:
        """Publish generated source atomically; False if already present.

        ``source`` is any payload-bearing codegen product (``BlockSource``
        or ``TraceSource`` — both round-trip through ``to_payload()``).
        The present-check makes the stampede accounting exact: with the
        claim protocol honoured only one process writes, and even a
        fallback writer (post-timeout) will not clobber a published entry.
        """
        path = self.entry_path(digest)
        if path.exists():
            return False
        payload = source.to_payload()
        entry = {
            "format": DISKCODE_VERSION,
            "key": digest,
            "sha256": _payload_checksum(digest, payload),
            "payload": payload,
        }
        try:
            atomic_write_text(path, json.dumps(entry, sort_keys=True))
        except OSError:
            return False  # read-only/full cache dir disables persistence only
        self._incr("writes")
        return True

    # -- cross-process single-flight (protocol in repro.fslock) --------------

    def _try_claim(self, digest: str) -> bool:
        return fslock.try_claim(self.lock_path(digest))

    def release(self, digest: str) -> None:
        fslock.release(self.lock_path(digest))

    def _lock_age(self, digest: str) -> Optional[float]:
        return fslock.lock_age(self.lock_path(digest))

    def _note_claim_event(self, event: str) -> None:
        # fslock event names map 1:1 onto this cache's counter names.
        self._incr(event + "s")

    def claim_or_wait(
        self, digest: str
    ) -> Tuple[str, Optional[BlockSource]]:
        """Claim the right to generate *digest*, or wait for whoever did.

        Returns one of::

            (CLAIMED, None)     -- caller must generate, store, and release
            (CACHED, source)    -- another process published; use it
            (TIMEOUT, None)     -- waited too long; generate locally,
                                   do NOT release (the lock isn't ours)

        Never raises and never blocks longer than ``wait_timeout``: a
        claimant that died pre-publish is detected through lock age and
        its lock broken (``stale_breaks``), and a wait that still
        exhausts the budget degrades to duplicated local work.
        """
        return fslock.claim_or_wait(
            self.lock_path(digest),
            lambda: self.load(digest),
            stale_lock_seconds=self.stale_lock_seconds,
            wait_timeout=self.wait_timeout,
            poll_interval=self.poll_interval,
            on_event=self._note_claim_event,
        )

    # -- maintenance / observability -----------------------------------------

    def entry_count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "directory": str(self.root),
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "writes": self.writes,
                "generations": self.generations,
                "claims": self.claims,
                "waits": self.waits,
                "wait_timeouts": self.wait_timeouts,
                "stale_breaks": self.stale_breaks,
            }


class TraceSourceDiskAdapter:
    """Binds a :class:`DiskCodeCache` to one (unit, stage, training) so the
    engine's ``trace_source_cache`` protocol — ``get(block_starts)`` /
    ``put(block_starts, source)`` — resolves to content-addressed disk
    entries.  Trace formation is rare (a few per hot program) and already
    off the hot path, so plain load/store without the claim protocol is
    enough: a cross-process race costs one duplicated codegen, and
    ``store``'s present-check keeps the published entry stable.
    """

    __slots__ = ("disk", "unit_digest", "stage", "training")

    def __init__(
        self, disk: DiskCodeCache, unit_digest: str, stage: str, training: str
    ) -> None:
        self.disk = disk
        self.unit_digest = unit_digest
        self.stage = stage
        self.training = training

    def _key(self, block_starts: Tuple[int, ...]) -> str:
        return self.disk.trace_key(
            self.unit_digest, self.stage, tuple(block_starts), self.training
        )

    def get(self, block_starts: Tuple[int, ...]) -> Optional[TraceSource]:
        return self.disk.load_trace(self._key(block_starts))

    def put(self, block_starts: Tuple[int, ...], source: TraceSource) -> None:
        self.disk.store(self._key(block_starts), source)
