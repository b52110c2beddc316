"""Content-addressed on-disk cache + process-wide cache lifecycle.

Everything expensive in the pipeline — per-benchmark rule learning, symbolic
verification of derivation targets, whole rule-set derivation — is memoized
at two levels:

* an **in-memory** level (bounded :class:`BoundedMemo` instances and the
  ``lru_cache``-decorated helpers in :mod:`repro.experiments.common`), all
  registered with the lifecycle registry here so that
  :func:`clear_all_caches` resets every one of them in one call;
* an **on-disk** level (:class:`DiskCache`), content-addressed: the key of
  an entry is a SHA-256 digest over a *kind* tag, the
  :data:`PIPELINE_VERSION` stamp, and the JSON-serialized inputs (e.g. the
  learned rule-set dump and the guest-target string).  Entries therefore
  survive process boundaries and are shared between parallel workers, and
  any change to the derivation/verification semantics is invalidated by
  bumping the version stamp.

Disk entries are :mod:`repro.castore` entries (payloads reuse the
serialization in :mod:`repro.learning.store`), so a corrupted, tampered or
version-stale entry is quarantined and recomputed — never trusted, never an
error.

Observability: every level counts hits/misses (and derivations performed)
in the module-wide :data:`STATS`, surfaced by ``repro cache stats`` and in
per-experiment reports.  In-memory hits and misses are counted by each
memo under its own lock and summed into :data:`STATS` when it is read.
"""

from __future__ import annotations

import gc
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.castore import CAStore, canonical_digest
from repro.errors import ReproError

#: Bump whenever learning/derivation/verification semantics change: every
#: on-disk entry is stamped with this and a mismatch is a cache miss.
#: v2: hash-consed symir + comparison-op self-folds + checker restructure.
PIPELINE_VERSION = "mwl-cache-v2"

#: Sentinel distinguishing "cached None" from "not cached".
MISS = object()


# ---------------------------------------------------------------------------
# Statistics


@dataclass
class CacheStats:
    """Hit/miss/time counters for both cache levels (process-wide).

    Counters are mutated through :meth:`incr` under an internal lock: the
    serving layer (:mod:`repro.service`) runs translation and compilation
    on worker threads, so two threads bumping ``memo_hits`` concurrently
    must never lose an increment.
    """

    disk_hits: int = 0
    disk_misses: int = 0
    disk_writes: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    #: symbolic derivations actually performed (cache-miss work).
    derivations: int = 0
    #: wall-clock seconds of recorded compute skipped thanks to disk hits.
    seconds_saved: float = 0.0
    #: jit blocks bound into template form (``repro.dbt.compiler.bind_block``).
    jit_blocks_bound: int = 0
    #: template-form blocks compiled to inline code on their N-th execution.
    jit_tierups_count: int = 0
    #: ... or on their first execution in a later run of the same engine.
    jit_tierups_reuse: int = 0
    #: per-shape closure factories compiled (one per shape per process).
    jit_template_shapes: int = 0

    def __post_init__(self) -> None:
        # Not a dataclass field: asdict()/snapshot() must only see counters.
        self._lock = threading.Lock()

    def incr(self, **deltas: float) -> None:
        """Atomically add the given deltas to the named counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            return asdict(self)

    def snapshot(self) -> "CacheStats":
        return CacheStats(**self.as_dict())

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated after the *since* snapshot."""
        old = since.as_dict()
        return CacheStats(**{k: v - old[k] for k, v in self.as_dict().items()})

    def reset(self) -> None:
        fresh = CacheStats()
        with self._lock:
            for key in asdict(self):
                setattr(self, key, getattr(fresh, key))

    def summary(self) -> str:
        return (
            f"disk {self.disk_hits} hits / {self.disk_misses} misses, "
            f"memo {self.memo_hits} hits / {self.memo_misses} misses, "
            f"{self.derivations} derivations, "
            f"~{self.seconds_saved:.1f}s recompute avoided"
        )


#: Every memo registered with the lifecycle; their counters sum to the
#: process-wide memo hits and misses.
_LIFECYCLE_MEMOS: List["BoundedMemo"] = []


def _memo_totals() -> Tuple[int, int]:
    hits = misses = 0
    for memo in _LIFECYCLE_MEMOS:
        hits += memo.hits
        misses += memo.misses
    return hits, misses


def _memo_counter(index: int) -> property:
    """A counter read as the registered memos' total plus a stored offset,
    so setting it (``reset``, ``incr``) moves only the offset."""

    def get(self) -> int:
        return self.__dict__.get("_memo_offsets", [0, 0])[index] + _memo_totals()[index]

    def set(self, value: int) -> None:
        offsets = self.__dict__.setdefault("_memo_offsets", [0, 0])
        offsets[index] = value - _memo_totals()[index]

    return property(get, set)


class _ProcessStats(CacheStats):
    """:data:`STATS`: ``memo_hits``/``memo_misses`` are summed from the
    lifecycle-registered memos when read, because each memo counts its own
    lookups under its own lock (one lock per lookup, not two)."""

    memo_hits = _memo_counter(0)
    memo_misses = _memo_counter(1)


#: Process-wide counters (parallel workers keep their own copies).
STATS = _ProcessStats()


def reset_stats() -> None:
    STATS.reset()


# ---------------------------------------------------------------------------
# Cache lifecycle registry


_CLEARERS: List[Callable[[], None]] = []


def register_cache(clearer: Callable[[], None]) -> Callable[[], None]:
    """Register an in-memory cache's clear function with the lifecycle API.

    Returns the clearer so it can be used as a decorator-style one-liner.
    """
    _CLEARERS.append(clearer)
    return clearer


def clear_all_caches() -> None:
    """Reset every registered **in-memory** cache (disk entries persist).

    Long-lived processes call this to bound memory or to force recomputation
    after mutating global configuration; it replaces the ad-hoc module
    globals the caches grew out of.
    """
    for clearer in _CLEARERS:
        clearer()


# ---------------------------------------------------------------------------
# Bounded in-memory memo


#: Named memos, in registration order; ``repro cache stats`` walks this to
#: show per-memo hit/miss/size counters alongside the process-wide totals.
MEMO_REGISTRY: List["BoundedMemo"] = []


def memo_registry() -> List["BoundedMemo"]:
    """All :class:`BoundedMemo` instances created with a ``name``."""
    return list(MEMO_REGISTRY)


class BoundedMemo:
    """A small LRU dict for per-process memoization.

    Unlike a bare module-global dict it (a) has a bound, so long-lived
    processes cannot grow it without limit, (b) registers itself with
    :func:`clear_all_caches`, and (c) when given a ``name`` shows up with
    per-memo hit/miss/size counters in ``repro cache stats``.

    Thread-safe: lookups, inserts, eviction, and the hit/miss counters are
    all guarded by one lock, so concurrent hammering from service worker
    threads keeps ``hits + misses`` equal to the number of lookups and the
    LRU order consistent (no lost updates, no dict-resize races).  A
    registered memo's counters are part of the process-wide :data:`STATS`
    totals, summed when those are read.
    """

    def __init__(
        self, maxsize: int = 4096, register: bool = True, name: Optional[str] = None
    ) -> None:
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        if register:
            register_cache(self.clear)
            _LIFECYCLE_MEMOS.append(self)
        if name is not None:
            MEMO_REGISTRY.append(self)

    def get(self, key: Any, default: Any = MISS) -> Any:
        with self._lock:
            value = self._data.get(key, MISS)
            if value is MISS:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> Dict[str, Any]:
        """Observability payload for ``repro cache stats``."""
        with self._lock:
            return {
                "name": self.name or "<anonymous>",
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }


# ---------------------------------------------------------------------------
# On-disk cache


class DiskCache:
    """Derivation results as :class:`repro.castore.CAStore` entries.

    Keys are digests over ``(kind, PIPELINE_VERSION, parts)``; the store's
    format tag is :data:`PIPELINE_VERSION` too.  Each payload carries the
    ``elapsed`` compute seconds it saves (inside the checksum), and hits,
    misses and writes land in the process-wide :data:`STATS`.
    """

    def __init__(self, root: Optional[os.PathLike] = None, enabled: bool = True) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or (
                Path.home() / ".cache" / "repro-mwl"
            )
        self.root = Path(root)
        self.enabled = enabled and not os.environ.get("REPRO_CACHE_DISABLE")
        self._store = CAStore(self.root, PIPELINE_VERSION)

    @staticmethod
    def _key(kind: str, parts: Tuple[Any, ...]) -> str:
        return canonical_digest(kind, PIPELINE_VERSION, list(parts))

    def entry_path(self, kind: str, *parts: Any) -> Path:
        return self._store.entry_path(self._key(kind, parts))

    def get(
        self, kind: str, *parts: Any, decode: Optional[Callable[[Any], Any]] = None
    ) -> Any:
        """Payload for (kind, parts), decoded if *decode* is given, or :data:`MISS`.

        A missing, corrupted, or version-stale entry, or one *decode*
        rejects, is a miss; the caller recomputes (and re-puts).
        """
        if not self.enabled:
            return MISS

        def unwrap(entry: Dict[str, Any]) -> Tuple[float, Any]:
            value = entry["value"]
            if decode is not None:
                try:
                    value = decode(value)
                except ReproError as exc:  # e.g. a rule that no longer parses
                    raise ValueError(str(exc)) from exc
            return float(entry["elapsed"]), value

        found = self._store.load(self._key(kind, parts), unwrap)
        if found is None:
            STATS.incr(disk_misses=1)
            return MISS
        elapsed, value = found
        STATS.incr(disk_hits=1, seconds_saved=elapsed)
        return value

    def put(self, kind: str, *parts: Any, payload: Any, elapsed: float = 0.0) -> None:
        """Publish a JSON payload (write-once; an unwritable root is a no-op)."""
        if not self.enabled:
            return
        entry = {"elapsed": round(elapsed, 6), "value": payload}
        if self._store.store(self._key(kind, parts), entry):
            STATS.incr(disk_writes=1)

    def entry_count(self) -> int:
        return self._store.entry_count()

    def total_bytes(self) -> int:
        return self._store.total_bytes()

    def clear(self) -> int:
        """Delete all entries; returns how many were removed."""
        return self._store.clear()


_DISK: Optional[DiskCache] = None


def disk_cache() -> DiskCache:
    """The process-wide disk cache (created lazily from the environment)."""
    global _DISK
    if _DISK is None:
        _DISK = DiskCache()
    return _DISK


def reset_disk_cache(
    root: Optional[os.PathLike] = None, enabled: bool = True
) -> DiskCache:
    """Point the process-wide disk cache somewhere else (tests, CLI)."""
    global _DISK
    _DISK = DiskCache(root, enabled=enabled)
    return _DISK


# ---------------------------------------------------------------------------
# Shared observability serializer


def gc_stats() -> List[Dict[str, int]]:
    """The cyclic collector's counters, one dict per generation (0–2):
    ``collections``, ``collected`` and ``uncollectable`` since process start.

    Read from :func:`gc.get_stats`, so it costs nothing between calls; a
    growing generation-2 ``collections`` count is where full collections
    (and their pauses) land.
    """
    return [dict(stats) for stats in gc.get_stats()]


def stats_payload(include_disk: bool = True) -> Dict[str, Any]:
    """One JSON-serializable snapshot of every cache layer.

    The single serializer behind both ``repro cache stats --json`` and the
    service ``stats`` endpoint, so the two can never drift apart.  With
    ``include_disk=False`` the (filesystem-walking) disk entry census is
    skipped — the serving hot path asks for stats far more often than the
    CLI does.
    """
    from repro.dbt.trace import TRACE_STATS
    from repro.symir.expr import intern_table_size
    from repro.verify.shapeclass import cross_check_stats

    cache = disk_cache()
    cross_check = cross_check_stats()
    payload: Dict[str, Any] = {
        "directory": str(cache.root),
        "enabled": cache.enabled,
        "process": STATS.as_dict(),
        "interned_exprs": intern_table_size(),
        "memos": [memo.stats() for memo in memo_registry()],
        "trace_tier": TRACE_STATS.snapshot(),
        "gc": gc_stats(),
        "verify": {
            "cross_checked": cross_check["checked"],
            "cross_failed": cross_check["failed"],
        },
    }
    if include_disk:
        payload["disk_entries"] = cache.entry_count()
        payload["disk_bytes"] = cache.total_bytes()
    return payload
