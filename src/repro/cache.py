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

Disk entries are plain JSON (reusing the serialization in
:mod:`repro.learning.store`), written atomically (temp file + rename) so a
crashed or concurrent writer can never leave a truncated entry behind.  A
corrupted or version-stale entry is treated as a miss and recomputed — never
an error.

Observability: every level counts hits/misses (and derivations performed)
in the module-wide :data:`STATS`, surfaced by ``repro cache stats`` and in
per-experiment reports.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

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


#: Process-wide counters (parallel workers keep their own copies).
STATS = CacheStats()


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
    LRU order consistent (no lost updates, no dict-resize races).
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
        if name is not None:
            MEMO_REGISTRY.append(self)

    def get(self, key: Any, default: Any = MISS) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                STATS.incr(memo_misses=1)
                return default
            self._data.move_to_end(key)
            self.hits += 1
        STATS.incr(memo_hits=1)
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


def atomic_write_text(path: Path, text: str) -> None:
    """Write *text* to *path* atomically (temp file in-dir + rename).

    The one atomic-publish discipline shared by every on-disk cache in the
    repo (the derivation :class:`DiskCache` here and the serving layer's
    :mod:`repro.service.diskcode`): a reader can observe the old entry or
    the complete new entry, never a truncated one, no matter how many
    processes write concurrently or crash mid-write.  Raises ``OSError``
    on filesystem failure; callers decide whether that disables
    persistence or propagates.
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


def digest_key(kind: str, *parts: Any) -> str:
    """Content digest of a cache key: kind + version stamp + JSON'd parts."""
    payload = json.dumps(
        [kind, PIPELINE_VERSION, list(parts)], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class DiskCache:
    """Content-addressed JSON entry store under one root directory."""

    def __init__(self, root: Optional[os.PathLike] = None, enabled: bool = True) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or (
                Path.home() / ".cache" / "repro-mwl"
            )
        self.root = Path(root)
        self.enabled = enabled and not os.environ.get("REPRO_CACHE_DISABLE")

    # -- key/path helpers ---------------------------------------------------

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest[:2]}" / f"{digest}.json"

    # -- entry API ----------------------------------------------------------

    def get(self, kind: str, *parts: Any) -> Any:
        """Payload for (kind, parts), or :data:`MISS`.

        A missing, corrupted, or version-stale entry is a miss; the caller
        recomputes (and re-puts) — corruption is never an error.
        """
        if not self.enabled:
            return MISS
        path = self._path(digest_key(kind, *parts))
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            STATS.incr(disk_misses=1)
            return MISS
        if (
            not isinstance(entry, dict)
            or entry.get("version") != PIPELINE_VERSION
            or entry.get("kind") != kind
            or "payload" not in entry
        ):
            STATS.incr(disk_misses=1)
            return MISS
        STATS.incr(disk_hits=1, seconds_saved=float(entry.get("elapsed") or 0.0))
        return entry["payload"]

    def put(self, kind: str, *parts: Any, payload: Any, elapsed: float = 0.0) -> None:
        """Store a JSON payload atomically (temp file + rename)."""
        if not self.enabled:
            return
        path = self._path(digest_key(kind, *parts))
        entry = {
            "version": PIPELINE_VERSION,
            "kind": kind,
            "elapsed": round(elapsed, 6),
            "payload": payload,
        }
        try:
            atomic_write_text(path, json.dumps(entry))
        except OSError:
            return  # a read-only or full cache dir disables persistence only
        STATS.incr(disk_writes=1)

    # -- maintenance --------------------------------------------------------

    def _entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        yield from self.root.glob("*/*.json")

    def entry_count(self) -> int:
        return sum(1 for _ in self._entries())

    def total_bytes(self) -> int:
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete all entries; returns how many were removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


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

    cache = disk_cache()
    payload: Dict[str, Any] = {
        "directory": str(cache.root),
        "enabled": cache.enabled,
        "process": STATS.as_dict(),
        "interned_exprs": intern_table_size(),
        "memos": [memo.stats() for memo in memo_registry()],
        "trace_tier": TRACE_STATS.snapshot(),
    }
    if include_disk:
        payload["disk_entries"] = cache.entry_count()
        payload["disk_bytes"] = cache.total_bytes()
    return payload
