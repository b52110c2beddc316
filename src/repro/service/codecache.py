"""Single-flight shared code cache for compiled translated blocks.

The batch engine keeps a per-engine code cache; a serving process wants one
**shared** cache so a hot program's blocks are translated and compiled once
across all clients and requests.  Two properties matter under concurrency:

* **single flight** — when many requests need the same uncompiled block
  key at the same moment, exactly one compilation runs; the rest await its
  result (an :class:`asyncio.Future` per in-flight key, owned by the cache,
  so a caller that gives up never cancels it for the others).  The
  compile-work fan-in is visible in the ``coalesced`` counter and provable
  through :func:`repro.dbt.compiler.add_compile_listener`.
* **bounded memory** — the cache is an LRU over block keys with explicit
  eviction accounting, so a long-lived server scanning many programs
  cannot grow without limit.

Keys are ``(unit_digest, stage, block_start_index)`` tuples; values are the
engine's own :class:`~repro.dbt.engine.CodeCacheEntry` (translated block +
decoded defs + compiled body), so cache entries plug straight into a
pre-seeded :class:`~repro.dbt.engine.DBTEngine` code cache.

The map itself is guarded by a lock (reads come from asyncio handlers,
publishes may come from worker threads); the single-flight bookkeeping is
event-loop-confined (``get_or_compile`` must be awaited on the loop).
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

BlockKey = Tuple


class SingleFlightCodeCache:
    """LRU of block key -> CodeCacheEntry with single-flight compilation."""

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._data: "OrderedDict[BlockKey, Any]" = OrderedDict()
        self._inflight: Dict[BlockKey, "asyncio.Future"] = {}
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.coalesced = 0
        self.evictions = 0

    # -- synchronous map operations -----------------------------------------

    def get(self, key: BlockKey) -> Optional[Any]:
        """Cached entry for *key* (LRU-touch), or None."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return entry

    def publish(self, key: BlockKey, entry: Any) -> None:
        """Insert an entry, evicting least-recently-used keys past the bound."""
        with self._lock:
            self._data[key] = entry
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    # -- single-flight compile ----------------------------------------------

    async def get_or_compile(
        self, key: BlockKey, compile_fn: Callable[[], Any]
    ) -> Any:
        """The entry for *key*, compiling at most once per key concurrently.

        Must be awaited on the event loop.  ``compile_fn`` (a plain
        callable) runs in the loop's default executor so compilation never
        blocks request handling.  The cache owns the in-flight future, and
        every caller (the one that started the compile included) awaits it
        through :func:`asyncio.shield`: a caller cancelled by its request
        timeout leaves the compile running for everyone else, and the entry
        is published when the compile finishes, whoever is still waiting.
        """
        entry = self.get(key)
        if entry is not None:
            return entry
        # No awaits between the miss above and the in-flight registration
        # below: on one event loop this window is atomic.
        future = self._inflight.get(key)
        if future is None:
            future = asyncio.get_running_loop().run_in_executor(None, compile_fn)
            self._inflight[key] = future
            # Registered before any caller's shield, so the entry is
            # published before the first awaiter resumes.
            future.add_done_callback(partial(self._finish, key))
        else:
            self.coalesced += 1
        return await asyncio.shield(future)

    def _finish(self, key: BlockKey, future: "asyncio.Future") -> None:
        """Done callback of a compile: publish it, or let the key retry.

        A failed compile is not cached; the exception reaches every
        awaiter (reading it here also keeps an awaiter-less failure from
        warning "exception was never retrieved").
        """
        self._inflight.pop(key, None)
        if future.cancelled() or future.exception() is not None:
            return
        with self._lock:
            self.compiles += 1
        self.publish(key, future.result())

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
                "compiles": self.compiles,
                "coalesced": self.coalesced,
                "evictions": self.evictions,
                "inflight": len(self._inflight),
            }
