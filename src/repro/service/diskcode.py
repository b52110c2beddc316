"""Cross-process shared code cache: generated block source on disk.

The in-memory :class:`~repro.service.codecache.SingleFlightCodeCache`
coalesces concurrent compilations *within* one serving process.  A pre-fork
worker pool (:mod:`repro.service.pool`) needs the same property *across*
processes: when N freshly-forked workers take a cold-start stampede for the
same program, the block codegen should happen once, cluster-wide, and every
other worker should get a warm source-level hit.

:class:`DiskCodeCache` is a typed adapter over :class:`repro.castore.CAStore`
(entry format, fault model and claim-or-wait live there): it keys
:func:`generate_block_source` output by ``(unit digest, stage, block start,
training corpus, pipeline version, codegen version)`` and decodes entries
back into :class:`BlockSource`, whose payload check rejects a malformed
entry before it can reach ``compile()``.  Only block source is stored:
the service runs the jit backend, which forms no traces.

Workers recompile cached source locally with
:func:`repro.dbt.compiler.compile_block_source` — only ``compile()`` of
already-generated text, no codegen, no compile-listener fire — which is
what the stampede tests count to prove single-flight held.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro import fslock
from repro.cache import PIPELINE_VERSION
from repro.castore import CAStore, canonical_digest
from repro.dbt.compiler import BLOCK_CODEGEN_VERSION, BlockSource

#: Bump when the generated-code shape changes incompatibly (new run
#: calling convention, different namespace contract): stale entries from
#: an older build become misses instead of being executed.
DISKCODE_VERSION = "diskcode-v1"

#: Claim outcomes returned by :meth:`DiskCodeCache.claim_or_wait`
#: (re-exported from :mod:`repro.fslock`, where the protocol lives).
CLAIMED = fslock.CLAIMED
CACHED = fslock.CACHED
TIMEOUT = fslock.TIMEOUT


class DiskCodeCache:
    """Content-addressed generated-source store with lockfile single-flight.

    Safe to call from executor threads and from many processes at once.
    Counters are per-process (each pool worker reports its own through the
    stats endpoint; the pool aggregates).
    """

    def __init__(
        self,
        root: os.PathLike,
        stale_lock_seconds: float = 5.0,
        wait_timeout: float = 30.0,
        poll_interval: float = 0.005,
    ) -> None:
        self.root = Path(root)
        self._store = CAStore(
            root,
            DISKCODE_VERSION,
            stale_lock_seconds=stale_lock_seconds,
            wait_timeout=wait_timeout,
            poll_interval=poll_interval,
        )

    # -- keys and paths ------------------------------------------------------

    def key(self, unit_digest: str, stage: str, start: int, training: str) -> str:
        """Content digest identifying one block's generated source.

        The block codegen version is mixed in, so a codegen change turns
        every entry an older build wrote into a miss.
        """
        return canonical_digest(
            DISKCODE_VERSION,
            PIPELINE_VERSION,
            BLOCK_CODEGEN_VERSION,
            unit_digest,
            stage,
            start,
            training,
        )

    def entry_path(self, digest: str) -> Path:
        return self._store.entry_path(digest)

    def lock_path(self, digest: str) -> Path:
        return self._store.lock_path(digest)

    # -- entries -------------------------------------------------------------

    def load(self, digest: str) -> Optional[BlockSource]:
        """The cached block source for *digest*, or None."""
        return self._store.load(digest, BlockSource.from_payload)

    def store(self, digest: str, source: BlockSource) -> bool:
        """Publish generated block source; False if already present or
        unwritable."""
        return self._store.store(digest, source.to_payload())

    def get_or_build(
        self, digest: str, generate: Callable[[], BlockSource]
    ) -> BlockSource:
        """The block source for *digest*, generated once cluster-wide."""
        source, _ = self._store.get_or_build(
            digest,
            generate,
            encode=BlockSource.to_payload,
            decode=BlockSource.from_payload,
        )
        return source

    def claim_or_wait(self, digest: str) -> Tuple[str, Optional[BlockSource]]:
        """:func:`repro.fslock.claim_or_wait` on one block's entry: returns
        ``(CLAIMED, None)``, ``(CACHED, source)`` or ``(TIMEOUT, None)``."""
        return self._store.claim_or_wait(digest, BlockSource.from_payload)

    def release(self, digest: str) -> None:
        self._store.release(digest)

    # -- maintenance / observability -----------------------------------------

    def entry_count(self) -> int:
        return self._store.entry_count()

    def stats(self) -> Dict[str, Any]:
        counters = self._store.counters()
        # codegen performed by this process
        counters["generations"] = counters.pop("builds")
        return {"directory": str(self.root), **counters}
