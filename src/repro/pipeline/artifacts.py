"""Content-addressed stage artifacts with single-flight build-or-wait.

Every pipeline stage (:mod:`repro.pipeline.stages`) persists its output as
one artifact keyed by a digest over the stage's *inputs* (upstream artifact
digests + parameters).  A rerun whose inputs are unchanged resolves to the
same digest and loads the artifact instead of rebuilding — the
bergamot-style "skip if the artifact exists" discipline — while any input
change shifts the digest and forces a rebuild of that stage and everything
downstream.

:class:`ArtifactStore` keeps one :class:`repro.castore.CAStore` per stage
directory (entry format, fault model and cross-process claim-or-wait live
there), so invalidating a stage is a directory clear.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.castore import BUILT, COUNTERS, HIT, CAStore, canonical_digest  # noqa: F401

#: Entry format tag; bump on any incompatible artifact schema change.
ARTIFACT_FORMAT = "repro-artifact-v1"


def artifact_digest(stage: str, *parts: Any) -> str:
    """Content digest for one stage invocation (inputs → key).

    ``parts`` are the stage's inputs: upstream artifact digests plus any
    parameters that change the output.  JSON-canonicalized so equal inputs
    digest identically across processes.
    """
    return canonical_digest(ARTIFACT_FORMAT, stage, list(parts))


class ArtifactStore:
    """Checksummed, write-once stage artifacts, one directory per stage.

    Counters are per-process; the pipeline surfaces them through
    ``repro pipeline status`` and the run report (CI asserts a second run
    is all hits).
    """

    def __init__(
        self,
        root,
        stale_lock_seconds: float = 30.0,
        wait_timeout: float = 600.0,
        poll_interval: float = 0.05,
    ) -> None:
        # Stage builds (learning, derivation, oracle verification) run
        # seconds-to-minutes, not milliseconds, hence the much longer
        # stale/wait budgets than the per-block disk code cache.
        self.root = Path(root)
        self.stale_lock_seconds = stale_lock_seconds
        self.wait_timeout = wait_timeout
        self.poll_interval = poll_interval
        self._stages: Dict[str, CAStore] = {}

    def _stage(self, stage: str) -> CAStore:
        store = self._stages.get(stage)
        if store is None:
            store = self._stages.setdefault(
                stage,
                CAStore(
                    self.root / stage,
                    ARTIFACT_FORMAT,
                    stale_lock_seconds=self.stale_lock_seconds,
                    wait_timeout=self.wait_timeout,
                    poll_interval=self.poll_interval,
                ),
            )
        return store

    def _stage_names(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    # -- entries -------------------------------------------------------------

    def entry_path(self, stage: str, digest: str) -> Path:
        return self._stage(stage).entry_path(digest)

    def lock_path(self, stage: str, digest: str) -> Path:
        return self._stage(stage).lock_path(digest)

    def load(self, stage: str, digest: str) -> Optional[Any]:
        """The stored payload for one stage invocation, or None."""
        return self._stage(stage).load(digest)

    def store(self, stage: str, digest: str, payload: Any) -> bool:
        """Publish a stage artifact; False if already present or unwritable."""
        return self._stage(stage).store(digest, payload)

    def get_or_build(
        self, stage: str, digest: str, build: Callable[[], Any]
    ) -> Tuple[Any, str]:
        """The stage's payload, building it exactly once cluster-wide.

        Returns ``(payload, outcome)`` with outcome :data:`HIT` (artifact
        existed, stage skipped — possibly after waiting on a concurrent
        builder) or :data:`BUILT` (``build()`` ran here).  Build failures
        propagate after the lock is released, so a crashed build never
        wedges other pipelines.
        """
        return self._stage(stage).get_or_build(digest, build)

    # -- maintenance / observability -----------------------------------------

    def invalidate(self, stage: Optional[str] = None) -> int:
        """Delete stored artifacts (one stage, or all); returns the count.

        Digest chaining means invalidating one stage forces a rebuild of it
        and every downstream stage on the next run.
        """
        names = [stage] if stage is not None else self._stage_names()
        return sum(self._stage(name).clear() for name in names)

    def entry_count(self) -> int:
        return sum(self._stage(name).entry_count() for name in self._stage_names())

    def stats(self) -> Dict[str, Any]:
        totals = dict.fromkeys(COUNTERS, 0)
        for store in list(self._stages.values()):
            for name, value in store.counters().items():
                totals[name] += value
        return {"directory": str(self.root), "entries": self.entry_count(), **totals}
