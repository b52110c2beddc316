"""Versioned ruleset artifact store: bodies, manifests, latest pointer, GC.

Layout under one root directory::

    bodies/<sha256>.json      content-addressed ruleset bodies (checksummed,
                              write-once — same discipline as diskcode)
    versions/<version>.json   schema-versioned manifests: body sha256,
                              parent version, training label, stage
                              provenance digests, monotonic sequence number
    LATEST                    the current version id (atomic replace)
    publish.lock              fslock mutex serializing publishers

Versions are immutable once written; only ``LATEST`` moves.  A serving
process therefore never sees a half-written version: it reads ``LATEST``,
then the manifest, then the checksummed body — each of which was published
atomically before the pointer moved.  ``publish`` is idempotent: re-
publishing the body ``LATEST`` already points at returns the existing
version instead of minting a new one, which is what lets the pipeline's
publish stage rerun freely.  ``gc`` keeps the latest parent chain and
deletes unreferenced versions and orphaned bodies.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import fslock
from repro.castore import atomic_write_text
from repro.errors import ReproError
from repro.pipeline.manifest import body_digest, validate_body

#: Manifest format tag; bump on any incompatible manifest schema change.
MANIFEST_FORMAT = "repro-ruleset-manifest-v1"


@dataclass(frozen=True)
class PublishResult:
    """Outcome of one ``publish`` call."""

    version: str
    body_sha256: str
    parent: Optional[str]
    seq: int
    #: False when the body was already the latest version (idempotent hit).
    created: bool


class RulesetStore:
    """One directory of versioned ruleset artifacts with a latest pointer."""

    def __init__(
        self,
        root,
        stale_lock_seconds: float = 60.0,
        wait_timeout: float = 120.0,
        poll_interval: float = 0.05,
    ) -> None:
        self.root = Path(root)
        self.stale_lock_seconds = stale_lock_seconds
        self.wait_timeout = wait_timeout
        self.poll_interval = poll_interval

    # -- paths ---------------------------------------------------------------

    @property
    def bodies_dir(self) -> Path:
        return self.root / "bodies"

    @property
    def versions_dir(self) -> Path:
        return self.root / "versions"

    @property
    def latest_path(self) -> Path:
        return self.root / "LATEST"

    def body_path(self, sha: str) -> Path:
        return self.bodies_dir / f"{sha}.json"

    def manifest_path(self, version: str) -> Path:
        return self.versions_dir / f"{version}.json"

    # -- reads ---------------------------------------------------------------

    def latest_version(self) -> Optional[str]:
        """The current version id, or None on an empty/unborn store.

        A pointer naming a missing manifest (partial manual surgery) is
        treated as unborn rather than an error — serving falls back, it
        never crashes on a damaged store.
        """
        try:
            version = self.latest_path.read_text().strip()
        except OSError:
            return None
        if not version or not self.manifest_path(version).is_file():
            return None
        return version

    def read_manifest(self, version: str) -> Dict[str, Any]:
        path = self.manifest_path(version)
        try:
            with open(path) as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ReproError(f"ruleset version {version!r}: unreadable manifest ({exc})")
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != MANIFEST_FORMAT
            or manifest.get("version") != version
        ):
            raise ReproError(f"ruleset version {version!r}: malformed manifest")
        return manifest

    def load_body(self, sha: str) -> Dict[str, Any]:
        """A body by content address, digest-verified before it is trusted."""
        path = self.body_path(sha)
        try:
            with open(path) as handle:
                body = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ReproError(f"ruleset body {sha[:12]}: unreadable ({exc})")
        validate_body(body)
        if body_digest(body) != sha:
            raise ReproError(f"ruleset body {sha[:12]}: digest mismatch (corrupt)")
        return body

    def load_version(self, version: str) -> Dict[str, Any]:
        """Manifest + verified body for one version (body under ``"body"``)."""
        manifest = self.read_manifest(version)
        body = self.load_body(manifest["body_sha256"])
        return {**manifest, "body": body}

    def versions(self) -> List[Dict[str, Any]]:
        """All readable manifests, oldest first (by sequence number)."""
        if not self.versions_dir.is_dir():
            return []
        manifests = []
        for path in self.versions_dir.glob("*.json"):
            try:
                manifests.append(self.read_manifest(path.stem))
            except ReproError:
                continue
        return sorted(manifests, key=lambda m: (m.get("seq", 0), m["version"]))

    # -- publish -------------------------------------------------------------

    def publish(
        self,
        body: Dict[str, Any],
        *,
        provenance: Optional[Dict[str, str]] = None,
    ) -> PublishResult:
        """Publish *body* as a new version and move ``LATEST`` to it.

        Idempotent: when ``LATEST`` already points at this exact body the
        existing version is returned with ``created=False``.  Publishers
        are serialized by a store-wide fslock mutex, so concurrent
        pipelines can never mint the same sequence number twice.
        """
        validate_body(body)
        sha = body_digest(body)
        lock = self.root / "publish.lock"
        deadline = time.monotonic() + self.wait_timeout
        while not fslock.try_claim(lock):
            age = fslock.lock_age(lock)
            if age is not None and age > self.stale_lock_seconds:
                fslock.release(lock)
                continue
            if time.monotonic() > deadline:
                raise ReproError(f"timed out waiting for publish lock {lock}")
            time.sleep(self.poll_interval)
        try:
            return self._publish_locked(body, sha, provenance or {})
        finally:
            fslock.release(lock)

    def _publish_locked(
        self, body: Dict[str, Any], sha: str, provenance: Dict[str, str]
    ) -> PublishResult:
        latest = self.latest_version()
        seq = 0
        if latest is not None:
            manifest = self.read_manifest(latest)
            if manifest.get("body_sha256") == sha:
                return PublishResult(
                    version=latest,
                    body_sha256=sha,
                    parent=manifest.get("parent"),
                    seq=int(manifest.get("seq", 0)),
                    created=False,
                )
            seq = int(manifest.get("seq", 0)) + 1
        version = f"v{seq:06d}-{sha[:10]}"
        body_path = self.body_path(sha)
        if not body_path.exists():
            self.bodies_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(body_path, json.dumps(body, sort_keys=True))
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": version,
            "seq": seq,
            "parent": latest,
            "body_sha256": sha,
            "training": body.get("training"),
            "benchmarks": body.get("benchmarks", []),
            "provenance": dict(provenance),
            "created": time.time(),
        }
        self.versions_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.manifest_path(version), json.dumps(manifest, indent=2, sort_keys=True)
        )
        # The pointer moves last: a reader can never reach a version whose
        # manifest or body is not already durable.
        atomic_write_text(self.latest_path, version + "\n")
        return PublishResult(
            version=version, body_sha256=sha, parent=latest, seq=seq, created=True
        )

    # -- GC ------------------------------------------------------------------

    def gc(self, keep: int = 3) -> Dict[str, Any]:
        """Drop versions off the latest parent chain beyond *keep* links.

        Walks parents from ``LATEST`` keeping at most *keep* versions, then
        deletes every other manifest and any body no surviving manifest
        references.  Returns ``{"kept", "removed_versions",
        "removed_bodies"}``.
        """
        keep = max(1, keep)
        kept: List[str] = []
        version = self.latest_version()
        while version is not None and len(kept) < keep:
            kept.append(version)
            try:
                version = self.read_manifest(version).get("parent")
            except ReproError:
                break
        removed_versions = []
        for manifest in self.versions():
            if manifest["version"] in kept:
                continue
            try:
                self.manifest_path(manifest["version"]).unlink()
                removed_versions.append(manifest["version"])
            except OSError:
                pass
        referenced = set()
        for version in kept:
            try:
                referenced.add(self.read_manifest(version)["body_sha256"])
            except ReproError:
                continue
        removed_bodies = []
        if self.bodies_dir.is_dir():
            for path in self.bodies_dir.glob("*.json"):
                if path.stem in referenced:
                    continue
                try:
                    path.unlink()
                    removed_bodies.append(path.stem)
                except OSError:
                    pass
        return {
            "kept": kept,
            "removed_versions": removed_versions,
            "removed_bodies": removed_bodies,
        }

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        manifests = self.versions()
        return {
            "directory": str(self.root),
            "latest": self.latest_version(),
            "versions": len(manifests),
            "bodies": (
                sum(1 for _ in self.bodies_dir.glob("*.json"))
                if self.bodies_dir.is_dir()
                else 0
            ),
        }
