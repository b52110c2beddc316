"""Fault injection against the one content-addressed store (``repro.castore``).

Every rebuildable on-disk cache is an adapter over :class:`CAStore`: the
serving layer's generated-code cache, the pipeline's stage artifacts and the
derivation cache.  Each attack below runs against all three and must end in
a miss or in no persistence: nothing raises, and no tampered payload ever
reaches a decoder (and so never reaches ``compile()`` or a rule set).
"""

from __future__ import annotations

import json
import os

import pytest

from repro import castore
from repro.cache import MISS, DiskCache
from repro.dbt.compiler import BlockSource
from repro.pipeline.artifacts import ArtifactStore, artifact_digest
from repro.service import diskcode
from repro.service.diskcode import DiskCodeCache

TAG = "PAYLOAD-original"


class _CodeTarget:
    """DiskCodeCache: block source keyed by block start."""

    def __init__(self, root, monkeypatch):
        self.root = root
        self.cache = DiskCodeCache(root)
        self.seen = []
        seen = self.seen

        class _SpyBlockSource(BlockSource):
            @classmethod
            def from_payload(cls, payload):
                seen.append(payload["text"])
                return BlockSource.from_payload(payload)

        monkeypatch.setattr(diskcode, "BlockSource", _SpyBlockSource)

    def _digest(self, which):
        return self.cache.key("unit", "condition", which, "quick")

    def put(self, tag, which=0):
        self.cache.store(
            self._digest(which),
            BlockSource(text=tag, step_counts=(1,), host_counts=()),
        )

    def get(self, which=0):
        source = self.cache.load(self._digest(which))
        return None if source is None else source.text

    def path(self, which=0):
        return self.cache.entry_path(self._digest(which))

    def get_or_build(self, tag):
        return self.cache.get_or_build(
            self._digest(0),
            lambda: BlockSource(text=tag, step_counts=(1,), host_counts=()),
        ).text

    def corrupt_count(self):
        return self.cache.stats()["corrupt"]


class _ArtifactTarget:
    """ArtifactStore: one stage's artifacts keyed by input digest."""

    def __init__(self, root, monkeypatch):
        self.root = root
        self.store = ArtifactStore(root)
        self.seen = []

    def _digest(self, which):
        return artifact_digest("learn", which)

    def put(self, tag, which=0):
        self.store.store("learn", self._digest(which), {"tag": tag})

    def get(self, which=0):
        payload = self.store.load("learn", self._digest(which))
        if payload is None:
            return None
        self.seen.append(payload["tag"])
        return payload["tag"]

    def path(self, which=0):
        return self.store.entry_path("learn", self._digest(which))

    def get_or_build(self, tag):
        payload, _ = self.store.get_or_build(
            "learn", self._digest(0), lambda: {"tag": tag}
        )
        return payload["tag"]

    def corrupt_count(self):
        return self.store.stats()["corrupt"]


class _DeriveTarget:
    """DiskCache: derivation results keyed by (kind, parts)."""

    def __init__(self, root, monkeypatch):
        self.root = root
        self.cache = DiskCache(root)
        self.seen = []

    def _decode(self, value):
        self.seen.append(value["tag"])
        return value["tag"]

    def put(self, tag, which=0):
        self.cache.put("derive-rules", which, payload={"tag": tag}, elapsed=1.0)

    def get(self, which=0):
        value = self.cache.get("derive-rules", which, decode=self._decode)
        return None if value is MISS else value

    def path(self, which=0):
        return self.cache.entry_path("derive-rules", which)

    def get_or_build(self, tag):
        value = self.get()
        if value is None:
            self.put(tag)
            value = tag
        return value

    def corrupt_count(self):
        return self.cache._store.counters()["corrupt"]


@pytest.fixture(
    params=[_CodeTarget, _ArtifactTarget, _DeriveTarget],
    ids=["diskcode", "artifacts", "derive-cache"],
)
def make_target(request, monkeypatch):
    return lambda root: request.param(root, monkeypatch)


@pytest.fixture
def target(make_target, tmp_path):
    return make_target(tmp_path / "store")


def _assert_quarantined(target):
    assert target.get() is None
    assert not target.path().exists()  # deleted so the next writer rewrites it
    assert target.corrupt_count() == 1


class TestRoundtrip:
    def test_store_load_and_write_once(self, target):
        assert target.get() is None
        target.put(TAG)
        assert target.get() == TAG
        first = target.path().read_bytes()
        target.put("PAYLOAD-second")  # write-once: first writer's entry stays
        assert target.path().read_bytes() == first
        assert target.get() == TAG


class TestFaultInjection:
    def test_truncation(self, target):
        target.put(TAG)
        text = target.path().read_text()
        target.path().write_text(text[: len(text) // 2])
        _assert_quarantined(target)
        target.put("PAYLOAD-fresh")
        assert target.get() == "PAYLOAD-fresh"

    def test_payload_bit_flip(self, target):
        target.put(TAG)
        raw = bytearray(target.path().read_bytes())
        at = raw.index(TAG.encode())
        raw[at] ^= 0x20  # "P" -> "p": still valid JSON, different payload
        target.path().write_bytes(bytes(raw))
        _assert_quarantined(target)
        assert target.seen == []  # the flipped payload reached no decoder
        assert target.get_or_build("PAYLOAD-rebuilt") == "PAYLOAD-rebuilt"

    def test_misfiled_key(self, target):
        """An entry copied under another digest is rejected even though its
        own checksum is internally consistent."""
        target.put(TAG, which=0)
        target.path(1).parent.mkdir(parents=True, exist_ok=True)
        target.path(1).write_text(target.path(0).read_text())
        assert target.get(1) is None
        assert not target.path(1).exists()
        assert target.corrupt_count() == 1
        assert target.seen == []

    def test_stale_format_tag(self, target):
        target.put(TAG)
        entry = json.loads(target.path().read_text())
        entry["format"] = "some-older-format"
        target.path().write_text(json.dumps(entry))
        _assert_quarantined(target)
        assert target.seen == []

    def test_unwritable_root(self, make_target, tmp_path):
        # A root nested under a regular file: every mkdir/open fails with
        # ENOTDIR (robust even when the suite runs as root, where
        # permission-bit write denial doesn't apply).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        target = make_target(blocker / "store")
        target.put(TAG)  # no raise
        assert target.get() is None
        assert target.get_or_build("PAYLOAD-local") == "PAYLOAD-local"
        assert target.get() is None

    def test_failed_rename(self, target, monkeypatch):
        """``os.replace`` failing mid-publish leaves nothing behind."""

        def failing_replace(src, dst):
            raise OSError("injected rename failure")

        with monkeypatch.context() as patch:
            patch.setattr(castore.os, "replace", failing_replace)
            target.put(TAG)  # no raise
            assert target.get() is None
            assert target.get_or_build("PAYLOAD-local") == "PAYLOAD-local"
        assert target.get() is None
        leftovers = [name for _, _, files in os.walk(target.root) for name in files]
        assert leftovers == []  # no entry and no stray temp file
