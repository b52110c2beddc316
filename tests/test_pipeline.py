"""The continuous-learning pipeline (``repro.pipeline``).

Covers the content-addressed artifact store (checksummed write-once
entries, corruption quarantine, single-flight build-or-wait), the
versioned ruleset store (publish idempotence, parent chain, latest
pointer, tamper detection, GC), body↔config reconstruction parity with the
derivation engine, and the staged pipeline itself: a second run is
artifact hits across the board, and invalidating one stage rebuilds
exactly that stage and its downstream suffix.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ReproError
from repro.pipeline import (
    ArtifactStore,
    Pipeline,
    PipelineConfig,
    RulesetStore,
    artifact_digest,
    body_digest,
    body_from_setup,
    serving_ruleset_from_body,
    serving_ruleset_from_setup,
)
from repro.pipeline.artifacts import BUILT, HIT


@pytest.fixture(scope="module")
def quick_setup():
    from repro.difftest.oracle import training_setup

    return training_setup()


@pytest.fixture(scope="module")
def quick_body(quick_setup):
    return body_from_setup(
        quick_setup, training="quick", benchmarks=("mcf", "libquantum")
    )


# ---------------------------------------------------------------------------
# artifact store


class TestArtifactStore:
    def test_digest_is_stable_and_input_sensitive(self):
        a = artifact_digest("learn", "abc", 3)
        assert a == artifact_digest("learn", "abc", 3)
        assert a != artifact_digest("learn", "abc", 4)
        assert a != artifact_digest("derive", "abc", 3)

    def test_build_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = artifact_digest("learn", "x")
        calls = []

        def build():
            calls.append(1)
            return {"rules": [1, 2]}

        payload, outcome = store.get_or_build("learn", digest, build)
        assert (payload, outcome) == ({"rules": [1, 2]}, BUILT)
        payload, outcome = store.get_or_build("learn", digest, build)
        assert (payload, outcome) == ({"rules": [1, 2]}, HIT)
        assert len(calls) == 1
        stats = store.stats()
        assert stats["builds"] == 1 and stats["hits"] == 1

    def test_concurrent_builders_single_flight(self, tmp_path):
        store = ArtifactStore(tmp_path, poll_interval=0.002)
        digest = artifact_digest("learn", "x")
        builds = []
        barrier = threading.Barrier(4)
        outcomes = []

        def build():
            builds.append(1)
            return {"v": 1}

        def worker():
            barrier.wait()
            payload, outcome = store.get_or_build("learn", digest, build)
            assert payload == {"v": 1}
            outcomes.append(outcome)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert sorted(outcomes) == [BUILT, HIT, HIT, HIT]

    def test_invalidate_by_stage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.get_or_build("learn", artifact_digest("learn", 1), lambda: 1)
        store.get_or_build("derive", artifact_digest("derive", 1), lambda: 2)
        assert store.entry_count() == 2
        assert store.invalidate("learn") == 1
        assert store.entry_count() == 1
        assert store.invalidate() == 1
        assert store.entry_count() == 0


# ---------------------------------------------------------------------------
# ruleset store


def _tiny_body(tag: str) -> dict:
    """A minimal schema-valid body (no rules) for store-mechanics tests."""
    return {
        "format": "repro-ruleset-v1",
        "training": "quick",
        "benchmarks": [tag],
        "counts": {},
        "learned": [],
        "derived": [],
        "sequence": [],
    }


class TestRulesetStore:
    def test_publish_moves_latest_and_chains_parents(self, tmp_path):
        store = RulesetStore(tmp_path)
        assert store.latest_version() is None
        first = store.publish(_tiny_body("a"), provenance={"learn": "d1"})
        assert first.created and first.seq == 0 and first.parent is None
        assert store.latest_version() == first.version

        second = store.publish(_tiny_body("b"))
        assert second.created and second.seq == 1
        assert second.parent == first.version
        assert store.latest_version() == second.version
        manifest = store.read_manifest(first.version)
        assert manifest["provenance"] == {"learn": "d1"}

    def test_publish_is_idempotent_on_latest_body(self, tmp_path):
        store = RulesetStore(tmp_path)
        first = store.publish(_tiny_body("a"))
        again = store.publish(_tiny_body("a"))
        assert again.created is False
        assert again.version == first.version
        assert len(store.versions()) == 1

    def test_tampered_body_is_rejected(self, tmp_path):
        store = RulesetStore(tmp_path)
        result = store.publish(_tiny_body("a"))
        path = store.body_path(result.body_sha256)
        body = json.loads(path.read_text())
        body["benchmarks"] = ["evil"]
        path.write_text(json.dumps(body, sort_keys=True))
        with pytest.raises(ReproError, match="digest mismatch"):
            store.load_version(result.version)

    def test_damaged_latest_pointer_reads_as_unborn(self, tmp_path):
        store = RulesetStore(tmp_path)
        store.publish(_tiny_body("a"))
        store.latest_path.write_text("v999999-nonexistent\n")
        assert store.latest_version() is None

    def test_gc_keeps_latest_chain(self, tmp_path):
        store = RulesetStore(tmp_path)
        versions = [store.publish(_tiny_body(tag)).version for tag in "abcde"]
        swept = store.gc(keep=2)
        assert swept["kept"] == [versions[4], versions[3]]
        assert sorted(swept["removed_versions"]) == sorted(versions[:3])
        # kept versions still load; GC'd ones are gone
        assert store.load_version(versions[4])["body"]["benchmarks"] == ["e"]
        with pytest.raises(ReproError):
            store.load_version(versions[0])
        assert store.stats()["bodies"] == 2


# ---------------------------------------------------------------------------
# body <-> serving-config reconstruction


class TestManifestReconstruction:
    def test_body_digest_is_canonical(self, quick_body):
        reordered = dict(reversed(list(quick_body.items())))
        assert body_digest(reordered) == body_digest(quick_body)

    def test_reconstruction_translation_parity(self, quick_setup, quick_body):
        """Configs rebuilt from the body translate byte-identically to the
        derivation engine's own configs, on every rule-bearing stage."""
        from repro.dbt.block import BlockMap
        from repro.dbt.translator import BlockTranslator
        from repro.workloads import compiled_benchmark

        ruleset = serving_ruleset_from_body(quick_body, version="candidate")
        assert ruleset.rule_counts["learned"] == len(quick_setup.learned)
        unit = compiled_benchmark("mcf").guest
        for stage in ("wopara", "opcode", "addrmode", "condition", "seqparam"):
            theirs = quick_setup.configs[stage]
            ours = ruleset.config_for(stage)
            assert len(ours.rules) == len(theirs.rules)
            blockmap = BlockMap(unit)
            reference = BlockTranslator(unit, blockmap, theirs)
            rebuilt = BlockTranslator(unit, BlockMap(unit), ours)
            for block in blockmap.blocks:
                a = reference.translate(block)
                b = rebuilt.translate(block)
                assert [str(i) for i in a.host] == [str(i) for i in b.host]
                assert a.covered == b.covered

    def test_builtin_wrapper_identity(self, quick_setup):
        ruleset = serving_ruleset_from_setup(quick_setup, training="quick")
        assert ruleset.version == "builtin:quick"
        assert ruleset.source == "builtin"
        identity = ruleset.identity()
        assert identity["rules"]["serving"] == len(
            quick_setup.configs["condition"].rules
        )

    def test_unknown_stage_raises(self, quick_body):
        ruleset = serving_ruleset_from_body(quick_body, version="v")
        with pytest.raises(ReproError):
            ruleset.config_for("nope")


# ---------------------------------------------------------------------------
# the staged pipeline end to end


class TestPipelineRuns:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        return Pipeline(
            PipelineConfig(
                workdir=str(tmp_path / "work"),
                benchmarks=("mcf",),
                verify_programs=2,
            )
        )

    def test_second_run_hits_every_stage(self, pipeline):
        first = pipeline.run()
        assert first["ok"] and not first["all_hits"]
        assert [s["outcome"] for s in first["stages"]] == ["built"] * 5
        assert first["ruleset"]["version"].startswith("v000000-")

        second = pipeline.run()
        assert second["all_hits"]
        assert [s["outcome"] for s in second["stages"]] == ["hit"] * 5
        # identical inputs -> identical digests -> same published version
        assert second["ruleset"]["version"] == first["ruleset"]["version"]
        assert [s["digest"] for s in second["stages"]] == [
            s["digest"] for s in first["stages"]
        ]
        status = pipeline.status()
        assert status["latest"] == first["ruleset"]["version"]
        assert status["last_run"]["all_hits"]

    def test_invalidate_rebuilds_exact_suffix(self, pipeline):
        pipeline.run()
        assert pipeline.invalidate("verify") == 1
        report = pipeline.run()
        outcomes = {s["name"]: s["outcome"] for s in report["stages"]}
        # verify rebuilds; publish is keyed by upstream digests (unchanged)
        # so it stays a hit — everything upstream untouched.
        assert outcomes == {
            "corpus": "hit",
            "learn": "hit",
            "derive": "hit",
            "verify": "built",
            "publish": "hit",
        }

    def test_corpus_change_rebuilds_downstream(self, tmp_path, pipeline):
        pipeline.run()
        wider = Pipeline(
            PipelineConfig(
                workdir=pipeline.config.workdir,
                benchmarks=("mcf", "libquantum"),
                verify_programs=2,
            )
        )
        report = wider.run()
        assert [s["outcome"] for s in report["stages"]] == ["built"] * 5
        # the new corpus publishes a child version of the first run's
        second = report["ruleset"]["version"]
        manifest = wider.store.read_manifest(second)
        assert manifest["parent"] is not None
        assert manifest["seq"] == 1

    def test_unknown_invalidate_stage_rejected(self, pipeline):
        with pytest.raises(ReproError):
            pipeline.invalidate("nonsense")

    def test_published_version_round_trips_to_serving_configs(self, pipeline):
        report = pipeline.run()
        loaded = pipeline.store.load_version(report["ruleset"]["version"])
        ruleset = serving_ruleset_from_body(
            loaded["body"],
            version=loaded["version"],
            digest=loaded["body_sha256"],
        )
        assert ruleset.config_for("condition").rules is not None
        assert ruleset.rule_counts["serving"] > 0
