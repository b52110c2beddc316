"""The staged continuous-learning pipeline: corpus → learn → derive → verify → publish.

Each stage's inputs are digested (upstream artifact digests + parameters)
and its output persisted through :class:`~repro.pipeline.artifacts
.ArtifactStore`, so a rerun with unchanged inputs skips straight through on
artifact hits and any input change rebuilds exactly the affected suffix of
the chain:

* **corpus** — compile the training workload and fingerprint every
  guest/host pair; the fingerprints are what chain into everything
  downstream, so touching a workload generator reruns the world.
* **learn** — leave-nothing-out rule learning over the corpus
  (:func:`repro.experiments.common.rules_from`, itself memory+disk cached).
* **derive** — parameterized derivation (opcode/addr-mode) plus sequence
  rules, serialized in index order.
* **verify** — rebuild the serving configs from the candidate body exactly
  as a server would (:func:`serving_ruleset_from_body`) and differentially
  execute corpus + seeded fuzzed programs against the reference interpreter
  (:mod:`repro.verify.acceptance`); any divergence fails the run before
  anything is published.
* **publish** — assemble the ruleset body and publish it to the versioned
  :class:`~repro.pipeline.store.RulesetStore` (idempotent; moves
  ``LATEST``), recording stage provenance digests in the manifest.

The run report (also persisted as ``<workdir>/last-run.json``) lists each
stage's digest, hit/built outcome, and timing — CI's ``pipeline-smoke``
asserts a second run is hits across the board.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.castore import atomic_write_text
from repro.errors import ReproError
from repro.pipeline.artifacts import HIT, ArtifactStore, artifact_digest
from repro.pipeline.manifest import (
    RULESET_FORMAT,
    serving_ruleset_from_body,
)
from repro.pipeline.store import RulesetStore

#: Stage execution order; digests chain along this sequence.
STAGE_ORDER = ("corpus", "learn", "derive", "verify", "publish")


@dataclass
class PipelineConfig:
    """One pipeline invocation's parameters."""

    workdir: str = "pipeline-runtime"
    #: ruleset store root; defaults to ``<workdir>/rulesets``.
    store_dir: Optional[str] = None
    training: str = "quick"
    #: explicit corpus override; None derives it from ``training``.
    benchmarks: Optional[Tuple[str, ...]] = None
    verify_programs: int = 25
    verify_seed: int = 0

    def resolved_store_dir(self) -> str:
        return self.store_dir or str(Path(self.workdir) / "rulesets")


@dataclass
class StageResult:
    name: str
    digest: str
    outcome: str  # "hit" | "built"
    elapsed: float
    summary: str
    payload: Any = field(repr=False, default=None)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "digest": self.digest,
            "outcome": self.outcome,
            "elapsed": round(self.elapsed, 6),
            "summary": self.summary,
        }


class Pipeline:
    """Drives the stage chain over one artifact store + ruleset store."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.workdir = Path(config.workdir)
        self.artifacts = ArtifactStore(self.workdir / "artifacts")
        self.store = RulesetStore(config.resolved_store_dir())

    # -- corpus --------------------------------------------------------------

    def corpus_names(self) -> Tuple[str, ...]:
        if self.config.benchmarks:
            return tuple(self.config.benchmarks)
        if self.config.training == "full":
            from repro.workloads import BENCHMARK_NAMES

            return tuple(BENCHMARK_NAMES)
        if self.config.training != "quick":
            raise ReproError(f"unknown training corpus {self.config.training!r}")
        from repro.difftest.oracle import TRAINING_BENCHMARKS

        return tuple(TRAINING_BENCHMARKS)

    # -- the run -------------------------------------------------------------

    def run(self, log: Optional[Callable[[str], None]] = None) -> Dict[str, Any]:
        """Execute the full chain; raises :class:`ReproError` on a verify
        divergence.  Returns (and persists) the run report."""
        emit = log or (lambda message: None)
        results: List[StageResult] = []

        def run_stage(name: str, digest: str, build: Callable[[], Any]) -> Any:
            started = time.perf_counter()
            payload, outcome = self.artifacts.get_or_build(name, digest, build)
            result = StageResult(
                name=name,
                digest=digest,
                outcome=outcome,
                elapsed=time.perf_counter() - started,
                summary=self._summarize(name, payload),
                payload=payload,
            )
            results.append(result)
            emit(
                f"{name}: {outcome} [{digest[:12]}] {result.summary}"
                f" ({result.elapsed:.2f}s)"
            )
            return payload

        names = self.corpus_names()
        corpus_digest = artifact_digest(
            "corpus", list(names), self._corpus_fingerprints(names)
        )
        corpus = run_stage("corpus", corpus_digest, lambda: self._build_corpus(names))

        learn_digest = artifact_digest("learn", corpus_digest)
        learn = run_stage("learn", learn_digest, lambda: self._build_learn(corpus))

        derive_digest = artifact_digest("derive", learn_digest)
        derive = run_stage("derive", derive_digest, lambda: self._build_derive(learn))

        body = self._assemble_body(corpus, learn, derive)
        verify_digest = artifact_digest(
            "verify",
            derive_digest,
            self.config.verify_programs,
            self.config.verify_seed,
        )
        verify = run_stage(
            "verify", verify_digest, lambda: self._build_verify(body)
        )

        publish_digest = artifact_digest(
            "publish", learn_digest, derive_digest, verify_digest, self.config.training
        )
        provenance = {
            "corpus": corpus_digest,
            "learn": learn_digest,
            "derive": derive_digest,
            "verify": verify_digest,
        }
        publish = run_stage(
            "publish",
            publish_digest,
            lambda: self._build_publish(body, provenance),
        )
        # A hit artifact can outlive the store it published into (wiped or
        # GC'd store, warm workdir): re-publish idempotently so LATEST is
        # real, and surface the repair in the report.
        if not self.store.manifest_path(publish["version"]).is_file():
            result = self.store.publish(body, provenance=provenance)
            publish = {**publish, "version": result.version, "created": result.created}
            results[-1].payload = publish
            results[-1].summary = self._summarize("publish", publish) + " (repaired)"
            emit(f"publish: store repaired -> {result.version}")

        report = {
            "ok": not verify["divergences"],
            "training": self.config.training,
            "benchmarks": list(names),
            "stages": [result.to_dict() for result in results],
            "all_hits": all(result.outcome == HIT for result in results),
            "ruleset": {
                "version": publish["version"],
                "body_sha256": publish["body_sha256"],
                "created": publish["created"],
            },
            "artifacts": self.artifacts.stats(),
            "store": self.store.stats(),
        }
        self._write_report(report)
        if verify["divergences"]:
            raise ReproError(
                "verify stage found divergences: "
                + "; ".join(verify["divergences"][:3])
            )
        return report

    # -- stage builders ------------------------------------------------------

    def _corpus_fingerprints(self, names: Sequence[str]) -> Dict[str, str]:
        from repro.experiments.common import _pair_fingerprint

        return {name: _pair_fingerprint(name) for name in names}

    def _build_corpus(self, names: Sequence[str]) -> Dict[str, Any]:
        from repro.workloads import compiled_benchmark

        entries = {}
        for name in names:
            pair = compiled_benchmark(name)
            entries[name] = {
                "fingerprint": self._corpus_fingerprints([name])[name],
                "guest_instructions": len(pair.guest.instructions),
                "host_instructions": len(pair.host.instructions),
            }
        return {"benchmarks": list(names), "entries": entries}

    def _build_learn(self, corpus: Dict[str, Any]) -> Dict[str, Any]:
        from dataclasses import asdict

        from repro.experiments.common import benchmark_learning, rules_from
        from repro.learning.store import rule_to_dict

        names = corpus["benchmarks"]
        merged = rules_from(names)
        return {
            "rules": [rule_to_dict(rule) for rule in merged],
            "count": len(merged),
            "per_benchmark": {
                name: asdict(benchmark_learning(name).stats) for name in names
            },
        }

    def _build_derive(self, learn: Dict[str, Any]) -> Dict[str, Any]:
        from dataclasses import asdict

        from repro.learning.ruleset import RuleSet
        from repro.learning.store import rule_from_dict, rule_to_dict
        from repro.param.derive import derive_rules
        from repro.param.seqderive import derive_sequence_rules

        learned = RuleSet()
        for entry in learn["rules"]:
            learned.add(rule_from_dict(entry))
        param = derive_rules(learned, include_addrmode=True)
        sequence = derive_sequence_rules(learned)
        return {
            "derived": [rule_to_dict(rule) for rule in param.derived],
            "sequence": [rule_to_dict(rule) for rule in sequence],
            "counts": asdict(param.counts),
        }

    def _assemble_body(
        self, corpus: Dict[str, Any], learn: Dict[str, Any], derive: Dict[str, Any]
    ) -> Dict[str, Any]:
        # Straight from the artifact payloads — no dict → rule → dict round
        # trip, so the body digest is a pure function of the stage outputs.
        return {
            "format": RULESET_FORMAT,
            "training": self.config.training,
            "benchmarks": list(corpus["benchmarks"]),
            "counts": dict(derive["counts"]),
            "learned": learn["rules"],
            "derived": derive["derived"],
            "sequence": derive["sequence"],
        }

    def _build_verify(self, body: Dict[str, Any]) -> Dict[str, Any]:
        from repro.verify.acceptance import verify_serving_configs

        candidate = serving_ruleset_from_body(body, version="candidate")
        return verify_serving_configs(
            candidate.configs,
            benchmarks=body["benchmarks"],
            programs=self.config.verify_programs,
            seed=self.config.verify_seed,
        )

    def _build_publish(
        self, body: Dict[str, Any], provenance: Dict[str, str]
    ) -> Dict[str, Any]:
        result = self.store.publish(body, provenance=provenance)
        return {
            "version": result.version,
            "body_sha256": result.body_sha256,
            "parent": result.parent,
            "seq": result.seq,
            "created": result.created,
        }

    # -- reporting / maintenance ---------------------------------------------

    @staticmethod
    def _summarize(name: str, payload: Dict[str, Any]) -> str:
        if name == "corpus":
            return f"{len(payload['benchmarks'])} benchmarks"
        if name == "learn":
            return f"{payload['count']} learned rules"
        if name == "derive":
            return (
                f"{len(payload['derived'])} derived"
                f" + {len(payload['sequence'])} sequence rules"
            )
        if name == "verify":
            return (
                f"{payload['checked']} checked,"
                f" {len(payload['divergences'])} divergences"
            )
        if name == "publish":
            tag = "new" if payload.get("created") else "existing"
            return f"{payload['version']} ({tag})"
        return ""

    def _write_report(self, report: Dict[str, Any]) -> None:
        try:
            self.workdir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                self.workdir / "last-run.json",
                json.dumps(report, indent=2, sort_keys=True) + "\n",
            )
        except OSError:
            pass  # reporting must never fail the run

    def status(self) -> Dict[str, Any]:
        """Last-run report (if any) + live store/artifact state."""
        last_run = None
        try:
            with open(self.workdir / "last-run.json") as handle:
                last_run = json.load(handle)
        except (OSError, ValueError):
            pass
        return {
            "workdir": str(self.workdir),
            "last_run": last_run,
            "artifacts": self.artifacts.stats(),
            "store": self.store.stats(),
            "latest": self.store.latest_version(),
        }

    def invalidate(self, stage: Optional[str] = None) -> int:
        """Delete stage artifacts so the next run rebuilds from *stage* on."""
        if stage is not None and stage not in STAGE_ORDER:
            raise ReproError(
                f"unknown stage {stage!r}; expected one of {STAGE_ORDER}"
            )
        return self.artifacts.invalidate(stage)
