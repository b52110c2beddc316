"""Versioned ruleset bodies and their reconstruction into serving configs.

The publish stage ships a *ruleset body*: a schema-versioned JSON document
holding the learned, derived, and sequence-derived rules (in index order)
plus provenance — the full rule universe every serving stage draws from.
The body is what gets content-addressed and versioned by
:class:`repro.pipeline.store.RulesetStore`; this module owns its schema and
the two directions of the mapping:

* :func:`body_from_setup` — snapshot a derived :class:`~repro.param.engine
  .SystemSetup` into a body (pipeline publish path).
* :func:`serving_ruleset_from_body` — rebuild the full per-stage
  :class:`~repro.dbt.translator.TranslationConfig` map from a body
  **without re-running derivation**, by mirroring the assembly recipe of
  :func:`repro.param.engine._build_setup_uncached` over the stored rules.
  Rules are stored in index order and :meth:`RuleSet.add` slot tie-breaks
  are deterministic, so the rebuilt index resolves every lookup to the same
  canonical rule — the parity test byte-compares translations to prove it.

:class:`ServingRuleset` is the serve-time handle: configs plus identity
(version, body digest, training label, source), the unit the hot-reload
machinery in :mod:`repro.service.server` swaps atomically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.learning.ruleset import RuleSet
from repro.learning.store import rule_from_dict, rule_to_dict, ruleset_fingerprint

#: Ruleset body format tag; bump on any incompatible schema change.
RULESET_FORMAT = "repro-ruleset-v1"


def body_digest(body: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON of a ruleset body (its content address)."""
    text = json.dumps(body, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_body(
    learned: Sequence,
    derived: Sequence,
    sequence: Sequence,
    *,
    training: str,
    benchmarks: Sequence[str] = (),
    counts: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Assemble a ruleset body from rule collections (index order preserved)."""
    return {
        "format": RULESET_FORMAT,
        "training": training,
        "benchmarks": list(benchmarks),
        "counts": dict(counts or {}),
        "learned": [rule_to_dict(rule) for rule in learned],
        "derived": [rule_to_dict(rule) for rule in derived],
        "sequence": [rule_to_dict(rule) for rule in sequence],
    }


def body_from_setup(
    setup, *, training: str, benchmarks: Sequence[str] = ()
) -> Dict[str, Any]:
    """Snapshot a derived :class:`SystemSetup` into a publishable body.

    The sequence-derived rules are recovered as the ``seqparam`` config's
    suffix beyond the ``condition`` (learned + derived) set; reading that
    config derives them if no earlier reader of *setup* has.
    """
    from dataclasses import asdict

    all_rules = setup.configs["condition"].rules
    seq_rules = setup.configs["seqparam"].rules
    sequence = seq_rules.rules[len(all_rules.rules):]
    return build_body(
        setup.learned.rules,
        setup.param.derived.rules,
        sequence,
        training=training,
        benchmarks=benchmarks,
        counts=asdict(setup.param.counts),
    )


def validate_body(body: Dict[str, Any]) -> Dict[str, Any]:
    if not isinstance(body, dict) or body.get("format") != RULESET_FORMAT:
        raise ReproError(
            f"unsupported ruleset body format {body.get('format')!r} "
            f"(expected {RULESET_FORMAT})"
            if isinstance(body, dict)
            else "ruleset body is not an object"
        )
    return body


@dataclass(frozen=True)
class ServingRuleset:
    """One immutable, identified ruleset as served by the translation service.

    ``configs`` maps every stage name to a frozen
    :class:`TranslationConfig`; ``version``/``digest`` identify it in
    ``stats`` payloads and bench meta.  ``source`` is ``"store"`` for
    store-published versions and ``"builtin"`` for the legacy
    train-at-boot path.
    """

    version: str
    digest: str
    training: str
    source: str
    configs: Dict[str, Any] = field(repr=False)
    benchmarks: Tuple[str, ...] = ()
    rule_counts: Dict[str, int] = field(default_factory=dict, repr=False)

    def config_for(self, stage: str):
        config = self.configs.get(stage)
        if config is None:
            raise ReproError(f"ruleset {self.version} has no stage {stage!r}")
        return config

    def identity(self) -> Dict[str, Any]:
        """JSON-ready identity block for stats payloads and bench meta."""
        return {
            "version": self.version,
            "digest": self.digest,
            "training": self.training,
            "source": self.source,
            "rules": dict(self.rule_counts),
        }


def _ruleset_from_dicts(entries: Sequence[Dict[str, Any]]) -> RuleSet:
    rules = RuleSet()
    for entry in entries:
        rules.add(rule_from_dict(entry))
    return rules


def serving_ruleset_from_body(
    body: Dict[str, Any],
    *,
    version: str,
    digest: Optional[str] = None,
    source: str = "store",
) -> ServingRuleset:
    """Rebuild the full per-stage config map from a stored body.

    Mirrors :func:`repro.param.engine._build_setup_uncached` exactly, with
    the stored ``derived``/``sequence`` rules standing in for the derivation
    engine's output — reconstruction is pure assembly, no learning, no
    derivation, no verifier.
    """
    from repro.dbt.translator import TranslationConfig

    validate_body(body)
    learned = _ruleset_from_dicts(body.get("learned", ()))
    derived = _ruleset_from_dicts(body.get("derived", ()))

    opcode_rules = learned.copy()
    opcode_rules.extend(derived.by_origin("opcode-param"))

    all_rules = learned.copy()
    all_rules.extend(derived.rules)

    seq_rules = all_rules.copy()
    for entry in body.get("sequence", ()):
        seq_rules.add(rule_from_dict(entry))

    configs = {
        "qemu": TranslationConfig("qemu", rules=None),
        "wopara": TranslationConfig("w/o para.", rules=learned),
        "opcode": TranslationConfig("opcode", rules=opcode_rules),
        "addrmode": TranslationConfig(
            "addr mode", rules=all_rules, pc_constraint=True
        ),
        "condition": TranslationConfig(
            "condition", rules=all_rules, condition=True, pc_constraint=True
        ),
        "seqparam": TranslationConfig(
            "seq param", rules=seq_rules, condition=True, pc_constraint=True
        ),
        "manual": TranslationConfig(
            "manual",
            rules=all_rules,
            condition=True,
            pc_constraint=True,
            manual_other=True,
        ),
    }
    for ruleset in (learned, derived, opcode_rules, all_rules, seq_rules):
        ruleset.freeze()
    return ServingRuleset(
        version=version,
        digest=digest if digest is not None else body_digest(body),
        training=str(body.get("training", "quick")),
        source=source,
        configs=configs,
        benchmarks=tuple(body.get("benchmarks", ())),
        rule_counts={
            "learned": len(learned),
            "derived": len(derived),
            "sequence": len(body.get("sequence", ())),
            "serving": len(all_rules),
        },
    )


def serving_ruleset_from_setup(setup, *, training: str) -> ServingRuleset:
    """Wrap a train-at-boot :class:`SystemSetup` (the legacy serve path).

    The digest is the fingerprint of the default serving rule set, so two
    processes trained on the same corpus report the same identity even
    though no store version exists.

    Its ``sequence`` count reads the ``seqparam`` config, so a
    train-at-boot server derives the sequence rules at boot.
    """
    all_rules = setup.configs["condition"].rules
    seq_len = len(setup.configs["seqparam"].rules.rules) - len(all_rules.rules)
    return ServingRuleset(
        version=f"builtin:{training}",
        digest=ruleset_fingerprint(all_rules),
        training=training,
        source="builtin",
        configs=dict(setup.configs),
        benchmarks=(),
        rule_counts={
            "learned": len(setup.learned),
            "derived": len(setup.param.derived),
            "sequence": seq_len,
            "serving": len(all_rules),
        },
    )
