"""Rule-set serialization (JSON).

Rules round-trip through the two assemblers' text syntax, so a stored rule
file is human-readable: each rule shows its guest and host assembly, the
register mapping, flag verdicts, and constraints.  The same dict forms
carry learning results and derived rules back from ``--jobs`` worker
processes and into the pipeline's stage artifacts and published rule sets;
:func:`ruleset_fingerprint` digests a rule set's content.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import List

from repro.isa.arm import assembler as arm_asm
from repro.isa.x86 import assembler as x86_asm
from repro.learning.learn import LearnStats, PairLearning
from repro.learning.rule import TranslationRule
from repro.learning.ruleset import RuleSet


def rule_to_dict(rule: TranslationRule) -> dict:
    return {
        "guest": [str(insn) for insn in rule.guest],
        "host": [x86_asm.format_instruction(insn) for insn in rule.host],
        "reg_mapping": dict(rule.reg_mapping),
        "host_temps": list(rule.host_temps),
        "flag_status": dict(rule.flag_status),
        "imm_generalized": rule.imm_generalized,
        "origin": rule.origin,
        "constraints": list(rule.constraints),
    }


def rule_from_dict(data: dict) -> TranslationRule:
    guest = tuple(arm_asm.parse_line(line) for line in data["guest"])
    host = tuple(x86_asm.parse_line(line) for line in data["host"])
    return TranslationRule(
        guest=guest,
        host=host,
        reg_mapping=tuple(sorted(data["reg_mapping"].items())),
        host_temps=tuple(data.get("host_temps", ())),
        flag_status=tuple(sorted(data.get("flag_status", {}).items())),
        imm_generalized=bool(data.get("imm_generalized", False)),
        origin=data.get("origin", "learned"),
        constraints=tuple(data.get("constraints", ())),
    )


def dump_rules(rules: RuleSet) -> str:
    return json.dumps([rule_to_dict(rule) for rule in rules], indent=2)


def load_rules(text: str) -> RuleSet:
    ruleset = RuleSet()
    for entry in json.loads(text):
        ruleset.add(rule_from_dict(entry))
    return ruleset


def save_rules(rules: RuleSet, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(dump_rules(rules))


def load_rules_file(path: str) -> RuleSet:
    with open(path) as handle:
        return load_rules(handle.read())


def ruleset_fingerprint(rules: RuleSet) -> str:
    """Content digest of a rule set (cache key for everything derived).

    Two rule sets holding the same rules in the same order share a
    fingerprint regardless of which process built them.
    """
    text = json.dumps([rule_to_dict(rule) for rule in rules], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def learning_to_dict(learning: PairLearning) -> dict:
    """JSON form of one benchmark's learning output (stats + rules)."""
    return {
        "stats": asdict(learning.stats),
        "rules": [rule_to_dict(rule) for rule in learning.rules],
    }


def learning_from_dict(data: dict) -> PairLearning:
    stats = LearnStats(**data["stats"])
    rules = RuleSet()
    for entry in data["rules"]:
        rules.add(rule_from_dict(entry))
    return PairLearning(stats=stats, rules=rules)
