"""The rule-learning pipeline: extract -> verify -> generalize -> merge.

Reproduces the paper's learning funnel (§II-B, Table I): statements produce
candidates (extraction losses), candidates produce learned rules
(verification losses), learned rules dedup into unique rules.

Immediate generalization: a verified rule whose immediates also verify under
two rounds of fresh probe values is stored immediate-generalized (it matches
any immediate).  Rules whose immediate values are semantically load-bearing
stay value-specific.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.isa.arm.opcodes import ARM
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Mem
from repro.isa.x86.opcodes import X86
from repro.lang.program import CompiledPair
from repro.learning.extract import Candidate, ExtractionResult, extract
from repro.learning.rule import TranslationRule, window_bindings
from repro.learning.ruleset import RuleSet
from repro.verify.checker import CheckResult, check_equivalence

#: Probe values for immediate generalization (two independent rounds).
_PROBE_ROUNDS = (
    (0x11171, 0x22273, 0x18375, 0x1C477),
    (0x30529, 0x1462B, 0x3872D, 0x24E2F),
)


@dataclass
class LearnStats:
    """Per-benchmark learning funnel counters (paper Table I)."""

    name: str = ""
    statements: int = 0
    candidates: int = 0
    learned: int = 0
    unique: int = 0
    extraction_losses: Dict[str, int] = field(default_factory=dict)
    verification_losses: Dict[str, int] = field(default_factory=dict)

    def as_row(self) -> Tuple[str, int, int, int, int]:
        return (self.name, self.statements, self.candidates, self.learned, self.unique)


@dataclass
class PairLearning:
    """Learning output for one compiled pair."""

    stats: LearnStats
    rules: RuleSet


def rewrite_imms(
    instructions: Sequence[Instruction], value_map: Dict[int, int]
) -> Tuple[Instruction, ...]:
    """Replace immediate/displacement values according to *value_map*."""

    def rewrite_op(op):
        if isinstance(op, Imm):
            return Imm(value_map.get(op.value, op.value))
        if isinstance(op, Mem):
            return Mem(
                base=op.base,
                index=op.index,
                disp=value_map.get(op.disp, op.disp),
                scale=op.scale,
            )
        return op

    return tuple(
        Instruction(insn.mnemonic, tuple(rewrite_op(op) for op in insn.operands))
        for insn in instructions
    )


def try_generalize_imms(
    guest: Tuple[Instruction, ...],
    host: Tuple[Instruction, ...],
) -> bool:
    """Probe whether the rule stays equivalent under fresh immediates."""
    _, imms = window_bindings(guest)
    if not imms:
        return False
    for probes in _PROBE_ROUNDS:
        if len(imms) > len(probes):
            return False
        value_map = dict(zip(imms, probes))
        result = check_equivalence(
            ARM, X86, rewrite_imms(guest, value_map), rewrite_imms(host, value_map)
        )
        if not result.equivalent and not result.dataflow_ok:
            return False
        if result.mismatched_flags:
            return False
    return True


class Verifier:
    """Caching front end over :func:`check_equivalence` + rule construction."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple, Tuple[CheckResult, Optional[TranslationRule]]] = {}

    def _key(self, candidate: Candidate) -> Tuple:
        return (candidate.guest, candidate.host)

    def verify(self, candidate: Candidate) -> Tuple[CheckResult, Optional[TranslationRule]]:
        key = self._key(candidate)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = check_equivalence(ARM, X86, candidate.guest, candidate.host)
        rule: Optional[TranslationRule] = None
        if result.equivalent:
            generalized = try_generalize_imms(candidate.guest, candidate.host)
            rule = TranslationRule(
                guest=candidate.guest,
                host=candidate.host,
                reg_mapping=tuple(sorted(result.reg_mapping.items())),
                host_temps=result.host_temps,
                flag_status=tuple(sorted(result.flag_status.items())),
                imm_generalized=generalized,
                origin="learned",
            )
        self._cache[key] = (result, rule)
        return result, rule


def learn_pair(
    pair: CompiledPair, verifier: Optional[Verifier] = None
) -> PairLearning:
    """Run the full learning pipeline on one compiled pair."""
    verifier = verifier or Verifier()
    extraction: ExtractionResult = extract(pair)
    stats = LearnStats(name=pair.name, statements=extraction.statement_count)
    rules = RuleSet()

    for stmt_id, reason in extraction.outcomes.items():
        if reason != "ok":
            stats.extraction_losses[reason] = stats.extraction_losses.get(reason, 0) + 1
    stats.candidates = extraction.candidate_count

    for candidate in extraction.candidates:
        result, rule = verifier.verify(candidate)
        if rule is not None:
            stats.learned += 1
            rules.add(rule)
        else:
            reason = result.reason or (
                "flag mismatch: " + ",".join(result.mismatched_flags)
                if result.dataflow_ok
                else "dataflow"
            )
            stats.verification_losses[reason] = (
                stats.verification_losses.get(reason, 0) + 1
            )

    # Positionally-decomposed single-instruction rules ([16]'s finer formats);
    # they feed the rule set but not the Table-I statement funnel.
    for candidate in extraction.sub_candidates:
        _, rule = verifier.verify(candidate)
        if rule is not None:
            rules.add(rule)

    stats.unique = len(rules)
    return PairLearning(stats=stats, rules=rules)


def learn_suite(
    pairs: Iterable[CompiledPair], verifier: Optional[Verifier] = None
) -> Tuple[List[LearnStats], RuleSet]:
    """Learn from several pairs and merge the rule sets."""
    verifier = verifier or Verifier()
    merged = RuleSet()
    all_stats: List[LearnStats] = []
    for pair in pairs:
        learning = learn_pair(pair, verifier)
        all_stats.append(learning.stats)
        merged.extend(learning.rules.rules)
    return all_stats, merged
