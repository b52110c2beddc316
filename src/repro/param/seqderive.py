"""Sequence-rule parameterization (the paper's future work, §V-D).

The paper parameterizes only single-guest-instruction rules and notes:
"Parameterizing instruction sequences will yield more rules ... and will
improve the performance further because they can produce more optimized host
code sequences after translation."  This module implements that extension:

* **opcode substitution inside sequences** — for each learned multi-
  instruction rule, every parameterizable guest instruction whose host
  counterpart appears exactly once in the host template is substituted with
  each same-subgroup opcode (direct mappings only), one position at a time;
* **condition substitution** — a sequence ending in a conditional branch is
  re-derived for every other condition code (``cmp+blt`` -> ``cmp+bge`` ...).

Every derived sequence is re-verified symbolically before it becomes a rule,
exactly like single-instruction derivation — unless a learned rule already
covers its guest window, in which case it would be dropped anyway and is
not verified at all.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache import MISS, BoundedMemo
from repro.isa.arm.opcodes import ARM
from repro.isa.instruction import Instruction
from repro.isa.x86.opcodes import X86, _COND_TO_JCC
from repro.learning.learn import try_generalize_imms
from repro.learning.rule import TranslationRule
from repro.learning.ruleset import RuleSet
from repro.param.classify import OPCODE_MAP, parameterizable_opcodes
from repro.verify.checker import check_equivalence

#: Derived-sequence verification results keyed by the (guest, host)
#: instruction tuples, memoized across rule sets.
_SEQ_CACHE = BoundedMemo(maxsize=4096, name="param.seq_verify")


def _replace_mnemonic(
    instructions: Tuple[Instruction, ...], index: int, mnemonic: str
) -> Tuple[Instruction, ...]:
    updated = list(instructions)
    updated[index] = Instruction(mnemonic, instructions[index].operands)
    return tuple(updated)


def _verify_sequence(
    guest: Tuple[Instruction, ...],
    host: Tuple[Instruction, ...],
    temps: int,
) -> Optional[TranslationRule]:
    key = (guest, host)
    rule = _SEQ_CACHE.get(key)
    if rule is not MISS:
        return rule
    result = check_equivalence(ARM, X86, guest, host, allow_temps=temps)
    rule = None
    if result.dataflow_ok:
        rule = TranslationRule(
            guest=guest,
            host=host,
            reg_mapping=tuple(sorted(result.reg_mapping.items())),
            host_temps=result.host_temps,
            flag_status=tuple(sorted(result.flag_status.items())),
            imm_generalized=try_generalize_imms(guest, host),
            origin="seq-param",
        )
    _SEQ_CACHE.put(key, rule)
    return rule


def _opcode_variants(rule: TranslationRule, learned: RuleSet) -> List[TranslationRule]:
    """One-position opcode substitutions of a learned sequence rule that no
    rule in *learned* covers."""
    variants: List[TranslationRule] = []
    for pos, guest_insn in enumerate(rule.guest):
        spec = OPCODE_MAP.get(guest_insn.mnemonic)
        if spec is None or spec.transform is not None:
            continue
        host_positions = [
            i for i, h in enumerate(rule.host) if h.mnemonic == spec.mnemonic
        ]
        if not 1 <= len(host_positions) <= 3:
            continue
        subgroup = ARM.lookup(guest_insn.mnemonic).subgroup
        for alt in parameterizable_opcodes(subgroup):
            alt_spec = OPCODE_MAP[alt]
            if alt == guest_insn.mnemonic or alt_spec.transform is not None:
                continue
            if not ARM.lookup(alt).accepts(guest_insn.kinds):
                continue
            guest = _replace_mnemonic(rule.guest, pos, alt)
            if learned.lookup(guest) is not None:
                continue
            # The host counterpart position may be ambiguous (e.g. two movl
            # instructions); try each candidate — verification arbitrates.
            for host_pos in host_positions:
                host = _replace_mnemonic(rule.host, host_pos, alt_spec.mnemonic)
                derived = _verify_sequence(guest, host, len(rule.host_temps))
                if derived is not None:
                    variants.append(derived)
                    break
    return variants


def _condition_variants(rule: TranslationRule, learned: RuleSet) -> List[TranslationRule]:
    """Condition-code substitutions for branch-terminated sequences that no
    rule in *learned* covers."""
    guest_last = rule.guest[-1]
    defn = ARM.lookup(guest_last.mnemonic)
    if not defn.is_branch or defn.cond is None:
        return []
    host_last = rule.host[-1]
    if X86.lookup(host_last.mnemonic).cond != defn.cond:
        return []
    variants: List[TranslationRule] = []
    for cond, jcc in _COND_TO_JCC.items():
        if cond == defn.cond:
            continue
        guest = _replace_mnemonic(rule.guest, len(rule.guest) - 1, f"b{cond}")
        if learned.lookup(guest) is not None:
            continue
        host = _replace_mnemonic(rule.host, len(rule.host) - 1, jcc)
        derived = _verify_sequence(guest, host, len(rule.host_temps))
        if derived is not None:
            variants.append(derived)
    return variants


def derive_sequence_rules(learned: RuleSet) -> RuleSet:
    """Derive verified sequence rules from the multi-instruction learned
    rules (combined with single-instruction rules by the caller)."""
    derived = RuleSet()
    for rule in learned:
        if rule.guest_length < 2:
            continue
        for variant in _opcode_variants(rule, learned):
            derived.add(variant)
        for variant in _condition_variants(rule, learned):
            derived.add(variant)
    return derived
