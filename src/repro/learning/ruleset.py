"""Indexed collections of translation rules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import RuleError
from repro.isa.instruction import Instruction
from repro.learning.rule import CanonicalKey, TranslationRule, window_keys


@dataclass
class RuleSet:
    """A deduplicated, lookup-indexed set of translation rules.

    Lookup honours the canonical operand-equality pattern of the rule (so a
    rule learned from ``add r0, r0, r1`` does not match ``add r2, r3, r5``,
    paper fig. 8) and prefers immediate-generalized rules, falling back to
    value-specific rules.
    """

    rules: List[TranslationRule] = field(default_factory=list)
    _generalized: Dict[CanonicalKey, TranslationRule] = field(default_factory=dict)
    _specific: Dict[CanonicalKey, TranslationRule] = field(default_factory=dict)
    _identities: Set[Tuple] = field(default_factory=set)
    _frozen: bool = field(default=False, repr=False)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[TranslationRule]:
        return iter(self.rules)

    def freeze(self) -> "RuleSet":
        """Make this set immutable; :meth:`add`/:meth:`extend` raise after.

        Shared, memoized rule sets (e.g. inside a cached
        :class:`repro.param.engine.SystemSetup`) are frozen so a caller
        mutating one poisons nothing — the attempt fails loudly instead.
        :meth:`copy` returns a mutable duplicate.
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def add(self, rule: TranslationRule) -> bool:
        """Add a rule; returns False if it duplicates an existing rule.

        When two distinct rules share a guest key, the one with the shorter
        host sequence wins the index slot (better translated code quality);
        both remain in :attr:`rules` for counting.
        """
        if self._frozen:
            raise RuleError("RuleSet is frozen (shared/memoized); copy() it first")
        try:
            identity = rule.canonical_identity()
        except RuleError:
            return False
        if identity in self._identities:
            return False
        self._identities.add(identity)
        self.rules.append(rule)
        index = self._generalized if rule.imm_generalized else self._specific
        key = rule.key()
        current = index.get(key)
        if current is None or len(rule.host) < len(current.host):
            index[key] = rule
        return True

    def extend(self, rules: Iterable[TranslationRule]) -> int:
        return sum(1 for rule in rules if self.add(rule))

    def lookup(self, window: Sequence[Instruction]) -> Optional[TranslationRule]:
        """Best rule matching a concrete guest window, or None."""
        try:
            general, specific = window_keys(window)
        except RuleError:
            return None
        return self.lookup_canonical(general, specific)

    def lookup_canonical(
        self, general: CanonicalKey, specific: CanonicalKey
    ) -> Optional[TranslationRule]:
        """Lookup from precomputed :func:`window_keys` key pair.

        Preference order is identical to :meth:`lookup`: the
        immediate-generalized index wins, the value-specific index is the
        fallback.
        """
        rule = self._generalized.get(general)
        if rule is not None:
            return rule
        return self._specific.get(specific)

    def max_guest_length(self) -> int:
        return max((rule.guest_length for rule in self.rules), default=0)

    def by_origin(self, origin: str) -> List[TranslationRule]:
        return [rule for rule in self.rules if rule.origin == origin]

    def single_instruction_rules(self) -> List[TranslationRule]:
        return [rule for rule in self.rules if rule.guest_length == 1]

    def merged_with(self, other: "RuleSet") -> "RuleSet":
        merged = RuleSet()
        merged.extend(self.rules)
        merged.extend(other.rules)
        return merged

    def copy(self) -> "RuleSet":
        duplicate = RuleSet()
        duplicate.extend(self.rules)
        return duplicate
