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
    _sequences: Set[Tuple[str, ...]] = field(default_factory=set)
    #: set by :meth:`freeze`: this set's name in process-wide memos over its
    #: lookups (see :attr:`memo_token`).
    _token: Optional[object] = field(default=None, repr=False, compare=False)

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
        if self._token is None:
            self._token = object()
        return self

    @property
    def frozen(self) -> bool:
        return self._token is not None

    @property
    def memo_token(self) -> Optional[object]:
        """Key for memos over this set's lookups, or None while mutable.

        A frozen set's lookups never change, so their results may be kept
        process-wide under this token (the translator's window memo does).
        The token is a fresh object, so no other set, and no later set at
        the same address, shares it.
        """
        return self._token

    def add(self, rule: TranslationRule) -> bool:
        """Add a rule; returns False if it duplicates an existing rule.

        When two distinct rules share a guest key, the one with the shorter
        host sequence wins the index slot (better translated code quality);
        both remain in :attr:`rules` for counting.
        """
        if self._token is not None:
            raise RuleError("RuleSet is frozen (shared/memoized); copy() it first")
        try:
            identity = rule.canonical_identity()
        except RuleError:
            return False
        if identity in self._identities:
            return False
        self._identities.add(identity)
        self.rules.append(rule)
        if rule.guest_length > 1:
            self._sequences.add(tuple(insn.mnemonic for insn in rule.guest))
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

    @property
    def sequences(self) -> Set[Tuple[str, ...]]:
        """Guest mnemonic sequences of the rules longer than one instruction.

        A lookup key spells out every mnemonic, so a window of two or more
        instructions whose mnemonics are not among these matches no rule:
        the translator skips it without fingerprinting or memoizing it.
        """
        return self._sequences

    def max_guest_length(self) -> int:
        return max((rule.guest_length for rule in self.rules), default=0)

    def by_origin(self, origin: str) -> List[TranslationRule]:
        return [rule for rule in self.rules if rule.origin == origin]

    def single_instruction_rules(self) -> List[TranslationRule]:
        return [rule for rule in self.rules if rule.guest_length == 1]

    def copy(self) -> "RuleSet":
        """A mutable duplicate, also of a frozen set.

        The rules, both indexes (with their order) and the identities are
        what re-adding every rule in order would build, copied without
        canonicalizing any rule again.
        """
        return RuleSet(
            rules=list(self.rules),
            _generalized=dict(self._generalized),
            _specific=dict(self._specific),
            _identities=set(self._identities),
            _sequences=set(self._sequences),
        )
