"""RuleSet lookup: single-walk window keys and a two-pass reference.

Translation, ``repro translate`` and ``repro serve`` all resolve rules
through :meth:`RuleSet.lookup_canonical` on a frozen set.  These tests pin
its answers to per-index :func:`guest_key` canonicalization: the
generalized index first, then the value-specific one, and pin the
index-preference and slot tie-break corners against the same reference.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RuleError
from repro.isa.arm import assemble as arm
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Mem, Reg, RegList
from repro.isa.x86 import assemble as x86
from repro.learning.rule import (
    TranslationRule,
    guest_key,
    window_key_prefixes,
    window_keys,
)
from repro.learning.ruleset import RuleSet

from .strategies import ARM_REGS, arm_instructions, imm_values


def reference_lookup(rules: RuleSet, window):
    """Two canonicalization passes: generalized index, then specific."""
    try:
        general = guest_key(window, with_values=False)
    except RuleError:
        return None
    rule = rules._generalized.get(general)
    if rule is not None:
        return rule
    return rules._specific.get(guest_key(window, with_values=True))


def renamed(window, rename, imm):
    """``window`` with registers renamed and (optionally) every immediate set."""

    def operand(op):
        if isinstance(op, Reg):
            return Reg(rename.get(op.name, op.name))
        if isinstance(op, Mem):
            return dataclasses.replace(
                op,
                base=op.base and operand(op.base),
                index=op.index and operand(op.index),
            )
        if isinstance(op, RegList):
            return RegList(tuple(operand(r) for r in op.regs))
        if isinstance(op, Imm) and imm is not None:
            return Imm(imm)
        return op

    return tuple(
        Instruction(insn.mnemonic, tuple(operand(op) for op in insn.operands))
        for insn in window
    )


def make_rule(guest, host, mapping, imm_gen=False, origin="learned", temps=()):
    return TranslationRule(
        guest=arm(guest),
        host=x86(host),
        reg_mapping=tuple(sorted(mapping.items())),
        host_temps=tuple(temps),
        imm_generalized=imm_gen,
        origin=origin,
    )


@pytest.fixture(scope="module")
def training():
    """Learned + derived + sequence rules over the two-benchmark training set."""
    from repro.difftest.oracle import stage_config

    return stage_config("seqparam").rules


class TestWindowKeys:
    @given(window=st.lists(arm_instructions(), min_size=1, max_size=4))
    def test_window_keys_match_guest_key(self, window):
        window = tuple(window)
        general, specific = window_keys(window)
        assert general == guest_key(window, with_values=False)
        assert specific == guest_key(window, with_values=True)

    @given(window=st.lists(arm_instructions(), min_size=1, max_size=4))
    def test_prefixes_match_per_prefix_window_keys(self, window):
        window = tuple(window)
        prefixes = window_key_prefixes(window)
        assert len(prefixes) == len(window)
        for k, pair in enumerate(prefixes, start=1):
            assert pair == window_keys(window[:k])

    def test_imm_free_window_shares_key_object(self):
        general, specific = window_keys(arm("add r0, r1, r2"))
        assert specific is general
        general, specific = window_keys(arm("add r0, r1, #4"))
        assert specific is not general


class TestLookup:
    @settings(max_examples=60, deadline=None)
    @given(window=st.lists(arm_instructions(), min_size=1, max_size=4))
    def test_lookup_matches_two_pass_reference(self, training, window):
        window = tuple(window)
        assert training.lookup(window) is reference_lookup(training, window)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_renamed_rule_guests_match_two_pass_reference(self, training, data):
        rule = data.draw(st.sampled_from(training.rules))
        rename = dict(zip(ARM_REGS, data.draw(st.permutations(ARM_REGS))))
        imm = data.draw(st.one_of(st.none(), imm_values))
        window = renamed(rule.guest, rename, imm)
        assert training.lookup(window) is reference_lookup(training, window)

    def test_rule_guests_match_two_pass_reference(self, training):
        for rule in training.rules:
            found = training.lookup(rule.guest)
            assert found is not None
            assert found is reference_lookup(training, rule.guest)


class TestIndexPreference:
    def test_generalized_preferred_over_specific(self):
        rules = RuleSet()
        specific = make_rule(
            "add r0, r0, #4", "addl $4, %eax", {"r0": "eax"}, imm_gen=False
        )
        generalized = make_rule(
            "add r0, r0, #4", "addl $4, %eax", {"r0": "eax"}, imm_gen=True
        )
        assert rules.add(specific) and rules.add(generalized)
        window = arm("add r3, r3, #4")
        assert rules.lookup(window) is generalized
        assert reference_lookup(rules, window) is generalized

    def test_specific_hit_only_without_generalized_owner(self):
        rules = RuleSet()
        specific = make_rule(
            "add r0, r0, #4", "addl $4, %eax", {"r0": "eax"}, imm_gen=False
        )
        assert rules.add(specific)
        assert rules.lookup(arm("add r5, r5, #4")) is specific
        # A different immediate misses the specific slot.
        assert rules.lookup(arm("add r5, r5, #8")) is None
        assert reference_lookup(rules, arm("add r5, r5, #8")) is None

    def test_shorter_host_tie_break_survives_packing(self):
        rules = RuleSet()
        long_host = make_rule(
            "sub r0, r0, r1",
            "movl %eax, %ecx\nsubl %edx, %ecx\nmovl %ecx, %eax",
            {"r0": "eax", "r1": "edx"},
            origin="learned",
            temps=("ecx",),
        )
        short_host = make_rule(
            "sub r0, r0, r1", "subl %edx, %eax", {"r0": "eax", "r1": "edx"},
            origin="opcode-param",
        )
        assert rules.add(long_host) and rules.add(short_host)
        window = arm("sub r4, r4, r9")
        assert rules.lookup(window) is short_host
        # A frozen copy, as served, keeps the winner.
        served = rules.copy().freeze()
        assert served.lookup(window) is short_host
        assert reference_lookup(served, window) is short_host


def _readded(rules: RuleSet) -> RuleSet:
    """Reference copy: every rule added again, in order, to an empty set."""
    fresh = RuleSet()
    for rule in rules:
        assert fresh.add(rule)
    return fresh


def _same_index(a, b) -> bool:
    """Same keys in the same order, each owned by the same rule object."""
    return list(a) == list(b) and all(a[key] is b[key] for key in a)


class TestCopyAndIdentity:
    def test_copy_equals_readding(self, training):
        assert training.frozen
        copy = training.copy()
        reference = _readded(training)
        assert len(copy) == len(training) > 0
        assert all(a is b for a, b in zip(copy.rules, reference.rules))
        assert _same_index(copy._generalized, reference._generalized)
        assert _same_index(copy._specific, reference._specific)
        assert copy._identities == reference._identities

    def test_copy_equals_readding_with_slot_contention(self):
        """Rules sharing a guest key: the index winners and the slot order of
        a copy are those of re-adding (a later, shorter host wins)."""
        rules = RuleSet()
        for guest, host, mapping, imm_gen in (
            ("add r0, r0, #4", "movl %eax, %ecx\naddl $4, %ecx\nmovl %ecx, %eax", {"r0": "eax"}, True),
            ("sub r0, r0, r1", "subl %edx, %eax", {"r0": "eax", "r1": "edx"}, False),
            ("add r0, r0, #4", "addl $4, %eax", {"r0": "eax"}, True),
            ("add r0, r0, #4", "addl $4, %eax", {"r0": "eax"}, False),
        ):
            temps = ("ecx",) if "ecx" in host else ()
            assert rules.add(make_rule(guest, host, mapping, imm_gen=imm_gen, temps=temps))
        copy, reference = rules.copy(), _readded(rules)
        assert _same_index(copy._generalized, reference._generalized)
        assert _same_index(copy._specific, reference._specific)
        assert copy.lookup(arm("add r2, r2, #8")).host == x86("addl $4, %eax")

    def test_copy_of_a_frozen_set_is_mutable_and_separate(self, training):
        copy = training.copy()
        assert not copy.frozen
        extra = make_rule("eor r0, r0, r0", "xorl %eax, %eax", {"r0": "eax"})
        before = (len(training), dict(training._specific), set(training._identities))
        copy.add(extra)
        assert copy.lookup(arm("eor r6, r6, r6")) is not None
        assert (len(training), dict(training._specific), set(training._identities)) == before

    def test_cached_identity_is_a_fresh_computation(self, training):
        for rule in training:
            identity = rule.canonical_identity()
            fresh = dataclasses.replace(rule)  # same fields, nothing cached
            assert fresh == rule and "_identity" not in fresh.__dict__
            assert fresh.canonical_identity() == identity
            assert rule.canonical_identity() is identity
            assert rule.key() == guest_key(rule.guest, with_values=not rule.imm_generalized)
            assert rule.key() == identity[0]


def test_service_serves_the_frozen_ruleset():
    """The server's stage configs are the ruleset's own, not wrapped copies."""
    from repro.difftest.oracle import training_setup
    from repro.param.engine import STAGES
    from repro.service.server import ServiceConfig, TranslationService

    service = TranslationService(ServiceConfig(), setup=training_setup())
    for stage in STAGES:
        rules = service.config_for(stage).rules
        assert rules is service.ruleset.config_for(stage).rules
        assert rules is None or rules.frozen
