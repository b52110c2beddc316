"""Tests for shape-class batched verification (register-renamed canonical
checking).

The load-bearing property: for every member of a shape class, the rebased
class verdict is field-for-field identical to what a direct mapping search
on that member would produce.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cache import clear_all_caches
from repro.isa.arm import ARM, assemble as arm
from repro.isa.x86 import X86, assemble as x86
from repro.verify import check_equivalence
from repro.verify.checker import CheckResult, collect_regs
from repro.verify import shapeclass
from repro.verify.shapeclass import (
    _SHAPE_MEMO,
    _rebase,
    _results_agree,
    canonicalize_pair,
    cross_check_stats,
    rename_registers,
    set_cross_check,
)
from tests.strategies import arm_instructions, x86_instructions


def check(guest: str, host: str, allow_temps: int = 0):
    return check_equivalence(ARM, X86, arm(guest), x86(host), allow_temps)


class TestCanonicalization:
    def test_renamed_members_share_a_canonical_form(self):
        a = canonicalize_pair(
            ARM, X86,
            arm("add r4, r5, r6"),
            x86("movl %esi, %ebx\naddl %edi, %ebx"),
            ["r4", "r5", "r6"],
            ["esi", "ebx", "edi"],
        )
        b = canonicalize_pair(
            ARM, X86,
            arm("add r9, r2, r7"),
            x86("movl %ecx, %eax\naddl %edx, %eax"),
            ["r9", "r2", "r7"],
            ["ecx", "eax", "edx"],
        )
        assert a.guest_insns == b.guest_insns
        assert a.host_insns == b.host_insns
        assert a.guest_regs == b.guest_regs == ["r0", "r1", "r2"]

    def test_identity_member_short_circuits(self):
        guest = arm("add r0, r1, r2")
        host = x86("movl %ecx, %eax\naddl %edx, %eax")
        pair = canonicalize_pair(
            ARM, X86, guest, host,
            ["r0", "r1", "r2"], ["eax", "ecx", "edx"],
        )
        assert pair.identity
        assert pair.guest_insns is guest
        assert pair.host_insns is host

    def test_non_pool_register_bypasses(self):
        guest = arm("add r0, sp, #8")
        pair = canonicalize_pair(
            ARM, X86, guest, x86("addl $8, %eax"),
            ["r0", "sp"], ["eax"],
        )
        assert pair is None

    def test_rename_covers_memory_operands(self):
        insns = rename_registers(
            arm("ldr r4, [r5, r6]"), {"r4": "r0", "r5": "r1", "r6": "r2"}
        )
        assert [str(i) for i in insns] == [str(i) for i in arm("ldr r0, [r1, r2]")]

    def test_inverse_renaming_round_trips(self):
        guest = arm("add r9, r2, r7")
        pair = canonicalize_pair(
            ARM, X86, guest, x86("addl %edx, %eax"),
            ["r9", "r2", "r7"], ["eax", "edx"],
        )
        back = rename_registers(pair.guest_insns, pair.inv_guest)
        assert [str(i) for i in back] == [str(i) for i in guest]


class TestLabelRenaming:
    def test_labels_are_renamed_jointly_in_first_occurrence_order(self):
        a = canonicalize_pair(
            ARM, X86,
            arm("cmp r4, r7\nblt .Lk0_17"),
            x86("cmpl %ebx, %esi\njl .Lk0_17"),
            ["r4", "r7"], ["ebx", "esi"],
        )
        b = canonicalize_pair(
            ARM, X86,
            arm("cmp r5, r6\nblt .Lk1_3"),
            x86("cmpl %edi, %ebx\njl .Lk1_3"),
            ["r5", "r6"], ["edi", "ebx"],
        )
        assert a.guest_insns == b.guest_insns
        assert a.host_insns == b.host_insns
        assert a.key == b.key
        assert str(a.guest_insns[-1]) == "blt L0"
        assert str(a.host_insns[-1]) == "jl L0"

    def test_label_correspondence_stays_in_the_key(self):
        same = canonicalize_pair(
            ARM, X86, arm("bne .La"), x86("jne .La"), [], []
        )
        crossed = canonicalize_pair(
            ARM, X86, arm("bne .La"), x86("jne .Lb"), [], []
        )
        assert same.host_insns != crossed.host_insns
        assert same.key != crossed.key
        assert str(crossed.host_insns[-1]) == "jne L1"

    def test_identity_requires_canonical_labels(self):
        guest, host = arm("cmp r0, r1\nblt L0"), x86("cmpl %eax, %ecx\njl L0")
        pair = canonicalize_pair(ARM, X86, guest, host, ["r0", "r1"], ["eax", "ecx"])
        assert pair.identity and pair.guest_insns is guest
        pair = canonicalize_pair(
            ARM, X86, arm("cmp r0, r1\nblt .L"), x86("cmpl %eax, %ecx\njl .L"),
            ["r0", "r1"], ["eax", "ecx"],
        )
        assert not pair.identity

    def test_candidates_differing_only_in_label_share_one_search(self, monkeypatch):
        from repro.verify import checker

        clear_all_caches()
        monkeypatch.setattr(shapeclass, "_CROSS_CHECK_MOD", 0)
        searches = []
        real = checker._search_mappings

        def counting(*args):
            searches.append(args)
            return real(*args)

        monkeypatch.setattr(checker, "_search_mappings", counting)
        first = check("cmp r4, r7\nblt .Lk0_17", "cmpl %edi, %ebx\njl .Lk0_17")
        served = check("cmp r4, r7\nblt .Lk1_3", "cmpl %edi, %ebx\njl .Lk1_3")
        assert len(searches) == 1
        direct = real(
            ARM, X86, arm("cmp r4, r7\nblt .Lk1_3"), x86("cmpl %edi, %ebx\njl .Lk1_3"),
            ["r4", "r7"], ["edi", "ebx"], frozenset("NZCV"),
        )
        assert _results_agree(served, direct)
        assert _results_agree(first, served)
        assert served.equivalent


class TestShapeKey:
    """The memo key is built without renaming any instruction; it must
    tell pairs apart exactly as their renamed instructions would."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_key_equal_iff_canonical_instructions_equal(self, data):
        guests = st.lists(arm_instructions(), min_size=1, max_size=3).map(tuple)
        hosts = st.lists(x86_instructions(), min_size=1, max_size=3).map(tuple)
        guest, host = data.draw(guests), data.draw(hosts)
        if data.draw(st.booleans()):
            # a member of the same class: registers permuted within the pool
            perm = dict(zip(ARM.allocatable, data.draw(st.permutations(ARM.allocatable))))
            other_guest, other_host = rename_registers(guest, perm), host
        else:
            other_guest, other_host = data.draw(guests), data.draw(hosts)
        a, b = (
            canonicalize_pair(ARM, X86, g, h, collect_regs(g), collect_regs(h))
            for g, h in ((guest, host), (other_guest, other_host))
        )
        assume(a is not None and b is not None)
        same = (a.guest_insns, a.host_insns) == (b.guest_insns, b.host_insns)
        assert (a.key == b.key) == same
        assert (hash(a.key) == hash(b.key)) or not same

    @pytest.mark.parametrize(
        "host, other",
        [
            ("movl 4(%eax), %ecx", "movl 8(%eax), %ecx"),
            ("movl (%eax,%ecx,2), %edx", "movl (%eax,%ecx,4), %edx"),
            ("movl (%eax,%ecx,2), %edx", "movl 2(%eax), %edx"),
            ("addl $4, %eax", "addl $8, %eax"),
            ("addl %eax, %ecx", "addl %eax, %eax"),
            ("addl %eax, %ecx", "subl %eax, %ecx"),
        ],
        ids=["disp", "scale", "index", "imm", "aliasing", "mnemonic"],
    )
    def test_pairs_differing_in_one_field_have_different_keys(self, host, other):
        guest = arm("add r0, r0, r1")
        a, b = (
            canonicalize_pair(ARM, X86, guest, h, collect_regs(guest), collect_regs(h))
            for h in (x86(host), x86(other))
        )
        assert a.host_insns != b.host_insns
        assert a.key != b.key


class TestRebase:
    def test_failed_result_keeps_reason(self):
        failed = CheckResult(False, reason="no mapping")
        rebased = _rebase(failed, {}, {})
        assert not rebased.equivalent
        assert rebased.reason == "no mapping"

    def test_mapping_rebased_through_inverses(self):
        result = CheckResult(
            True,
            reg_mapping={"r0": "eax", "r1": "ecx"},
            host_temps=("edx",),
            flag_status={"N": "equiv"},
        )
        rebased = _rebase(
            result,
            {"r0": "r7", "r1": "r3"},
            {"eax": "ebx", "ecx": "esi", "edx": "edi"},
        )
        assert rebased.reg_mapping == {"r7": "ebx", "r3": "esi"}
        assert rebased.host_temps == ("edi",)
        assert rebased.flag_status == {"N": "equiv"}
        assert rebased.flag_status is not result.flag_status


class TestClassVerdicts:
    def test_renamed_member_gets_rebased_mapping(self):
        clear_all_caches()
        first = check("add r0, r1, r2", "movl %ecx, %eax\naddl %edx, %eax")
        assert first.equivalent
        renamed = check("add r9, r2, r7", "movl %esi, %ebx\naddl %edi, %ebx")
        assert renamed.equivalent
        assert renamed.reg_mapping == {"r9": "ebx", "r2": "esi", "r7": "edi"}

    def test_negative_verdicts_are_shared_too(self):
        clear_all_caches()
        assert not check("add r0, r0, r1", "subl %ecx, %eax").equivalent
        assert not check("add r4, r4, r5", "subl %edi, %ebx").equivalent

    def test_every_served_verdict_survives_full_cross_check(self):
        # At 1-in-1 sampling every memo hit is re-verified directly; a
        # divergence would raise VerificationError inside check().
        clear_all_caches()
        set_cross_check(1)
        try:
            before = cross_check_stats()["checked"]
            check("sub r0, r0, r1", "subl %ecx, %eax")
            for guest, host in (
                ("sub r4, r4, r5", "subl %edi, %ebx"),
                ("sub r9, r9, r2", "subl %eax, %esi"),
            ):
                member = check(guest, host)
                assert member.equivalent
            after = cross_check_stats()
            assert after["checked"] > before
            assert after["failed"] == 0
        finally:
            set_cross_check(16)

    def test_shape_memo_registered_with_cache_clearing(self):
        check("add r0, r1, r2", "movl %ecx, %eax\naddl %edx, %eax")
        assert len(_SHAPE_MEMO) > 0
        clear_all_caches()
        assert len(_SHAPE_MEMO) == 0
