"""Tests for rule-candidate verification — the paper's strictness rules.

Each scenario mirrors a case from the paper: three-operand emulation with a
leading mov (fig. 6), scratch-register rejection (why ``bic``/``mla`` are
unlearnable), flag-status classification (the raw material of condition-flag
delegation), operand-mapping one-to-one-ness, and the rejection of
unconditional control transfers / ABI instructions.
"""

import pytest

from repro.isa.arm import ARM, assemble as arm
from repro.isa.x86 import X86, assemble as x86
from repro.verify import check_equivalence
from repro.verify.checker import (
    FLAG_CLOBBERED,
    FLAG_EQUIV,
    FLAG_MISMATCH,
    FLAG_PRESERVED,
)


def check(guest: str, host: str, allow_temps: int = 0):
    return check_equivalence(ARM, X86, arm(guest), x86(host), allow_temps)


class TestDataflow:
    def test_three_operand_add(self):
        result = check("add r0, r1, r2", "movl %ecx, %eax\naddl %edx, %eax")
        assert result.equivalent
        assert result.reg_mapping == {"r0": "eax", "r1": "ecx", "r2": "edx"}

    def test_destructive_add(self):
        assert check("add r0, r0, r1", "addl %ecx, %eax").equivalent

    def test_wrong_operation_rejected(self):
        assert not check("add r0, r0, r1", "subl %ecx, %eax").dataflow_ok

    def test_subtraction_operand_order(self):
        # sub is non-commutative; the mapping search must find the order.
        result = check("sub r0, r0, r1", "subl %ecx, %eax")
        assert result.equivalent
        assert result.reg_mapping == {"r0": "eax", "r1": "ecx"}

    def test_swapped_subtraction_rejected(self):
        # Host computes b - a instead of a - b.
        result = check(
            "sub r0, r1, r2", "movl %edx, %eax\nsubl %ecx, %eax"
        )
        # The checker may find the *valid* mapping r1->edx, r2->ecx instead —
        # commuted register names are just renaming.  What must hold is that
        # the mapping it reports is actually correct.
        assert result.equivalent
        mapping = result.reg_mapping
        assert mapping["r0"] == "eax"
        assert mapping["r1"] == "edx" and mapping["r2"] == "ecx"

    def test_immediates_must_match(self):
        assert not check("add r0, r0, #5", "addl $6, %eax").dataflow_ok
        assert check("add r0, r0, #5", "addl $5, %eax").equivalent

    def test_immediate_count_mismatch(self):
        result = check("mov r0, r1", "movl $3, %eax")
        assert not result.dataflow_ok
        assert "immediate" in result.reason

    def test_load_with_displacement(self):
        assert check("ldr r0, [r1, #8]", "movl 8(%ecx), %eax").equivalent

    def test_load_base_index(self):
        assert check("ldr r0, [r1, r2]", "movl (%ecx,%edx), %eax").equivalent

    def test_store(self):
        assert check("str r0, [r1]", "movl %eax, (%ecx)").equivalent

    def test_store_value_mismatch(self):
        assert not check("str r0, [r1]", "movl %ecx, (%ecx)").dataflow_ok

    def test_byte_load_zero_extends(self):
        assert check("ldrb r0, [r1, r2]", "movzbl (%ecx,%edx), %eax").equivalent

    def test_byte_vs_word_size_mismatch(self):
        assert not check("ldrb r0, [r1, r2]", "movl (%ecx,%edx), %eax").dataflow_ok

    def test_store_size_mismatch(self):
        assert not check("strb r0, [r1]", "movl %eax, (%ecx)").dataflow_ok

    def test_mapped_register_must_be_restored(self):
        # Host clobbers a mapped register that the guest leaves unchanged.
        assert not check(
            "add r0, r0, r1", "addl %ecx, %eax\nmovl $0, %ecx"
        ).dataflow_ok


class TestScratchRegisters:
    def test_scratch_rejected_in_learning_mode(self):
        result = check(
            "bic r0, r0, r1", "movl %ecx, %edx\nnotl %edx\nandl %edx, %eax"
        )
        assert not result.dataflow_ok
        assert "scratch" in result.reason

    def test_scratch_allowed_when_declared(self):
        result = check(
            "bic r0, r0, r1",
            "movl %ecx, %edx\nnotl %edx\nandl %edx, %eax",
            allow_temps=1,
        )
        assert result.equivalent
        assert result.host_temps == ("edx",)

    def test_scratch_read_before_write_rejected(self):
        # edx carries live-in data: not a true temporary.
        result = check("mov r0, r1", "addl %edx, %ecx\nmovl %ecx, %eax", allow_temps=1)
        assert not result.dataflow_ok

    def test_mla_needs_scratch(self):
        result = check(
            "mla r0, r1, r2, r0", "movl %ecx, %edx\nimull %ebx, %edx\naddl %edx, %eax"
        )
        assert not result.dataflow_ok


class TestFlagStatus:
    def test_fully_equivalent_flags(self):
        result = check("adds r0, r0, r1", "addl %ecx, %eax")
        assert result.equivalent
        assert all(result.flag_status[f] == FLAG_EQUIV for f in "NZCV")

    def test_logical_clobber_classified(self):
        result = check("eors r0, r0, r1", "xorl %ecx, %eax")
        assert result.equivalent
        assert result.flag_status["N"] == FLAG_EQUIV
        assert result.flag_status["Z"] == FLAG_EQUIV
        assert result.flag_status["C"] == FLAG_CLOBBERED
        assert result.flag_status["V"] == FLAG_CLOBBERED

    def test_movs_mismatch(self):
        result = check("movs r0, r1", "movl %ecx, %eax")
        assert result.dataflow_ok and not result.equivalent
        assert result.mismatched_flags == ("N", "Z")

    def test_movs_with_testl_fix(self):
        result = check("movs r0, r1", "movl %ecx, %eax\ntestl %eax, %eax")
        assert result.equivalent

    def test_teq_n_mismatch(self):
        # teq sets N from a^b; cmpl sets N from a-b: Z agrees, N does not.
        result = check("teq r0, r1", "cmpl %ecx, %eax")
        assert result.dataflow_ok
        assert result.flag_status["Z"] == FLAG_EQUIV
        assert result.flag_status["N"] == FLAG_MISMATCH

    def test_non_flag_rule_preserves(self):
        result = check("mov r0, r1", "movl %ecx, %eax")
        assert all(result.flag_status[f] == FLAG_PRESERVED for f in "NZCV")


class TestBranches:
    def test_compare_and_branch_pair(self):
        result = check("cmp r0, r1\nblt .L", "cmpl %ecx, %eax\njl .L")
        assert result.equivalent
        assert result.reg_mapping == {"r0": "eax", "r1": "ecx"}

    def test_commuted_compare_found_but_not_flag_exact(self):
        # cmpl with commuted operands + jg computes the same branch outcome
        # as cmp+blt (a real compiler idiom).  The checker finds the commuted
        # mapping — but the residual flags are those of the *reversed*
        # subtraction, so the rule is not fully equivalent and is not
        # learnable.
        result = check("cmp r0, r1\nblt .L", "cmpl %ecx, %eax\njg .L")
        assert result.dataflow_ok
        assert not result.equivalent
        assert "N" in result.mismatched_flags

    def test_wrong_condition_rejected(self):
        assert not check("cmp r0, r1\nblt .L", "cmpl %edx, %eax\njle .L").dataflow_ok

    def test_signed_vs_unsigned_rejected(self):
        assert not check("cmp r0, r1\nblt .L", "cmpl %ecx, %eax\njb .L").dataflow_ok

    def test_lone_conditional_branch(self):
        assert check("bne .L", "jne .L").equivalent
        assert not check("bne .L", "je .L").dataflow_ok

    def test_fused_alu_branch(self):
        result = check("ands r0, r0, r1\nbne .L", "andl %ecx, %eax\njne .L")
        assert result.equivalent

    def test_branch_count_mismatch(self):
        assert not check("cmp r0, r1\nbne .L", "cmpl %ecx, %eax").dataflow_ok

    def test_non_corresponding_targets_rejected(self):
        # Statement-aligned candidates branch to the same label on both
        # sides; a pair that does not is rejected before any mapping search.
        result = check("cmp r0, r1\nbne .L1", "cmpl %ecx, %eax\njne .L2")
        assert not result.dataflow_ok
        assert result.reason == "branch targets do not correspond"
        assert check("bne .L1", "jne .L1").equivalent
        assert not check("bne .L1", "jne .L2").dataflow_ok


def _plain_search(guest: str, host: str, allow_temps: int = 0):
    """The reference per-mapping search: a fresh guest and host run per
    candidate mapping, no memos, no signature pruning."""
    from repro.isa.flags import FLAG_NAMES
    from repro.symir import Sym
    from repro.verify import SymbolicState, run_symbolic
    from repro.verify.checker import (
        _NO_MAPPING,
        _candidate_mappings,
        _compare_states,
        collect_regs,
        guest_set_flags,
    )

    guest_insns, host_insns = arm(guest), x86(host)
    guest_regs, host_regs = collect_regs(guest_insns), collect_regs(host_insns)
    assert len(host_regs) - len(guest_regs) <= allow_temps
    flag_inputs = {f: Sym(f"F{f}", 1) for f in FLAG_NAMES}
    best = None
    for mapping in _candidate_mappings(guest_regs, host_regs):
        oracle: dict = {}
        states = (SymbolicState("g", oracle), SymbolicState("h", oracle))
        for i, (guest_reg, host_reg) in enumerate(mapping.items()):
            states[0].bind_reg(guest_reg, Sym(f"v{i}", 32))
            states[1].bind_reg(host_reg, Sym(f"v{i}", 32))
        for state in states:
            for flag in FLAG_NAMES:
                state.bind_flag(flag, flag_inputs[flag])
        run_symbolic(ARM, guest_insns, states[0])
        run_symbolic(X86, host_insns, states[1])
        result = _compare_states(
            states[0], states[1], host_insns, mapping, flag_inputs,
            guest_set_flags(ARM, guest_insns),
        )
        if result is None:
            continue
        if result.equivalent:
            return result
        if best is None or len(result.mismatched_flags) < len(best.mismatched_flags):
            best = result
    return best or _NO_MAPPING


class TestMappingSearch:
    """The search runs the host once per surviving mapping: the first
    mapping's run doubles as the register signature that prunes the rest."""

    @pytest.fixture
    def host_runs(self, monkeypatch):
        from repro.cache import clear_all_caches
        from repro.verify import checker, shapeclass

        clear_all_caches()
        monkeypatch.setattr(shapeclass, "_CROSS_CHECK_MOD", 0)
        runs = []
        real = checker.run_symbolic

        def counting(isa, instructions, state):
            if isa is X86:
                runs.append(instructions)
            return real(isa, instructions, state)

        monkeypatch.setattr(checker, "run_symbolic", counting)
        return runs

    @staticmethod
    def _same(a, b):
        return (a.equivalent, a.reg_mapping, a.host_temps, a.flag_status, a.reason) == (
            b.equivalent, b.reg_mapping, b.host_temps, b.flag_status, b.reason
        )

    def test_first_mapping_wins_with_one_host_run(self, host_runs):
        result = check("str r0, [r1]", "movl %eax, (%ecx)")
        assert result.reg_mapping == {"r0": "eax", "r1": "ecx"}
        assert result.equivalent
        assert len(host_runs) == 1

    def test_first_mapping_with_unread_temp_is_skipped(self, host_runs):
        # Candidates: (eax, ecx) leaves edx as a temp, which subl reads
        # before writing; (edx, eax) with ecx as the temp is the winner.
        guest, host = "mov r0, r1", "movl %eax, %ecx\nsubl %edx, %edx\naddl %ecx, %edx"
        result = check(guest, host, allow_temps=1)
        assert result.equivalent
        assert result.reg_mapping == {"r0": "edx", "r1": "eax"}
        assert result.host_temps == ("ecx",)
        assert self._same(result, _plain_search(guest, host, allow_temps=1))
        # the first mapping's run, then the winner's; the other four
        # candidates are ruled out by the signature alone
        assert len(host_runs) == 2

    def test_first_mapping_leaving_a_changed_register_is_skipped(self, host_runs):
        # (eax, ecx) maps r0 to eax, which the host never writes although
        # the guest changes r0; (ecx, eax) wins.
        result = check("mov r0, r1", "movl %eax, %ecx")
        assert result.reg_mapping == {"r0": "ecx", "r1": "eax"}
        assert self._same(result, _plain_search("mov r0, r1", "movl %eax, %ecx"))
        assert len(host_runs) == 2

    @pytest.mark.parametrize(
        "guest, host, temps",
        [
            ("mov r0, r1", "movl %ecx, %eax\nmovl %edx, %edx", 1),
            ("add r0, r0, r1", "subl %ecx, %eax", 0),
            ("sub r0, r1, r0", "subl %ecx, %eax", 0),
            ("cmp r0, r1\nblt .L", "cmpl %ecx, %eax\njg .L", 0),
        ],
    )
    def test_matches_the_plain_per_mapping_search(self, host_runs, guest, host, temps):
        assert self._same(check(guest, host, temps), _plain_search(guest, host, temps))


class TestPaperRejections:
    def test_unconditional_b(self):
        result = check("b .L", "jmp .L")
        assert not result.dataflow_ok
        assert "unconditional" in result.reason

    def test_bl_rejected(self):
        assert not check("bl .L", "call .L").dataflow_ok

    def test_push_rejected(self):
        assert not check("push {r4}", "pushl %ebx").dataflow_ok

    def test_umlal_rejected(self):
        result = check(
            "umlal r0, r1, r2, r3",
            "movl %ecx, %eax\nimull %edx, %eax",
        )
        assert not result.dataflow_ok

    def test_pc_operand_rejected(self):
        result = check("add r0, pc, #8", "movl $16, %eax")
        assert not result.dataflow_ok
        assert "PC" in result.reason

    def test_guest_sp_rejected(self):
        result = check("ldr r0, [sp, #4]", "movl 4(%ecx), %eax")
        assert not result.dataflow_ok
        assert "stack" in result.reason


# -- property tests: flag verdicts vs. concrete execution ----------------------
#
# The four-way flag verdict (equiv/mismatch/preserved/clobbered) is the raw
# material of condition-flag delegation, so a wrong FLAG_EQUIV is a silent
# translation bug.  Property: whenever the checker reports ``equiv`` for a
# guest-set flag, concretely executing both sides from the same initial state
# (registers related by the reported mapping) must agree on that flag.

from hypothesis import given, settings, strategies as st

from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.semantics.state import ConcreteState
from tests.strategies import arm_instructions, x86_instructions

_GUEST_ALU = (
    "add", "adds", "sub", "subs", "rsb", "rsbs", "and", "ands",
    "orr", "orrs", "eor", "eors", "bic", "bics", "lsl", "lsls",
    "lsr", "lsrs", "asr", "asrs", "mul", "muls", "mov", "movs",
)
_HOST_ALU = ("addl", "subl", "andl", "orl", "xorl", "shll", "shrl", "sarl", "imull")


@st.composite
def _alu_pairs(draw):
    """Single-instruction pairs biased toward dataflow-equivalent shapes.

    Fully random pairs almost never pass the dataflow check (making the flag
    property vacuous), so the host side is a ``movl`` + ALU template over the
    canonical mapping r0->eax, r1->ecx, r2->edx; the ALU opcode itself is
    drawn independently, so matching and non-matching combinations both
    occur.
    """
    guest_mnemonic = draw(st.sampled_from(_GUEST_ALU))
    if guest_mnemonic.rstrip("s") in ("mov",) or guest_mnemonic in ("mov", "movs"):
        guest = Instruction(guest_mnemonic, (Reg("r0"), Reg("r1")))
    else:
        guest = Instruction(guest_mnemonic, (Reg("r0"), Reg("r1"), Reg("r2")))
    host_op = draw(st.sampled_from(_HOST_ALU))
    host = (
        Instruction("movl", (Reg("ecx"), Reg("eax"))),
        Instruction(host_op, (Reg("edx"), Reg("eax"))),
    )
    if draw(st.booleans()):
        host = (
            Instruction("movl", (Reg("ecx"), Reg("eax"))),
            Instruction("testl", (Reg("eax"), Reg("eax"))),
        )
    return guest, host


def _concrete_flags(isa, instructions, reg_values, flag_values):
    """Execute instructions concretely; final flag file (None on any error)."""
    state = ConcreteState()
    for name, value in reg_values.items():
        state.set_reg(name, value)
    state.flags.update(flag_values)
    try:
        for insn in instructions:
            state.clear_branch()
            isa.defn(insn).semantics(state, insn)
    except Exception:
        return None
    return dict(state.flags)


def _assert_equiv_verdicts_hold(guest, host, result, seeds):
    from repro.isa.flags import FLAG_NAMES

    guest_sets = ARM.defn(guest).flags_set
    claimed = [
        f for f in guest_sets if result.flag_status.get(f) == FLAG_EQUIV
    ]
    if result.reg_mapping is None or not claimed:
        return
    base = {"pc": 0x1000, "sp": 0x7FF000, "lr": 0}
    for trial, (va, vb, vc, flag_bits) in enumerate(seeds):
        guest_regs = dict(base)
        for i, name in enumerate(f"r{j}" for j in range(13)):
            guest_regs[name] = (va, vb, vc)[i % 3] ^ (i * 0x01010101)
        host_regs = {"esp": 0x7FF000}
        for name in ("eax", "ecx", "edx", "ebx", "esi", "edi", "ebp"):
            host_regs[name] = 0xDEAD0000 + len(name)
        for g, h in result.reg_mapping.items():
            host_regs[h] = guest_regs[g]
        flags = {name: (flag_bits >> i) & 1 for i, name in enumerate(FLAG_NAMES)}
        gflags = _concrete_flags(ARM, (guest,), guest_regs, flags)
        hflags = _concrete_flags(X86, host, host_regs, flags)
        if gflags is None or hflags is None:
            continue
        for f in claimed:
            assert gflags[f] == hflags[f], (
                f"checker reported {f}=equiv for {guest} vs {list(host)} "
                f"but concrete execution disagrees "
                f"(guest {gflags[f]} != host {hflags[f]}; trial {trial})"
            )


class TestFlagVerdictProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        pair=_alu_pairs(),
        seeds=st.lists(
            st.tuples(
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 15),
            ),
            min_size=2,
            max_size=4,
        ),
    )
    def test_equiv_verdict_never_contradicted(self, pair, seeds):
        guest, host = pair
        result = check_equivalence(ARM, X86, (guest,), host)
        _assert_equiv_verdicts_hold(guest, host, result, seeds)

    @settings(max_examples=100, deadline=None)
    @given(
        guest=arm_instructions(exclude=("push", "pop", "bl", "b", "bx")),
        host=x86_instructions(exclude=("pushl", "popl", "call", "jmp", "ret")),
        seeds=st.lists(
            st.tuples(
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 15),
            ),
            min_size=1,
            max_size=2,
        ),
    )
    def test_random_pairs_equiv_verdicts_hold(self, guest, host, seeds):
        # Mostly vacuous (random pairs rarely pass dataflow), but the checker
        # must never crash and any equiv claim it does make must hold.
        try:
            result = check_equivalence(ARM, X86, (guest,), (host,))
        except Exception as exc:  # noqa: BLE001 - any crash is a failure
            raise AssertionError(f"checker crashed on {guest} / {host}: {exc}")
        if not result.dataflow_ok:
            return
        _assert_equiv_verdicts_hold(guest, (host,), result, seeds)
