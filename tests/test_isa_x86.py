"""Tests for the x86-like host ISA: assembler, definitions, semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AssemblyError
from repro.isa.instruction import Subgroup
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.x86 import X86, assemble, disassemble, format_instruction, parse_line
from repro.semantics.state import ConcreteState

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def run_one(text: str, flags=None, **regs):
    insn = parse_line(text)
    state = ConcreteState()
    state.reset_flags()
    for name, value in (flags or {}).items():
        state.set_flag(name, value)
    for name, value in regs.items():
        state.regs[name] = value
    X86.defn(insn).semantics(state, insn)
    return state


class TestAssembler:
    def test_att_operand_order(self):
        insn = parse_line("movl $5, %eax")
        assert insn.operands == (Imm(5), Reg("eax"))

    def test_memory_forms(self):
        assert parse_line("movl 8(%ebx), %eax").operands[0] == Mem(
            base=Reg("ebx"), disp=8
        )
        assert parse_line("movl (%ebx,%ecx,4), %eax").operands[0] == Mem(
            base=Reg("ebx"), index=Reg("ecx"), scale=4
        )
        assert parse_line("movl 1234(,%ecx), %eax").operands[0] == Mem(
            index=Reg("ecx"), disp=1234
        )

    def test_store_form_uses_internal_mnemonic(self):
        insn = parse_line("movl %eax, (%ebx)")
        assert insn.mnemonic == "movl_s"
        assert format_instruction(insn).startswith("movl ")

    def test_jcc(self):
        insn = parse_line("jne .L0")
        assert insn.operands[0] == Label(".L0")
        assert X86.defn(insn).cond == "ne"

    def test_bad_register(self):
        with pytest.raises(AssemblyError):
            parse_line("movl %rax, %eax")

    def test_roundtrip(self):
        source = """fn:
    movl $7, %eax
    addl %ecx, %eax
    movl %eax, 4(%ebx)
    cmpl $0, %eax
    jg fn
    ret"""
        insns = assemble(source)
        assert assemble(disassemble(insns)) == insns


class TestClassification:
    @pytest.mark.parametrize(
        "mnemonic,subgroup",
        [
            ("addl", Subgroup.ALU),
            ("notl", Subgroup.ALU),
            ("movl", Subgroup.LOAD),
            ("leal", Subgroup.LOAD),
            ("movl_s", Subgroup.STORE),
            ("movb", Subgroup.STORE),
            ("cmpl", Subgroup.COMPARE),
            ("jmp", Subgroup.OTHER),
            ("pushl", Subgroup.OTHER),
        ],
    )
    def test_subgroups(self, mnemonic, subgroup):
        assert X86.lookup(mnemonic).subgroup is subgroup

    def test_flag_sets(self):
        assert X86.lookup("addl").flags_set == frozenset("NZCV")
        assert X86.lookup("movl").flags_set == frozenset()
        assert X86.lookup("imull").flags_set == frozenset()
        # Logic ops report all four as written (C/V are clobbered to zero).
        assert X86.lookup("xorl").flags_set == frozenset("NZCV")


class TestSemantics:
    def test_addl_destructive(self):
        assert run_one("addl %ecx, %eax", eax=2, ecx=3).get_reg("eax") == 5

    def test_subl_direction(self):
        # AT&T: subl src, dst computes dst - src.
        assert run_one("subl %ecx, %eax", eax=10, ecx=4).get_reg("eax") == 6

    def test_cmpl_direction(self):
        # cmpl b, a compares a - b.
        state = run_one("cmpl $3, %eax", eax=3)
        assert state.get_flag("Z") == 1
        state = run_one("cmpl $5, %eax", eax=3)
        assert state.get_flag("C") == 0  # borrow occurred

    def test_xorl_clobbers_cv(self):
        state = run_one("xorl %eax, %eax", flags={"C": 1, "V": 1}, eax=7)
        assert state.get_reg("eax") == 0
        assert state.get_flag("Z") == 1
        assert state.get_flag("C") == 0
        assert state.get_flag("V") == 0

    def test_notl_sets_no_flags(self):
        state = run_one("notl %eax", flags={"Z": 1}, eax=0)
        assert state.get_reg("eax") == 0xFFFFFFFF
        assert state.get_flag("Z") == 1  # untouched

    def test_negl(self):
        assert run_one("negl %eax", eax=5).get_reg("eax") == (-5) & 0xFFFFFFFF

    def test_leal(self):
        state = run_one("leal 8(%ebx,%ecx,4), %eax", ebx=0x100, ecx=2)
        assert state.get_reg("eax") == 0x110

    def test_imull_no_flags(self):
        state = run_one("imull $3, %eax", flags={"Z": 1}, eax=7)
        assert state.get_reg("eax") == 21
        assert state.get_flag("Z") == 1

    def test_adcl_reads_carry(self):
        state = run_one("adcl %ecx, %eax", flags={"C": 1}, eax=1, ecx=2)
        assert state.get_reg("eax") == 4

    def test_mem_dest_alu(self):
        state = run_one("addl $5, 0(%ebx)", ebx=0x1000)
        assert state.load(0x1000) == 5

    def test_flag_store_and_load(self):
        state = run_one("stzf 0(%ebx)", flags={"Z": 1}, ebx=0x1000)
        assert state.load(0x1000) == 1
        state2 = run_one("ldzf 0(%ebx)", ebx=0x1000)
        assert state2.get_flag("Z") == 0  # memory was zero
        state.regs["ebx"] = 0x1000
        insn = parse_line("ldzf 0(%ebx)")
        X86.defn(insn).semantics(state, insn)
        assert state.get_flag("Z") == 1

    def test_helper_clz(self):
        from repro.isa.instruction import Instruction

        state = ConcreteState()
        state.reset_flags()
        state.regs.update(eax=0, ecx=0x00010000)
        insn = Instruction("helper_clz", (Reg("eax"), Reg("ecx")))
        X86.defn(insn).semantics(state, insn)
        assert state.get_reg("eax") == 15

    def test_jump_taken_flag(self):
        state = run_one("je .L", flags={"Z": 1})
        assert state.branch_taken == 1
        state = run_one("jne .L", flags={"Z": 1})
        assert state.branch_taken == 0

    def test_pushl_popl(self):
        state = ConcreteState()
        state.reset_flags()
        state.regs.update(esp=0x8000, eax=99)
        push = parse_line("pushl %eax")
        X86.defn(push).semantics(state, push)
        assert state.get_reg("esp") == 0x7FFC
        state.regs["eax"] = 0
        pop = parse_line("popl %eax")
        X86.defn(pop).semantics(state, pop)
        assert state.get_reg("eax") == 99

    @given(a=U32, b=U32)
    def test_addl_flags_match_arm_adds(self, a, b):
        """The shared flag model: addl and adds agree on all four flags."""
        from repro.isa.arm import parse_line as arm_parse
        from repro.isa.arm.opcodes import ARM

        x86_state = run_one("addl %ecx, %eax", eax=a, ecx=b)
        arm_state = ConcreteState()
        arm_state.reset_flags()
        arm_state.regs.update(r0=a, r1=b)
        insn = arm_parse("adds r0, r0, r1")
        ARM.defn(insn).semantics(arm_state, insn)
        for flag in "NZCV":
            assert x86_state.get_flag(flag) == arm_state.get_flag(flag)


class _RecordingFlags(dict):
    """Flag file that records which flags are read and which are written."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()
        self.written = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)

    def __setitem__(self, name, value):
        self.written.add(name)
        super().__setitem__(name, value)


def _random_operand(rng, kind):
    from repro.isa.operands import OperandKind as K
    from repro.isa.x86.registers import GPR_NAMES

    if kind is K.REG:
        return Reg(rng.choice(GPR_NAMES))
    if kind is K.IMM:
        return Imm(rng.choice((0, 1, 31, 32, 0x7FFFFFFF, rng.getrandbits(32))))
    assert kind is K.MEM, kind
    return rng.choice(
        (
            Mem(disp=rng.getrandbits(16) * 4),
            Mem(base=Reg(rng.choice(GPR_NAMES)), disp=rng.randint(-64, 64)),
            Mem(
                base=Reg(rng.choice(GPR_NAMES)),
                index=Reg(rng.choice(GPR_NAMES)),
                scale=rng.choice((1, 2, 4, 8)),
            ),
        )
    )


class TestFlagMetadata:
    """The jit's dead-flag-store elision trusts ``flags_read``/``flags_set``:
    every semantics function must read only flags it declares and write
    exactly the flags it declares, on every input."""

    def test_semantics_match_declared_flags(self):
        import random

        from repro.isa.instruction import Instruction
        from repro.isa.x86.registers import ALL_REGISTERS

        rng = random.Random(2020)
        checked = set()
        for defn in X86.defs.values():
            if defn.is_branch:
                continue
            for signature in defn.signatures:
                for _ in range(25):
                    insn = Instruction(
                        defn.mnemonic,
                        tuple(_random_operand(rng, kind) for kind in signature),
                    )
                    state = ConcreteState()
                    for name in ALL_REGISTERS:
                        state.regs[name] = rng.getrandbits(32)
                    state.regs["esp"] = 0x8000 + 4 * rng.randint(0, 64)
                    state.flags = _RecordingFlags(
                        {f: rng.getrandbits(1) for f in "NZCV"}
                    )
                    defn.semantics(state, insn)
                    assert state.flags.read <= defn.flags_read, insn
                    assert state.flags.written == defn.flags_set, insn
                    checked.add(defn.mnemonic)
        non_branch = {d.mnemonic for d in X86.defs.values() if not d.is_branch}
        assert checked == non_branch
