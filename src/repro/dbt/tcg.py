"""TCG-style fallback lowering (the QEMU baseline path).

Every guest instruction can be lowered through a TCG-like micro-op pipeline:
guest -> explicit-temporary micro-ops -> host instructions.  No coalescing
is attempted — that is the "multiplying effect" of going through an IR the
paper describes (§II-A): one guest instruction becomes ~2-6 host
instructions before block-level data-transfer and stub overhead.

Flag policy: the TCG path keeps guest condition flags in the environment.
Flag-setting instructions store each set flag with ``st<f>f`` right after
the flag-producing host op; flag readers reload with ``ld<f>f``.  (QEMU
proper is lazier — it spills ``cc_src``/``cc_dst``/``cc_op`` — with similar
instruction counts.)
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.errors import ExecutionError
from repro.isa.arm.opcodes import ARM
from repro.isa.flags import CONDITION_FLAG_USES
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Mem, Operand, Reg, RegList
from repro.dbt.runtime import (
    FLAG_FILLS,
    FLAG_SPILLS,
    POP_LOADS,
    PUSH_STORES,
    SP_DECREMENT,
    SP_INCREMENT,
    TAKEN_BRANCHES,
    guest_reg,
    scratch_reg,
)

_SIZED_LOAD = {"ldr": "movl", "ldrh": "movzwl", "ldrb": "movzbl"}
_SIZED_STORE = {"str": "movl_s", "strh": "movw", "strb": "movb"}

_ALU_HOST = {
    "add": "addl",
    "adc": "adcl",
    "sub": "subl",
    "sbc": "sbbl",
    "rsb": "subl",
    "rsc": "sbbl",
    "and": "andl",
    "orr": "orl",
    "eor": "xorl",
    "bic": "andl",
    "mul": "imull",
    "lsl": "shll",
    "lsr": "shrl",
    "asr": "sarl",
}


def _flag_stores(flags) -> List[Instruction]:
    return [FLAG_SPILLS[f] for f in ("N", "Z", "C", "V") if f in flags]


def _flag_loads(flags) -> List[Instruction]:
    return [FLAG_FILLS[f] for f in ("N", "Z", "C", "V") if f in flags]


def lower(insn: Instruction, index: int) -> List[Instruction]:
    """Lower one guest instruction to host instructions.

    ``index`` is the guest instruction index (for PC reads and ``bl``).
    A conditional branch jumps to the block's ``EXIT_TAKEN`` label; the
    caller (block translator) emits the exit stubs.
    """
    out: List[Instruction] = []

    def pc_safe(op: Operand) -> Operand:
        """Materialize PC reads into a scratch (ARM allows pc as a GPR)."""
        if isinstance(op, Reg) and op.name == "pc":
            pc_scratch = scratch_reg(3)
            out.append(Instruction("movl", (Imm(index * 4 + 8), pc_scratch)))
            return pc_scratch
        if isinstance(op, Imm):
            return op
        assert isinstance(op, Reg)
        return guest_reg(op.name)

    defn = ARM.defn(insn)
    mnemonic = insn.mnemonic
    _strippable = set(_ALU_HOST) | {"mov", "mvn"}
    base = (
        mnemonic[:-1]
        if mnemonic.endswith("s") and mnemonic[:-1] in _strippable
        else mnemonic
    )
    t0, t1 = scratch_reg(0), scratch_reg(1)

    if base in _ALU_HOST and defn.subgroup.value == "alu":
        dest, a_op, b_op = insn.operands
        a = pc_safe(a_op)
        b = pc_safe(b_op)
        if base in ("rsb", "rsc"):
            a, b = b, a
        pre: List[Instruction] = []
        if base == "bic":
            pre = [Instruction("movl", (b, t1)), Instruction("notl", (t1,))]
            b = t1
        if base in ("adc", "sbc", "rsc"):
            out.extend(_flag_loads({"C"}))
        out.extend(pre)
        out.append(Instruction("movl", (a, t0)))
        out.append(Instruction(_ALU_HOST[base], (b, t0)))
        if defn.flags_set:
            from repro.isa.x86.opcodes import X86

            if not defn.flags_set <= X86.lookup(_ALU_HOST[base]).flags_set:
                # The host op leaves flags undefined (imull): recompute N/Z
                # from the result before spilling, or the stores would
                # persist whatever flags happened to be live.
                out.append(Instruction("testl", (t0, t0)))
        out.extend(_flag_stores(defn.flags_set))
        out.append(Instruction("movl", (t0, guest_reg(dest.name))))
        return out

    if base in ("mov", "mvn"):
        dest, src = insn.operands
        out.append(Instruction("movl", (pc_safe(src), t0)))
        if base == "mvn":
            out.append(Instruction("notl", (t0,)))
        if defn.flags_set:
            out.append(Instruction("testl", (t0, t0)))
            out.extend(_flag_stores(defn.flags_set))
        out.append(Instruction("movl", (t0, guest_reg(dest.name))))
        return out

    if mnemonic in _SIZED_LOAD:
        dest, mem = insn.operands
        out.append(Instruction(_SIZED_LOAD[mnemonic], (_guest_mem(mem), t0)))
        out.append(Instruction("movl", (t0, guest_reg(dest.name))))
        return out

    if mnemonic in _SIZED_STORE:
        src, mem = insn.operands
        out.append(Instruction("movl", (guest_reg(src.name), t0)))
        out.append(Instruction(_SIZED_STORE[mnemonic], (t0, _guest_mem(mem))))
        return out

    if mnemonic == "cmp":
        a, b = insn.operands
        out.append(Instruction("cmpl", (pc_safe(b), guest_reg(a.name))))
        out.extend(_flag_stores(defn.flags_set))
        return out
    if mnemonic == "cmn":
        a, b = insn.operands
        out.append(Instruction("movl", (guest_reg(a.name), t0)))
        out.append(Instruction("addl", (pc_safe(b), t0)))
        out.extend(_flag_stores(defn.flags_set))
        return out
    if mnemonic == "tst":
        a, b = insn.operands
        out.append(Instruction("testl", (pc_safe(b), guest_reg(a.name))))
        out.extend(_flag_stores(defn.flags_set))
        return out
    if mnemonic == "teq":
        a, b = insn.operands
        out.append(Instruction("movl", (guest_reg(a.name), t0)))
        out.append(Instruction("xorl", (pc_safe(b), t0)))
        out.extend(_flag_stores(defn.flags_set))
        return out

    if defn.is_branch and defn.cond is not None:
        out.extend(_flag_loads(CONDITION_FLAG_USES[defn.cond]))
        out.append(TAKEN_BRANCHES[defn.cond])
        return out

    if mnemonic == "b":
        return out  # the exit stub carries the transfer
    if mnemonic == "bl":
        out.append(Instruction("movl", (Imm((index + 1) * 4), guest_reg("lr"))))
        return out
    if mnemonic == "bx":
        return out  # exit stub reads the register

    if mnemonic == "push":
        reglist = insn.operands[0]
        assert isinstance(reglist, RegList)
        for entry in reversed(reglist.regs):
            out.append(SP_DECREMENT)
            out.append(PUSH_STORES[entry.name])
        return out
    if mnemonic == "pop":
        reglist = insn.operands[0]
        assert isinstance(reglist, RegList)
        for entry in reglist.regs:
            out.append(POP_LOADS[entry.name])
            out.append(SP_INCREMENT)
        return out

    if mnemonic == "mla":
        dest, rn, rm, ra = insn.operands
        out.append(Instruction("movl", (guest_reg(rn.name), t0)))
        out.append(Instruction("imull", (guest_reg(rm.name), t0)))
        out.append(Instruction("addl", (guest_reg(ra.name), t0)))
        out.append(Instruction("movl", (t0, guest_reg(dest.name))))
        return out
    if mnemonic == "umlal":
        lo, hi, rn, rm = insn.operands
        out.append(
            Instruction(
                "helper_umlal",
                (guest_reg(lo.name), guest_reg(hi.name), guest_reg(rn.name), guest_reg(rm.name)),
            )
        )
        return out
    if mnemonic == "clz":
        dest, src = insn.operands
        out.append(Instruction("helper_clz", (guest_reg(dest.name), guest_reg(src.name))))
        return out

    raise ExecutionError(f"no TCG lowering for {insn}")


def _guest_mem(mem: Mem) -> Mem:
    base = guest_reg(mem.base.name) if mem.base is not None else None
    index = guest_reg(mem.index.name) if mem.index is not None else None
    return Mem(base=base, index=index, disp=mem.disp, scale=mem.scale)
