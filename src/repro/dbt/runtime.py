"""Runtime conventions shared by the translators and the host executor.

Guest architectural state lives in an in-memory CPU environment (QEMU's
``CPUState``): registers and condition flags each get a word slot at
:data:`ENV_BASE`.  Within a translated block, guest registers are held in
*virtual host registers* named ``g_<reg>`` (the block prologue loads them
from the environment, exits store them back — the paper's "data transfer"
instructions).  ``t0``/``t1``/... are block-local scratch registers.

Translated code addresses guest memory directly (user-mode QEMU identity
mapping), so the environment region is placed outside the workload address
space.

This module owns every fixed host operand and glue instruction the
translators emit.  Each is built once per process and every block shares
the same objects: operands and instructions are immutable, and a
per-block copy would only be more objects for the cyclic collector to
walk.  Glue over the finite domains below (registers, flags) lives in
eager tables; glue that names a guest address (exit-stub targets,
materialized PCs) lives in bounded, named memos.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cache import BoundedMemo
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.x86.opcodes import _COND_TO_JCC

#: Base address of the emulated CPU environment.
ENV_BASE = 0x00F0_0000

_REG_ORDER = tuple(f"r{i}" for i in range(13)) + ("sp", "lr", "pc")
_FLAG_ORDER = ("N", "Z", "C", "V")

#: Number of word slots in the CPU environment (registers, then flags).
ENV_SLOTS = len(_REG_ORDER) + len(_FLAG_ORDER)

_REG_SLOT = {name: i for i, name in enumerate(_REG_ORDER)}
_FLAG_SLOT = {name: len(_REG_ORDER) + i for i, name in enumerate(_FLAG_ORDER)}

#: Scratch registers: ``t0``–``t3`` are TCG temporaries, ``t4`` holds a
#: materialized PC and ``t5`` onward a rule's host temporaries (at most one
#: per host register, of which the host ISA has 8).
_SCRATCH_COUNT = 5 + 8

#: Guest "address" that means "halt the machine" when control reaches it.
HALT_ADDRESS = 0xFFFF_FFF0

#: Label the block-exit stubs jump to (the translator's dispatch loop).
DISPATCH_LABEL = "__dispatch"


def env_reg_addr(name: str) -> int:
    return ENV_BASE + 4 * _REG_SLOT[name]


def env_flag_addr(flag: str) -> int:
    return ENV_BASE + 4 * _FLAG_SLOT[flag]


GUEST_REGS: Dict[str, Reg] = {name: Reg(f"g_{name}") for name in _REG_ORDER}
SCRATCH_REGS: Tuple[Reg, ...] = tuple(Reg(f"t{i}") for i in range(_SCRATCH_COUNT))
_ENV_REG_MEMS: Dict[str, Mem] = {
    name: Mem(disp=env_reg_addr(name)) for name in _REG_ORDER
}
_ENV_FLAG_MEMS: Dict[str, Mem] = {
    flag: Mem(disp=env_flag_addr(flag)) for flag in _FLAG_ORDER
}

class SharedInstruction(Instruction):
    """A host instruction object that many blocks emit.

    The runtime's glue below is built once per process, and the translator
    shares each memoized rule body (:mod:`repro.dbt.translator`) the same
    way.  ``bound`` keeps the instruction's first template-form binding as
    a ``(dead-flag set, function)`` pair (:func:`repro.dbt.compiler.bind_block`
    fills it), so a shared instruction is bound once and its function lives
    exactly as long as it does.  It is recognized by type, not by ``id``:
    an evicted memo entry takes its marker with it.
    """

    __slots__ = ("bound",)

    def __init__(self, mnemonic: str, operands: Tuple) -> None:
        super().__init__(mnemonic, operands)
        _set_bound(self, None)

    def keep_bound(self, dead, fn) -> None:
        """Remember *fn* as the binding for *dead*, unless one is kept."""
        if self.bound is None:
            _set_bound(self, (dead, fn))


_set_bound = SharedInstruction.bound.__set__

#: Block prologue: ``movl [env_X], g_X`` per guest register.
ENTRY_LOADS: Dict[str, SharedInstruction] = {
    name: SharedInstruction("movl", (_ENV_REG_MEMS[name], GUEST_REGS[name]))
    for name in _REG_ORDER
}
#: Exit stub: ``movl_s g_X, [env_X]`` per guest register.
EXIT_STORES: Dict[str, SharedInstruction] = {
    name: SharedInstruction("movl_s", (GUEST_REGS[name], _ENV_REG_MEMS[name]))
    for name in _REG_ORDER
}
#: ``bx X`` exit: ``movl_s g_X, [env_pc]`` per guest register.
PC_STORES: Dict[str, SharedInstruction] = {
    name: SharedInstruction("movl_s", (GUEST_REGS[name], _ENV_REG_MEMS["pc"]))
    for name in _REG_ORDER
}
#: Flag recomputation after a rule: ``testl g_X, g_X`` per guest register.
TESTS: Dict[str, SharedInstruction] = {
    name: SharedInstruction("testl", (GUEST_REGS[name], GUEST_REGS[name]))
    for name in _REG_ORDER
}
#: Host-flag spill (``st<f>f [env_F]``) and fill (``ld<f>f [env_F]``) per flag.
FLAG_SPILLS: Dict[str, SharedInstruction] = {
    flag: SharedInstruction(f"st{flag.lower()}f", (_ENV_FLAG_MEMS[flag],))
    for flag in _FLAG_ORDER
}
FLAG_FILLS: Dict[str, SharedInstruction] = {
    flag: SharedInstruction(f"ld{flag.lower()}f", (_ENV_FLAG_MEMS[flag],))
    for flag in _FLAG_ORDER
}
#: Every exit stub's last instruction.
JMP_DISPATCH = SharedInstruction("jmp", (Label(DISPATCH_LABEL),))

#: The label a block's taken-branch exit stub carries, and the TCG branch
#: to it per guest condition: ``j<cc> __exit_taken``.
EXIT_TAKEN = "__exit_taken"
TAKEN_BRANCHES: Dict[str, SharedInstruction] = {
    cond: SharedInstruction(jcc, (Label(EXIT_TAKEN),))
    for cond, jcc in _COND_TO_JCC.items()
}
#: TCG ``push``/``pop`` steps: ``subl #4, g_sp`` then ``movl_s g_X, [g_sp]``
#: per pushed register, ``movl [g_sp], g_X`` then ``addl #4, g_sp`` per
#: popped one.
_STACK_TOP = Mem(base=GUEST_REGS["sp"])
SP_DECREMENT = SharedInstruction("subl", (Imm(4), GUEST_REGS["sp"]))
SP_INCREMENT = SharedInstruction("addl", (Imm(4), GUEST_REGS["sp"]))
PUSH_STORES: Dict[str, SharedInstruction] = {
    name: SharedInstruction("movl_s", (GUEST_REGS[name], _STACK_TOP))
    for name in _REG_ORDER
}
POP_LOADS: Dict[str, SharedInstruction] = {
    name: SharedInstruction("movl", (_STACK_TOP, GUEST_REGS[name]))
    for name in _REG_ORDER
}

#: Exit stub ``movl_s #4*target, [env_pc]`` by target guest index, and the
#: materialized PC ``movl #pc, t4`` before a PC-reading rule by PC value.
#: Both domains are bounded by the longest program (the benchmark corpus's
#: has 1,607 instructions), and an evicted entry is only rebuilt.
_EXIT_PC_STORES = BoundedMemo(maxsize=1 << 12, name="dbt.runtime.exit_pc_stores")
_PC_LOADS = BoundedMemo(maxsize=1 << 12, name="dbt.runtime.pc_loads")


def exit_pc_store(target_index: int) -> SharedInstruction:
    """The exit stub storing guest index *target_index* as the next PC."""
    insn = _EXIT_PC_STORES.get(target_index, None)
    if insn is None:
        operands = (Imm(target_index * 4), _ENV_REG_MEMS["pc"])
        insn = SharedInstruction("movl_s", operands)
        _EXIT_PC_STORES.put(target_index, insn)
    return insn


def pc_load(pc_value: int) -> SharedInstruction:
    """``movl #pc_value, t4``: a PC read materialized for a rule (fig. 9)."""
    insn = _PC_LOADS.get(pc_value, None)
    if insn is None:
        insn = SharedInstruction("movl", (Imm(pc_value), SCRATCH_REGS[4]))
        _PC_LOADS.put(pc_value, insn)
    return insn


def env_pc_mem() -> Mem:
    return _ENV_REG_MEMS["pc"]


def env_pc_word() -> int:
    """Word index of the guest-PC environment slot (dispatch-loop fast path)."""
    return env_reg_addr("pc") // 4


def guest_reg(name: str) -> Reg:
    """The virtual host register holding guest register *name*."""
    return GUEST_REGS[name]


def scratch_reg(index: int) -> Reg:
    return SCRATCH_REGS[index]


def is_env_address(addr: int) -> bool:
    return ENV_BASE <= addr < ENV_BASE + 4 * ENV_SLOTS
