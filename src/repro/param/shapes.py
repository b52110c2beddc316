"""Target shapes for rule derivation.

A *target* is one concrete (opcode, operand-kind shape, register-dependency
pattern) combination that parameterization may derive a rule for.  The kind
shape covers the addressing-mode dimension (§IV-B) — including the memory
sub-shapes ``[base]``, ``[base, #disp]``, ``[base, index]`` — and the
pattern covers the intra-rule register-equality constraints of fig. 8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.isa.arm.opcodes import ARM
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Mem, OperandKind as K, Reg

#: Probe values used when materializing targets for verification.
PROBE_IMM = 0x1A2B
PROBE_DISP = 0x30

#: Memory sub-shapes (addressing-mode dimension for MEM operands).
MemShape = str  # "base" | "base+disp" | "base+index"
MEM_SHAPES: Tuple[MemShape, ...] = ("base", "base+disp", "base+index")

#: Guest registers used to materialize patterns (allocatable, never pc/sp).
_GUEST_REGS = ("r0", "r1", "r2", "r3")


@dataclass(frozen=True)
class OperandShape:
    """Shape of one operand: a kind plus (for MEM) the sub-shape."""

    kind: K
    mem_shape: Optional[MemShape] = None

    @property
    def reg_slots(self) -> int:
        """How many register slots this operand contributes."""
        if self.kind is K.REG:
            return 1
        if self.kind is K.MEM:
            return 2 if self.mem_shape == "base+index" else 1
        return 0


@dataclass(frozen=True)
class TargetShape:
    """One derivation target (minus the opcode)."""

    operands: Tuple[OperandShape, ...]
    #: register slot index per register position, flattened across operands
    #: in order (fig. 8 dependency pattern).  ``(0, 0, 1)`` means the first
    #: two register positions share a register.
    pattern: Tuple[int, ...]

    @property
    def distinct_regs(self) -> int:
        return max(self.pattern) + 1 if self.pattern else 0


def _set_partitions(n: int) -> Iterator[Tuple[int, ...]]:
    """All canonical equality patterns over *n* positions.

    Patterns are restricted-growth strings: position 0 is slot 0, each later
    position reuses an earlier slot or opens the next one.
    """

    def extend(prefix: List[int], used: int) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for slot in range(used + 1):
            yield from extend(prefix + [slot], max(used, slot + 1))

    if n == 0:
        yield ()
    else:
        yield from extend([0], 1)


def enumerate_shapes(mnemonic: str) -> Iterator[TargetShape]:
    """All legal target shapes for a guest mnemonic.

    Legality comes from the guest ISA signatures, which encode the §IV-B
    guidelines (no immediate destinations, no memory on RISC ALU ops, loads
    read memory, stores write memory).
    """
    defn = ARM.lookup(mnemonic)
    for signature in defn.signatures:
        mem_choices = [
            MEM_SHAPES if kind is K.MEM else (None,) for kind in signature
        ]
        for mem_combo in itertools.product(*mem_choices):
            operands = tuple(
                OperandShape(kind, mem_shape)
                for kind, mem_shape in zip(signature, mem_combo)
            )
            positions = sum(shape.reg_slots for shape in operands)
            for pattern in _set_partitions(positions):
                if max(pattern, default=-1) + 1 > len(_GUEST_REGS):
                    continue
                yield TargetShape(operands, pattern)


def build_guest_instruction(mnemonic: str, shape: TargetShape) -> Instruction:
    """Materialize a target as a concrete guest instruction (probe values)."""
    slots = iter(shape.pattern)
    operands = []
    for op_shape in shape.operands:
        if op_shape.kind is K.REG:
            operands.append(Reg(_GUEST_REGS[next(slots)]))
        elif op_shape.kind is K.IMM:
            operands.append(Imm(PROBE_IMM))
        elif op_shape.kind is K.MEM:
            base = Reg(_GUEST_REGS[next(slots)])
            if op_shape.mem_shape == "base":
                operands.append(Mem(base=base))
            elif op_shape.mem_shape == "base+disp":
                operands.append(Mem(base=base, disp=PROBE_DISP))
            else:
                operands.append(Mem(base=base, index=Reg(_GUEST_REGS[next(slots)])))
        else:
            raise ValueError(f"unsupported operand kind {op_shape.kind}")
    return Instruction(mnemonic, tuple(operands))


def shape_of_instruction(insn: Instruction) -> TargetShape:
    """Recover the target shape of a concrete guest instruction."""
    operands = []
    reg_names: List[str] = []
    for op in insn.operands:
        if isinstance(op, Reg):
            operands.append(OperandShape(K.REG))
            reg_names.append(op.name)
        elif isinstance(op, Imm):
            operands.append(OperandShape(K.IMM))
        elif isinstance(op, Mem):
            if op.index is not None:
                operands.append(OperandShape(K.MEM, "base+index"))
                reg_names.append(op.base.name)
                reg_names.append(op.index.name)
            elif op.disp:
                operands.append(OperandShape(K.MEM, "base+disp"))
                reg_names.append(op.base.name)
            else:
                operands.append(OperandShape(K.MEM, "base"))
                reg_names.append(op.base.name)
        else:
            raise ValueError(f"unsupported operand {op!r}")
    slot_of: dict = {}
    pattern = []
    for name in reg_names:
        slot_of.setdefault(name, len(slot_of))
        pattern.append(slot_of[name])
    return TargetShape(tuple(operands), tuple(pattern))
