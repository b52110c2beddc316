"""Operand model shared by the guest (ARM-like) and host (x86-like) ISAs.

Operands are immutable and hashable so they can key rule-lookup tables.
The operand *kind* (register / immediate / memory / label / register list)
is the unit the parameterization framework generalizes over in the
addressing-mode dimension (paper §IV-B).  Each class's ``kind`` is a
constant, so it takes no part in equality or hashing: the generated
``__eq__`` already requires the same class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class OperandKind(enum.Enum):
    """The addressing-mode category of a single operand."""

    REG = "reg"
    IMM = "imm"
    MEM = "mem"
    LABEL = "label"
    REGLIST = "reglist"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Operand:
    """Base class for operands."""

    __slots__ = ()

    kind: OperandKind


@dataclass(frozen=True)
class Reg(Operand):
    """A register operand, e.g. ``r3`` or ``eax``."""

    name: str
    kind: OperandKind = field(default=OperandKind.REG, init=False, compare=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm(Operand):
    """An immediate operand.  Values are 32-bit two's-complement integers."""

    value: int
    kind: OperandKind = field(default=OperandKind.IMM, init=False, compare=False)

    def __str__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True)
class Mem(Operand):
    """A memory operand: ``[base]``, ``[base, #disp]`` or ``[base, index]``.

    The x86 side renders the same structure as ``disp(base)`` /
    ``disp(base,index,scale)``.  ``scale`` is only meaningful with an index.
    """

    base: Optional[Reg] = None
    index: Optional[Reg] = None
    disp: int = 0
    scale: int = 1
    kind: OperandKind = field(default=OperandKind.MEM, init=False, compare=False)

    def __str__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(str(self.base))
        if self.index is not None:
            entry = str(self.index)
            if self.scale != 1:
                entry += f"*{self.scale}"
            parts.append(entry)
        if self.disp or not parts:
            parts.append(f"#{self.disp}")
        return "[" + ", ".join(parts) + "]"


@dataclass(frozen=True)
class Label(Operand):
    """A branch-target label (resolved to an instruction index at link time)."""

    name: str
    kind: OperandKind = field(default=OperandKind.LABEL, init=False, compare=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RegList(Operand):
    """A register list for ``push``/``pop``."""

    regs: Tuple[Reg, ...]
    kind: OperandKind = field(default=OperandKind.REGLIST, init=False, compare=False)

    def __str__(self) -> str:
        return "{" + ", ".join(str(r) for r in self.regs) + "}"


def operand_kinds(operands: Tuple[Operand, ...]) -> Tuple[OperandKind, ...]:
    """The addressing-mode shape of an operand tuple."""
    return tuple(op.kind for op in operands)
