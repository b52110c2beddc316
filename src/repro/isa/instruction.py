"""Instruction and instruction-definition model.

An :class:`Instruction` is a mnemonic plus operands — the unit the DBT
translates.  An :class:`InstructionDef` is the ISA's description of one
mnemonic: its operand signatures, the subgroup it belongs to (the
classification dimension of paper §IV-A), its flag behaviour, and its
executable semantics.

Semantics functions are written once against the value-domain protocol
(:mod:`repro.semantics.domain`) and are reused by the concrete interpreter
and the symbolic executor.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, FrozenSet, Optional, Tuple

from repro.isa.operands import Operand, OperandKind, operand_kinds


class Subgroup(enum.Enum):
    """Instruction subgroups used for classification (paper §IV-A).

    Instructions in the same subgroup (for the same data type) share a
    pseudo-opcode and therefore a parameterized rule.
    """

    ALU = "alu"  # arithmetic and logic
    LOAD = "load"  # data transfer, memory -> register
    STORE = "store"  # data transfer, register -> memory
    COMPARE = "compare"  # flag-setting comparisons
    OTHER = "other"  # branches, stack ops, ISA-specific leftovers

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class DataType(enum.Enum):
    """Coarse data-type embedded in opcodes (paper §IV-A).

    The prototype — like the paper's evaluation — exercises the integer
    subset; the FLOAT member exists so classification logic is total.
    """

    INT = "int"
    FLOAT = "float"


class Instruction:
    """A single decoded instruction: mnemonic + operand tuple.

    Immutable, slotted (no per-instance ``__dict__``), and hashed like the
    ``(mnemonic, operands)`` tuple.  Hash and the assembly rendering are
    cached per instance: instructions serve as memo keys throughout the
    verification pipeline and the translator, and recomputing either would
    re-walk the operand tree on every lookup.  Neither cache is pickled
    (string hashes differ between processes).
    """

    __slots__ = ("mnemonic", "operands", "_hash", "_str")

    mnemonic: str
    operands: Tuple[Operand, ...]

    def __init__(self, mnemonic: str, operands: Tuple[Operand, ...] = ()) -> None:
        _set_mnemonic(self, mnemonic)
        _set_operands(self, operands)
        _set_hash(self, None)
        _set_str(self, None)

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.mnemonic, self.operands)

    def __repr__(self) -> str:
        return f"Instruction(mnemonic={self.mnemonic!r}, operands={self.operands!r})"

    def __str__(self) -> str:
        text = self._str
        if text is None:
            if self.operands:
                text = f"{self.mnemonic} " + ", ".join(
                    str(op) for op in self.operands
                )
            else:
                text = self.mnemonic
            _set_str(self, text)
        return text

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.mnemonic, self.operands))
            _set_hash(self, value)
        return value

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Instruction):
            return NotImplemented
        return self.mnemonic == other.mnemonic and self.operands == other.operands

    @property
    def kinds(self) -> Tuple[OperandKind, ...]:
        return operand_kinds(self.operands)


# Slot setters: ``__init__`` fills the slots past ``__setattr__``.
_set_mnemonic = Instruction.mnemonic.__set__
_set_operands = Instruction.operands.__set__
_set_hash = Instruction._hash.__set__
_set_str = Instruction._str.__set__


#: semantics(state, insn) -> None.  The state carries the value domain.
SemanticsFn = Callable[["object", Instruction], None]


@dataclass(frozen=True)
class InstructionDef:
    """Definition of one mnemonic in an ISA.

    Attributes
    ----------
    mnemonic:
        Assembly mnemonic, e.g. ``"adds"`` or ``"xorl"``.
    signatures:
        Allowed operand-kind shapes.  The first operand-kind tuple is the
        canonical one used in documentation.
    subgroup / data_type:
        Classification per paper §IV-A.
    flags_set / flags_read:
        Canonical flag names written / read by the instruction.
    semantics:
        Executable semantics over the value-domain protocol.  ``None`` only
        for instructions the DBT handles structurally (unreachable default).
    dest_index:
        Operand slot written by the instruction (``None`` for compares,
        stores and branches, which write no register operand).
    source_indices:
        Operand slots read as data sources.
    commutative:
        Whether the *source* operands may be exchanged without changing the
        result (drives the opcode-constraint verification of §IV-C1).
    is_branch / cond / is_call / is_return:
        Control-flow classification; ``cond`` is the condition code of a
        conditional branch.
    """

    mnemonic: str
    signatures: Tuple[Tuple[OperandKind, ...], ...]
    subgroup: Subgroup
    semantics: Optional[SemanticsFn]
    data_type: DataType = DataType.INT
    flags_set: FrozenSet[str] = frozenset()
    flags_read: FrozenSet[str] = frozenset()
    dest_index: Optional[int] = None
    source_indices: Tuple[int, ...] = ()
    commutative: bool = False
    is_branch: bool = False
    cond: Optional[str] = None
    is_call: bool = False
    is_return: bool = False

    def accepts(self, kinds: Tuple[OperandKind, ...]) -> bool:
        """Whether an operand-kind shape is a legal encoding of this def."""
        return kinds in self.signatures
