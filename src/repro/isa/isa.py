"""ISA registry base class.

An :class:`ISA` owns the instruction definitions, the register file layout
and a tiny assembler grammar.  Both concrete ISAs (:mod:`repro.isa.arm`,
:mod:`repro.isa.x86`) subclass nothing — they just build an :class:`ISA`
instance from their definition tables — so the rest of the system is
ISA-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import UnknownInstructionError
from repro.isa.instruction import Instruction, InstructionDef


@dataclass
class ISA:
    """A complete instruction-set description."""

    name: str
    registers: Tuple[str, ...]
    defs: Dict[str, InstructionDef] = field(default_factory=dict)
    pc_register: Optional[str] = None
    sp_register: Optional[str] = None
    #: Registers the compiler / translator may freely allocate.
    allocatable: Tuple[str, ...] = ()

    def add(self, definition: InstructionDef) -> None:
        if definition.mnemonic in self.defs:
            raise ValueError(f"duplicate mnemonic {definition.mnemonic!r} in {self.name}")
        self.defs[definition.mnemonic] = definition

    def add_all(self, definitions: Iterable[InstructionDef]) -> None:
        for definition in definitions:
            self.add(definition)

    def lookup(self, mnemonic: str) -> InstructionDef:
        try:
            return self.defs[mnemonic]
        except KeyError:
            raise UnknownInstructionError(
                f"{self.name} has no instruction {mnemonic!r}"
            ) from None

    def defn(self, insn: Instruction) -> InstructionDef:
        return self.lookup(insn.mnemonic)

    def validate(self, insn: Instruction) -> InstructionDef:
        """Check an instruction against its definition; return the def."""
        definition = self.defn(insn)
        if not definition.accepts(insn.kinds):
            raise UnknownInstructionError(
                f"{self.name}: {insn} does not match any signature of "
                f"{definition.mnemonic!r} {definition.signatures}"
            )
        return definition


def resolve_labels(instructions: Tuple[Instruction, ...]) -> Mapping[str, int]:
    """Build a label -> instruction-index map from ``.label`` pseudo-ops.

    The assemblers emit label definitions as ``Instruction(".label", (Label,))``
    markers; this helper maps each label to the index of the next real
    instruction.
    """
    from repro.isa.operands import Label

    targets: Dict[str, int] = {}
    index = 0
    for insn in instructions:
        if insn.mnemonic == ".label":
            label = insn.operands[0]
            assert isinstance(label, Label)
            targets[label.name] = index
        else:
            index += 1
    return targets
