"""Load handwritten guest assembly as an executable unit.

The compiler pipeline is the normal way to produce guest binaries, but the
DBT itself only needs a :class:`~repro.lang.program.CompiledUnit`.  This
loader assembles raw ARM-like text into one, so users (and tests) can drive
the translator with programs the compiler would never emit — cross-block
flag usage, hand-scheduled carry chains, PC arithmetic, and so on.

Example::

    unit = unit_from_assembly('''
    fn_main:
        mov r0, #0
        mov r1, #10
    loop:
        add r0, r0, r1
        subs r1, r1, #1
        bne loop
        bx lr
    ''')
    result = DBTEngine(unit, config).run()

Only ``b``/``bl``/``bx`` transfer control.  A program that writes the PC
any other way (``add pc, ...``, ``ldr pc, [...]``, ``pop {..., pc}``) is
rejected here: neither the reference interpreter nor the DBT models such a
write as a branch, so both would fall through it in agreement, and no
differential test could see the gap.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import AssemblyError
from repro.isa.arm import assemble
from repro.isa.arm.opcodes import ARM
from repro.isa.instruction import Instruction
from repro.isa.operands import Reg
from repro.lang.program import CompiledUnit


def _writes_pc(insn: Instruction) -> bool:
    """Whether *insn* writes the PC other than as a ``b``/``bl``/``bx``."""
    if insn.mnemonic == "pop":
        written = insn.operands[0].regs
    else:
        slots = {ARM.defn(insn).dest_index}
        if insn.mnemonic == "umlal":
            slots.add(1)  # umlal writes both accumulator halves
        written = [insn.operands[k] for k in slots if k is not None]
    return any(isinstance(op, Reg) and op.name == "pc" for op in written)


def unit_from_assembly(
    source: str,
    globals_layout: Optional[Dict[str, int]] = None,
) -> CompiledUnit:
    """Assemble ARM-like text into a guest unit.

    Every label of the form ``fn_<name>:`` is registered as a function
    entry; execution starts at ``fn_main`` by default.  A ``fn_main`` label
    is prepended if the source defines no functions at all.  Raises
    :class:`~repro.errors.AssemblyError` on a PC write outside
    ``b``/``bl``/``bx``.
    """
    instructions = assemble(source)
    func_labels: Dict[str, str] = {}
    for insn in instructions:
        if insn.mnemonic == ".label":
            name = insn.operands[0].name
            if name.startswith("fn_"):
                func_labels[name[3:]] = name
        elif _writes_pc(insn):
            raise AssemblyError(f"{insn}: writes the PC; only b/bl/bx transfer control")
    if not func_labels:
        from repro.isa.operands import Label

        instructions = (Instruction(".label", (Label("fn_main"),)),) + instructions
        func_labels["main"] = "fn_main"
    return CompiledUnit(
        isa_name="arm",
        instructions=instructions,
        tags=(None,) * len(instructions),
        func_labels=func_labels,
        globals_layout=dict(globals_layout or {}),
    )
