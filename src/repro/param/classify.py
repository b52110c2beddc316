"""Instruction classification for parameterization (paper §IV-A).

Instructions are grouped first by data type, then into the five subgroups
(arithmetic/logic, load-side data transfer, store-side data transfer,
compare, other) — that classification already lives on each
:class:`~repro.isa.instruction.InstructionDef`.  This module adds what the
parameterization engine needs on top:

* the guest→host opcode correspondence *within* corresponding subgroups
  (``guestpara_opi`` → ``hostpara_opi``), including the fixup transforms for
  "complex sibling" instructions (§IV-C1, fig. 7) whose host realization
  needs auxiliary instructions;
* enumeration of the parameterizable guest opcodes and their legal operand
  shapes (the ISA signatures implement the addressing-mode guidelines of
  §IV-B: destinations are never immediates, RISC ALU operands are never
  memory, load sources / store targets are always memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.isa.arm.opcodes import ARM
from repro.isa.instruction import Subgroup


@dataclass(frozen=True)
class HostOp:
    """How a guest opcode is realized on the host.

    ``transform`` names a template surgery applied during derivation:

    ============== ======================================================
    ``None``        direct mnemonic substitution
    ``swap``        exchange the two guest source operands (rsb/rsc)
    ``invert_src``  invert the second source through a scratch (bic)
    ``not_dest``    append ``notl dst`` (mvn)
    ``via_scratch`` compute flags in a scratch register (cmn)
    ============== ======================================================
    """

    mnemonic: str
    transform: Optional[str] = None


#: Guest mnemonic -> host realization, for every parameterizable opcode.
OPCODE_MAP: Dict[str, HostOp] = {
    # ALU: arithmetic.
    "add": HostOp("addl"),
    "adds": HostOp("addl"),
    "adc": HostOp("adcl"),
    "adcs": HostOp("adcl"),
    "sub": HostOp("subl"),
    "subs": HostOp("subl"),
    "sbc": HostOp("sbbl"),
    "sbcs": HostOp("sbbl"),
    "rsb": HostOp("subl", "swap"),
    "rsbs": HostOp("subl", "swap"),
    "rsc": HostOp("sbbl", "swap"),
    "rscs": HostOp("sbbl", "swap"),
    # ALU: logic.
    "and": HostOp("andl"),
    "ands": HostOp("andl"),
    "orr": HostOp("orl"),
    "orrs": HostOp("orl"),
    "eor": HostOp("xorl"),
    "eors": HostOp("xorl"),
    "bic": HostOp("andl", "invert_src"),
    "bics": HostOp("andl", "invert_src"),
    # ALU: shifts and multiply.
    "lsl": HostOp("shll"),
    "lsls": HostOp("shll"),
    "lsr": HostOp("shrl"),
    "lsrs": HostOp("shrl"),
    "asr": HostOp("sarl"),
    "asrs": HostOp("sarl"),
    "mul": HostOp("imull"),
    "muls": HostOp("imull"),
    # LOAD subgroup (data transfer into a register).
    "mov": HostOp("movl"),
    "movs": HostOp("movl"),
    "mvn": HostOp("movl", "not_dest"),
    "mvns": HostOp("movl", "not_dest"),
    "ldr": HostOp("movl"),
    "ldrb": HostOp("movzbl"),
    "ldrh": HostOp("movzwl"),
    # STORE subgroup.
    "str": HostOp("movl_s"),
    "strb": HostOp("movb"),
    "strh": HostOp("movw"),
    # COMPARE subgroup.
    "cmp": HostOp("cmpl"),
    "cmn": HostOp("addl", "via_scratch"),
    "tst": HostOp("testl"),
    "teq": HostOp("cmpl"),
}

#: Host ALU/compare mnemonics that can appear as the parameterized position
#: of a rule (everything else in a host template is auxiliary).
HOST_PARAM_MNEMONICS = frozenset(
    {
        "addl",
        "adcl",
        "subl",
        "sbbl",
        "andl",
        "orl",
        "xorl",
        "imull",
        "shll",
        "shrl",
        "sarl",
        "movl",
        "movzbl",
        "movzwl",
        "movl_s",
        "movb",
        "movw",
        "cmpl",
        "testl",
    }
)

#: Guest mnemonics excluded from parameterization entirely (subgroup OTHER —
#: branches keep their learned rules; the paper's seven unlearnable
#: instructions live here too).
UNPARAMETERIZABLE = frozenset(
    name for name, d in ARM.defs.items() if d.subgroup is Subgroup.OTHER
)


def parameterizable_opcodes(subgroup: Subgroup) -> Tuple[str, ...]:
    """Guest opcodes of a subgroup that participate in parameterization."""
    return tuple(
        name
        for name, d in ARM.defs.items()
        if d.subgroup is subgroup and name in OPCODE_MAP
    )


#: Memory-operand sub-shapes enumerated by addressing-mode parameterization.
MEM_SHAPES = ("base", "base+disp", "base+index")
