"""The slotted :class:`Instruction` contract.

An instruction is immutable and has no instance ``__dict__``; it hashes
like its ``(mnemonic, operands)`` tuple, caches that hash and its assembly
text, and pickles and copies without either cache (string hashes differ
between processes).  Shared host instructions
(:class:`repro.dbt.runtime.SharedInstruction`) keep the same contract.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings

from repro.dbt.runtime import SharedInstruction
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg
from tests.strategies import x86_instructions

SAMPLES = [
    Instruction("movl", (Imm(7), Reg("t0"))),
    Instruction("addl", (Mem(base=Reg("g_r1"), index=Reg("g_r2"), scale=4, disp=8), Reg("g_r3"))),
    Instruction("jne", (Label("__exit_taken"),)),
    Instruction("ret"),
    SharedInstruction("testl", (Reg("g_r0"), Reg("g_r0"))),
]


@pytest.mark.parametrize("insn", SAMPLES, ids=str)
class TestSlots:
    def test_no_instance_dict(self, insn):
        str(insn), hash(insn), insn == insn
        assert not hasattr(insn, "__dict__")

    def test_assignment_and_deletion_raise(self, insn):
        for name in ("mnemonic", "operands", "_hash", "_str", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(insn, name, None)
        with pytest.raises(FrozenInstanceError):
            del insn.mnemonic
        assert insn == Instruction(insn.mnemonic, insn.operands)

    def test_hash_and_text_are_cached(self, insn):
        assert hash(insn) == hash((insn.mnemonic, insn.operands))
        assert insn._hash == hash(insn)
        text = str(insn)
        assert str(insn) is text and insn._str is text

    def test_repr_names_the_plain_class(self, insn):
        assert repr(insn) == (
            f"Instruction(mnemonic={insn.mnemonic!r}, operands={insn.operands!r})"
        )


@settings(max_examples=60, deadline=None)
@given(insn=x86_instructions())
def test_pickle_and_deepcopy_round_trip(insn):
    hash(insn), str(insn)
    for clone in (pickle.loads(pickle.dumps(insn)), copy.deepcopy(insn)):
        assert clone is not insn and type(clone) is Instruction
        assert clone._hash is None and clone._str is None  # caches not carried
        assert clone == insn and hash(clone) == hash(insn)
        assert str(clone) == str(insn) and repr(clone) == repr(insn)


def test_shared_instruction_copies_without_its_binding():
    shared = SharedInstruction("movl", (Imm(4), Reg("t4")))
    shared.keep_bound(frozenset(), len)
    shared.keep_bound(frozenset("N"), abs)  # the first binding is kept
    assert shared.bound == (frozenset(), len)
    for clone in (pickle.loads(pickle.dumps(shared)), copy.deepcopy(shared)):
        assert type(clone) is SharedInstruction and clone.bound is None
        assert clone == shared == Instruction("movl", (Imm(4), Reg("t4")))
        assert hash(clone) == hash(shared)
