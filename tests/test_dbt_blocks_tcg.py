"""Tests for basic-block discovery and the TCG fallback lowering."""

import pytest

from repro.dbt import BlockMap
from repro.dbt.tcg import lower
from repro.isa.arm import assemble as arm, parse_line
from repro.isa.x86.opcodes import X86
from repro.lang import compile_pair


class TestBlockMap:
    SOURCE = """global out[8];
    func main() {
      var i, s;
      i = 0; s = 0;
    loop:
      s = s + i;
      i = i + 1;
      if (i < 4) goto loop;
      out[0] = s;
      return s;
    }"""

    @pytest.fixture(scope="class")
    def blockmap(self):
        pair = compile_pair("t", self.SOURCE)
        return BlockMap(pair.guest)

    def test_blocks_partition_instructions(self, blockmap):
        n = len(blockmap.unit.real_instructions)
        covered = []
        for block in blockmap.blocks:
            covered.extend(range(block.start, block.end))
        assert covered == list(range(n))

    def test_branches_terminate_blocks(self, blockmap):
        from repro.isa.arm.opcodes import ARM

        for block in blockmap.blocks:
            for insn in blockmap.instructions(block)[:-1]:
                assert not ARM.defn(insn).is_branch

    def test_label_targets_are_leaders(self, blockmap):
        for index in blockmap.unit.labels.values():
            if index < len(blockmap.unit.real_instructions):
                assert blockmap.block_at(index).start == index

    def test_live_in_flags_empty_for_compiled_code(self, blockmap):
        assert blockmap.live_in_flags() == frozenset()

    def test_live_in_flags_detects_cross_block_use(self):
        from repro.lang.program import CompiledUnit

        insns = arm("cmp r0, r1\nb .x\n.x:\nbne .x")
        unit = CompiledUnit(
            isa_name="arm",
            instructions=insns,
            tags=(None,) * len(insns),
            func_labels={},
            globals_layout={},
        )
        assert "Z" in BlockMap(unit).live_in_flags()


class TestTcgLowering:
    def lowered(self, text, index=0):
        insns = lower(parse_line(text), index)
        for insn in insns:
            X86.defn(insn)  # every lowered insn must be a defined host insn
        return insns

    def test_alu_three_step(self):
        insns = self.lowered("add r0, r1, r2")
        assert [i.mnemonic for i in insns] == ["movl", "addl", "movl"]

    def test_flag_setter_stores_to_env(self):
        insns = self.lowered("adds r0, r1, r2")
        stores = [i for i in insns if i.mnemonic.startswith("st") and i.mnemonic.endswith("f")]
        assert len(stores) == 4

    def test_logical_s_stores_only_nz(self):
        insns = self.lowered("ands r0, r1, r2")
        stores = {i.mnemonic for i in insns if i.mnemonic.endswith("f") and i.mnemonic.startswith("st")}
        assert stores == {"stnf", "stzf"}

    def test_carry_user_reloads(self):
        insns = self.lowered("adc r0, r1, r2")
        assert any(i.mnemonic == "ldcf" for i in insns)

    def test_rsb_swaps(self):
        insns = self.lowered("rsb r0, r1, #5")
        # movl $5, t0; subl g_r1, t0; movl t0, g_r0
        assert insns[0].operands[0].value == 5
        assert insns[1].mnemonic == "subl"

    def test_conditional_branch_reads_env_flags(self):
        insns = self.lowered("bne .L")
        assert insns[0].mnemonic == "ldzf"
        assert insns[-1].mnemonic == "jne"
        assert insns[-1].operands[0].name == "__exit_taken"

    def test_pc_read_materialized(self):
        insns = self.lowered("add r0, pc, #8", index=10)
        assert insns[0].mnemonic == "movl"
        assert insns[0].operands[0].value == 10 * 4 + 8

    def test_bl_sets_link_register(self):
        insns = self.lowered("bl fn_x", index=7)
        assert insns[0].operands[0].value == 8 * 4

    def test_push_expands_per_register(self):
        insns = self.lowered("push {r4, r5, r6}")
        assert len(insns) == 6

    def test_branch_and_stack_steps_are_runtime_objects(self):
        from repro.dbt import runtime

        def ids(insns):
            return [id(insn) for insn in insns]

        assert self.lowered("bne .L")[-1] is runtime.TAKEN_BRANCHES["ne"]
        assert ids(self.lowered("push {r4, lr}")) == ids([
            runtime.SP_DECREMENT,
            runtime.PUSH_STORES["lr"],
            runtime.SP_DECREMENT,
            runtime.PUSH_STORES["r4"],
        ])
        assert ids(self.lowered("pop {r4, pc}")) == ids([
            runtime.POP_LOADS["r4"],
            runtime.SP_INCREMENT,
            runtime.POP_LOADS["pc"],
            runtime.SP_INCREMENT,
        ])

    def test_umlal_uses_helper(self):
        insns = self.lowered("umlal r0, r1, r2, r3")
        assert insns[0].mnemonic == "helper_umlal"

    def test_clz_uses_helper(self):
        insns = self.lowered("clz r0, r1")
        assert insns[0].mnemonic == "helper_clz"

    def test_every_guest_mnemonic_lowers(self):
        """TCG must be total over the guest ISA (it is the fallback)."""
        from repro.isa.arm.opcodes import ARM
        from repro.isa.instruction import Instruction
        from repro.param.shapes import build_guest_instruction, enumerate_shapes

        for mnemonic, defn in ARM.defs.items():
            if mnemonic in ("push", "pop"):
                insn = parse_line(f"{mnemonic} {{r4, r5}}")
            elif defn.is_branch:
                insn = (
                    parse_line(f"{mnemonic} .L")
                    if not defn.is_return
                    else parse_line("bx lr")
                )
            elif mnemonic in ("mla", "umlal"):
                insn = parse_line(f"{mnemonic} r0, r1, r2, r3")
            else:
                shape = next(iter(enumerate_shapes(mnemonic)), None)
                if shape is None:
                    continue
                insn = build_guest_instruction(mnemonic, shape)
            lowered = lower(insn, 0)
            assert lowered is not None
