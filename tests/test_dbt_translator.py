"""Tests for block translation: categories, coverage, flag policies."""

import pytest

from repro.dbt import BlockMap, BlockTranslator, TranslationConfig
from repro.dbt.runtime import DISPATCH_LABEL
from repro.isa.x86.opcodes import X86
from repro.lang import compile_pair

LOOP_SOURCE = """global data[64]; global out[8];
func main() {
  var i, s, x;
  i = 0; s = 0;
loop:
  x = data[i];
  s = s + x;
  i = i + 4;
  if (i <u 32) goto loop;
  out[0] = s;
  return s;
}"""


def translate_all(source, config):
    pair = compile_pair("t", source)
    blockmap = BlockMap(pair.guest)
    translator = BlockTranslator(pair.guest, blockmap, config)
    return pair, [translator.translate(b) for b in blockmap.blocks]


class TestQemuConfig:
    def test_nothing_covered(self):
        _, blocks = translate_all(LOOP_SOURCE, TranslationConfig("qemu"))
        assert all(not any(tb.covered) for tb in blocks)

    def test_categories_well_formed(self):
        _, blocks = translate_all(LOOP_SOURCE, TranslationConfig("qemu"))
        for tb in blocks:
            assert set(tb.categories) <= {"rule", "tcg", "data", "control"}
            assert "rule" not in set(tb.categories)

    def test_blocks_end_with_dispatch(self):
        _, blocks = translate_all(LOOP_SOURCE, TranslationConfig("qemu"))
        for tb in blocks:
            last = tb.host[-1]
            assert last.mnemonic == "jmp"
            assert last.operands[0].name == DISPATCH_LABEL

    def test_exit_stubs_counted_as_control(self):
        _, blocks = translate_all(LOOP_SOURCE, TranslationConfig("qemu"))
        for tb in blocks:
            assert tb.categories[-1] == "control"

    def test_conditional_blocks_have_two_exits(self):
        _, blocks = translate_all(LOOP_SOURCE, TranslationConfig("qemu"))
        conditional = [tb for tb in blocks if "__exit_taken" in tb.labels]
        assert conditional
        for tb in conditional:
            assert sum(1 for i in tb.host if i.mnemonic == "jmp") == 2

    def test_data_transfer_loads_before_body(self):
        _, blocks = translate_all(LOOP_SOURCE, TranslationConfig("qemu"))
        for tb in blocks:
            cats = list(tb.categories)
            if "data" in cats and "tcg" in cats:
                assert cats.index("data") < cats.index("tcg")

    def test_all_host_instructions_are_defined(self):
        _, blocks = translate_all(LOOP_SOURCE, TranslationConfig("qemu"))
        for tb in blocks:
            for insn in tb.host:
                X86.defn(insn)


class TestRuleConfigs:
    def test_learned_rules_increase_coverage(self, demo_pair, demo_setup):
        blockmap = BlockMap(demo_pair.guest)
        baseline = BlockTranslator(
            demo_pair.guest, blockmap, demo_setup.configs["wopara"]
        )
        covered = sum(
            sum(baseline.translate(b).covered) for b in blockmap.blocks
        )
        assert covered > 0

    def test_stage_coverage_monotone(self, demo_pair, demo_setup):
        blockmap = BlockMap(demo_pair.guest)
        totals = []
        for stage in ("qemu", "wopara", "opcode", "addrmode", "condition"):
            translator = BlockTranslator(
                demo_pair.guest, blockmap, demo_setup.configs[stage]
            )
            totals.append(
                sum(sum(translator.translate(b).covered) for b in blockmap.blocks)
            )
        assert totals == sorted(totals)

    def test_eager_flag_policy_spills(self, demo_pair, demo_setup):
        """Non-condition configs spill rule-set flags to the environment."""
        blockmap = BlockMap(demo_pair.guest)
        translator = BlockTranslator(
            demo_pair.guest, blockmap, demo_setup.configs["wopara"]
        )
        stf_count = 0
        for block in blockmap.blocks:
            tb = translator.translate(block)
            for insn, cat in zip(tb.host, tb.categories):
                if cat == "rule" and insn.mnemonic.startswith("st") and insn.mnemonic.endswith("f"):
                    stf_count += 1
        assert stf_count > 0

    def test_condition_config_elides_flag_memory(self, demo_pair, demo_setup):
        """Delegation removes most flag spills (the paper's optimization)."""
        blockmap = BlockMap(demo_pair.guest)

        def flag_glue(stage):
            translator = BlockTranslator(
                demo_pair.guest, blockmap, demo_setup.configs[stage]
            )
            count = 0
            for block in blockmap.blocks:
                tb = translator.translate(block)
                count += sum(
                    1
                    for insn in tb.host
                    if insn.mnemonic.endswith("f")
                    and insn.mnemonic[:2] in ("st", "ld")
                )
            return count

        assert flag_glue("condition") < flag_glue("wopara")

    def test_covered_instruction_count_matches_blocks(self, demo_pair, demo_setup):
        blockmap = BlockMap(demo_pair.guest)
        translator = BlockTranslator(
            demo_pair.guest, blockmap, demo_setup.configs["condition"]
        )
        for block in blockmap.blocks:
            tb = translator.translate(block)
            assert len(tb.covered) == block.size == tb.guest_count


class TestPcConstraint:
    SOURCE = """global g[64]; global out[8];
    func main() { var i, x; i = 4; g[i] = 9; x = g[i]; out[0] = x; return x; }"""

    def test_pc_operand_needs_capability(self, demo_rules):
        from repro.param import build_setup

        pair = compile_pair("t", self.SOURCE, pic=True)
        setup = build_setup(demo_rules)
        blockmap = BlockMap(pair.guest)

        def pic_covered(stage):
            translator = BlockTranslator(pair.guest, blockmap, setup.configs[stage])
            total = 0
            for block in blockmap.blocks:
                tb = translator.translate(block)
                for k, insn in enumerate(blockmap.instructions(block)):
                    uses_pc = any(getattr(op, "name", "") == "pc" for op in insn.operands)
                    if uses_pc and tb.covered[k]:
                        total += 1
            return total

        assert pic_covered("opcode") == 0
        assert pic_covered("condition") > 0


class TestSharedGlue:
    """Fixed host operands and glue instructions are per-process objects:
    every block of every engine emits the runtime's own, never a copy."""

    @staticmethod
    def _blocks(unit, config):
        from repro.dbt import DBTEngine

        engine = DBTEngine(unit, config, chaining=True, backend="jit")
        engine.run()
        return [entry.tb for entry in engine.code_cache.values()]

    @staticmethod
    def _regs(insn):
        from repro.isa.operands import Mem, Reg

        for op in insn.operands:
            if isinstance(op, Reg):
                yield op
            elif isinstance(op, Mem):
                yield from (r for r in (op.base, op.index) if r is not None)

    @pytest.mark.parametrize("stage", ["qemu", "condition"])
    def test_two_programs_share_glue_objects(self, demo_pair, demo_setup, stage):
        from repro.dbt import runtime

        config = demo_setup.configs[stage]
        programs = [
            self._blocks(demo_pair.guest, config),
            self._blocks(compile_pair("t", LOOP_SOURCE).guest, config),
        ]
        tables = {
            "entry": runtime.ENTRY_LOADS,
            "exit": runtime.EXIT_STORES,
            "pc": runtime.PC_STORES,
            "spill": runtime.FLAG_SPILLS,
            "fill": runtime.FLAG_FILLS,
            "jmp": {"": runtime.JMP_DISPATCH},
        }
        shared = {
            insn: (kind, insn) for kind, table in tables.items() for insn in table.values()
        }
        scratch = {id(reg) for reg in runtime.SCRATCH_REGS}
        used = []
        for blocks in programs:
            kinds = set()
            for tb in blocks:
                for insn in tb.host:
                    if insn in shared:
                        kind, glue = shared[insn]
                        assert insn is glue, f"copy of shared glue {insn}"
                        kinds.add(kind)
                    for reg in self._regs(insn):
                        assert (
                            reg is runtime.GUEST_REGS.get(reg.name[2:])
                            or id(reg) in scratch
                        ), f"{reg} in {insn} is not the runtime's"
            used.append(kinds)
        # Delegation keeps the demo's flags in host flags at "condition".
        spills = set() if stage == "condition" else {"spill", "fill"}
        assert {"entry", "exit", "pc", "jmp"} | spills <= used[0] | used[1]
        assert {"entry", "exit", "jmp"} <= used[0] & used[1]
        # The template form binds each glue instruction once per process,
        # and the glue object keeps its function.
        assert all(isinstance(insn, runtime.SharedInstruction) for insn in shared)
        assert any(insn.bound is not None for insn in shared)
