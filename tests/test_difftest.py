"""The differential-testing subsystem: generator, oracle, shrinker, campaign.

Covers the issue's acceptance properties at test scale: deterministic
seeded generation, divergence-free campaigns on the real translator,
fault-injection self-checks (a planted translator bug must be found and
shrunk to a handful of instructions), byte-identical reports across runs
and across ``--jobs``, and the executor defs-cache pinning regression.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.difftest.campaign import DifftestOptions, run_difftest
from repro.difftest.gen import (
    BucketCoverage,
    ProgramGenerator,
    bucket_id,
    bucket_universe,
    program_buckets,
)
from repro.difftest.oracle import (
    InvalidProgram,
    assemble_program,
    config_with_fault,
    diff_snapshots,
    run_oracle,
    stage_config,
)
from repro.difftest.shrink import shrink_program
from repro.parallel import set_jobs


@pytest.fixture(autouse=True)
def _serial_default():
    yield
    set_jobs(1)


class TestGenerator:
    def test_bucket_universe_is_stable(self):
        universe = bucket_universe()
        assert len(universe) == len(set(universe))
        assert len(universe) > 300  # (opcode, shape, liveness) combinations

    def test_generation_is_deterministic(self):
        a = ProgramGenerator(7).generate(3, [])
        b = ProgramGenerator(7).generate(3, [])
        assert a.lines == b.lines

    def test_distinct_indices_differ(self):
        gen = ProgramGenerator(7)
        assert gen.generate(0, []).lines != gen.generate(1, []).lines

    def test_generated_programs_assemble_and_run(self):
        gen = ProgramGenerator(11)
        coverage = BucketCoverage()
        for index in range(8):
            targets = sorted(
                coverage.universe - coverage.exercised, key=bucket_id
            )[:3]
            program = gen.generate(index, targets)
            unit = assemble_program(program.lines)
            coverage.note(program_buckets(unit.instructions))
        assert coverage.hit_count > 0

    def test_targeting_reaches_requested_buckets(self):
        gen = ProgramGenerator(5)
        universe = sorted(bucket_universe(), key=bucket_id)
        hits = 0
        for index, target in enumerate(universe[:12]):
            program = gen.generate(index, [target])
            unit = assemble_program(program.lines)
            if target in program_buckets(unit.instructions):
                hits += 1
        # Guidance is best-effort (liveness targets can be perturbed by
        # surrounding instructions) but must mostly land.
        assert hits >= 8


class TestOracle:
    def test_agreeing_program(self):
        outcome = run_oracle(
            ["mov r0, #41", "add r0, r0, #1", "bx lr"], stage_config()
        )
        assert outcome.ok
        assert outcome.metrics is not None

    def test_undefined_label_is_invalid_not_divergent(self):
        with pytest.raises(InvalidProgram):
            run_oracle(["bne Lmissing", "bx lr"], stage_config())

    @pytest.mark.parametrize(
        "line", ["add pc, r0, #0", "ldr pc, [sp]", "pop {r4, pc}"]
    )
    def test_pc_write_is_invalid_not_silent(self, line):
        with pytest.raises(InvalidProgram, match="writes the PC"):
            assemble_program(["mov r1, #7", line, "bx lr"])
        with pytest.raises(InvalidProgram):
            run_oracle(["mov r1, #7", line, "bx lr"], stage_config())

    def test_runaway_is_invalid(self):
        with pytest.raises(InvalidProgram):
            run_oracle(
                ["L1:", "b L1", "bx lr"], stage_config(), max_steps=100
            )

    def test_diff_snapshots_flags_excluded(self):
        regs = {name: 0 for name in [f"r{i}" for i in range(13)] + ["sp", "lr"]}
        ref = {"regs": dict(regs), "memory": {}, "flags": {"N": 1}}
        dbt = {"regs": dict(regs), "memory": {}, "flags": {"N": 0}}
        assert diff_snapshots(ref, dbt) is None

    def test_diff_snapshots_register(self):
        regs = {name: 0 for name in [f"r{i}" for i in range(13)] + ["sp", "lr"]}
        ref = {"regs": dict(regs), "memory": {}}
        dbt = {"regs": dict(regs, r3=7), "memory": {}}
        divergence = diff_snapshots(ref, dbt)
        assert divergence is not None and divergence.kind == "register"

    def test_diff_snapshots_memory(self):
        regs = {name: 0 for name in [f"r{i}" for i in range(13)] + ["sp", "lr"]}
        ref = {"regs": regs, "memory": {100: 1}}
        dbt = {"regs": regs, "memory": {100: 2}}
        divergence = diff_snapshots(ref, dbt)
        assert divergence is not None and divergence.kind == "memory"


class TestFaultInjection:
    def test_swap_operands_changes_rule_set(self):
        config = stage_config()
        sabotaged = config_with_fault(config, "swap-operands")
        assert sabotaged.name.endswith("+swap-operands")
        assert sabotaged.rules is not config.rules

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            config_with_fault(stage_config(), "no-such-fault")

    def test_swap_operands_fault_is_caught_and_shrunk_small(self):
        report = run_difftest(
            DifftestOptions(
                seed=0, programs=32, fault="swap-operands", max_shrinks=1
            )
        )
        assert report.failures, "planted fault was not detected"
        first = report.failures[0]
        assert first.shrunk is not None
        assert first.shrunk_instructions <= 3

    def test_flag_lie_fault_is_caught(self):
        report = run_difftest(
            DifftestOptions(
                seed=0, programs=64, fault="flag-lie", max_shrinks=1
            )
        )
        assert report.failures, "planted flag-status lie was not detected"


class TestShrinker:
    def test_shrinks_to_core(self):
        lines = [
            "mov r0, #1",
            "mov r1, #2",
            "mov r2, #3",
            "sub r5, r2, r1",
            "mov r6, #7",
            "bx lr",
        ]
        shrunk = shrink_program(
            lines, lambda candidate: "sub r5, r2, r1" in candidate
        )
        assert shrunk == ["sub r5, r2, r1"]

    def test_rejecting_predicate_returns_original(self):
        lines = ["mov r0, #1", "bx lr"]
        assert shrink_program(lines, lambda candidate: False) == lines

    def test_budget_is_respected(self):
        calls = []

        def predicate(candidate):
            calls.append(1)
            return True

        shrink_program(["mov r0, #1"] * 12, predicate, budget=5)
        # +1: the initial sanity evaluation is outside the search budget
        # accounting but still one call.
        assert len(calls) <= 6

    def test_operand_shrinking_terminates(self):
        # 0 <-> 1 immediate rewrites must not oscillate forever.
        lines = ["mov r0, #1", "mov r1, #0", "bx lr"]
        shrunk = shrink_program(lines, lambda candidate: True)
        assert shrunk  # termination is the assertion


class TestCampaignDeterminism:
    def _run(self, tmp_path, tag, jobs):
        set_jobs(jobs)
        corpus = os.path.join(str(tmp_path), tag)
        report = run_difftest(
            DifftestOptions(
                seed=0,
                programs=16,
                fault="swap-operands",
                max_shrinks=1,
                corpus_dir=corpus,
            )
        )
        files = {}
        for name in sorted(os.listdir(corpus)):
            with open(os.path.join(corpus, name)) as handle:
                files[name] = handle.read()
        rendered = report.render()
        # saved paths embed tmp dirs; normalize before comparing
        rendered = rendered.replace(corpus, "<corpus>")
        payload = report.to_dict()
        return rendered, json.dumps(payload, sort_keys=True), files

    def test_reports_and_corpus_byte_identical(self, tmp_path):
        first = self._run(tmp_path, "a", jobs=1)
        second = self._run(tmp_path, "b", jobs=1)
        parallel = self._run(tmp_path, "c", jobs=4)
        assert first == second
        assert first == parallel

    def test_campaign_exercises_derived_rules(self):
        report = run_difftest(DifftestOptions(seed=0, programs=16))
        assert report.executed > 0
        assert report.derived_rule_buckets > 0
        assert not report.failures


class TestExecutorDefsAliasing:
    """Regression: decode products must live with their block, not in an
    ``id(tb)``-keyed side cache.

    The executor used to memoize decoded defs by ``id(tb)``; a freed
    ``TranslatedBlock`` whose id was recycled could serve stale defs for a
    different block (same class of bug as the symir simplify memo).  Defs
    now live in a :class:`BlockKernel` on the engine's code-cache entry,
    which pins the block for as long as its decode products are reachable.
    """

    def _tiny_block(self, mnemonic):
        from repro.dbt.translator import TranslatedBlock
        from repro.isa.instruction import Instruction
        from repro.isa.operands import Reg

        host = (Instruction(mnemonic, (Reg("ecx"), Reg("eax"))),)
        return TranslatedBlock(
            start=0,
            guest_count=1,
            host=host,
            categories=("rule",),
            labels={},
            covered=(True,),
        )

    def test_executor_holds_no_id_keyed_state(self):
        from repro.dbt.executor import HostExecutor
        from repro.semantics.state import ConcreteState

        executor = HostExecutor(ConcreteState())
        assert not hasattr(executor, "_defs_cache")
        assert not hasattr(executor, "_defs")

    def test_recycled_blocks_cannot_alias(self):
        import gc

        from repro.dbt.executor import BlockKernel

        # Force many allocate/free cycles at the same addresses: every
        # kernel must reflect its own block, never a stale entry for a
        # recycled id.
        for _ in range(64):
            movl_block = self._tiny_block("movl")
            kernel = BlockKernel(movl_block)
            assert kernel.defs[0].mnemonic == "movl"
            del movl_block
            gc.collect()
            addl_block = self._tiny_block("addl")
            assert BlockKernel(addl_block).defs[0].mnemonic == "addl"

    def test_code_cache_entry_pins_block(self):
        from repro.dbt import DBTEngine, unit_from_assembly
        from repro.dbt.translator import TranslationConfig

        unit = unit_from_assembly("fn_main:\n  mov r0, #7\n  bx lr\n")
        engine = DBTEngine(unit, TranslationConfig("qemu"))
        engine.run()
        for entry in engine.code_cache.values():
            assert entry.kernel.defs is not None
            assert len(entry.kernel.defs) == len(entry.tb.host)


class TestCli:
    def test_difftest_smoke(self, capsys):
        from repro.cli import main

        code = main(
            ["difftest", "--seed", "1", "--programs", "8", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bucket coverage:" in out
        assert "derived-rule buckets exercised:" in out

    def test_difftest_fault_mode_exit_code(self, capsys, tmp_path):
        from repro.cli import main

        report_path = os.path.join(str(tmp_path), "report.json")
        code = main(
            [
                "difftest",
                "--seed", "0",
                "--programs", "16",
                "--fault", "swap-operands",
                "--max-shrinks", "1",
                "--quiet",
                "--json", report_path,
            ]
        )
        assert code == 0  # fault mode: finding the fault is success
        with open(report_path) as handle:
            payload = json.load(handle)
        assert payload["failures"]
