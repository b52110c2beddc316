"""Edge-case tests for the guest interpreter, host executor and engine."""

import pytest

from repro.dbt import DBTEngine, unit_from_assembly
from repro.dbt.executor import WEIGHTS, HostExecutor
from repro.dbt.guest_interp import HALT_ADDRESS, GuestInterpreter, initial_state
from repro.dbt.runtime import (
    ENV_BASE,
    env_flag_addr,
    env_reg_addr,
    guest_reg,
    is_env_address,
    scratch_reg,
)
from repro.dbt.translator import TranslationConfig
from repro.errors import ExecutionError
from repro.lang.program import STACK_BASE


class TestRuntimeLayout:
    def test_register_slots_distinct(self):
        addresses = {env_reg_addr(f"r{i}") for i in range(13)}
        addresses |= {env_reg_addr(n) for n in ("sp", "lr", "pc")}
        addresses |= {env_flag_addr(f) for f in "NZCV"}
        assert len(addresses) == 20
        assert all(addr >= ENV_BASE for addr in addresses)

    def test_is_env_address(self):
        assert is_env_address(env_reg_addr("r0"))
        assert is_env_address(env_flag_addr("V"))
        assert not is_env_address(ENV_BASE - 4)
        assert not is_env_address(ENV_BASE + 4 * 64)

    def test_virtual_register_names(self):
        assert guest_reg("r5").name == "g_r5"
        assert scratch_reg(2).name == "t2"


class TestGuestInterpreter:
    def test_initial_state(self):
        state = initial_state()
        assert state.regs["sp"] == STACK_BASE
        assert state.regs["lr"] == HALT_ADDRESS

    def test_runaway_guard(self):
        unit = unit_from_assembly("fn_main:\nloop:\n    b loop")
        with pytest.raises(ExecutionError, match="exceeded"):
            GuestInterpreter(unit).run(max_steps=100)

    def test_misaligned_branch_target(self):
        unit = unit_from_assembly("fn_main:\n    mov r0, #5\n    bx r0")
        with pytest.raises(ExecutionError, match="misaligned"):
            GuestInterpreter(unit).run()

    def test_site_counts(self):
        unit = unit_from_assembly(
            """fn_main:
    mov r0, #0
    mov r1, #3
loop:
    add r0, r0, #1
    subs r1, r1, #1
    bne loop
    bx lr"""
        )
        result = GuestInterpreter(unit).run()
        # The loop body executes three times, the prologue once.
        assert result.site_counts[0] == 1
        assert result.site_counts[2] == 3
        assert result.steps == 2 + 3 * 3 + 1

    def test_count_sites_disabled(self):
        unit = unit_from_assembly("fn_main:\n    mov r0, #1\n    bx lr")
        result = GuestInterpreter(unit).run(count_sites=False)
        assert result.site_counts == {}

    def test_pc_value_convention(self):
        unit = unit_from_assembly("fn_main:\n    add r0, pc, #0\n    bx lr")
        result = GuestInterpreter(unit).run()
        assert result.state.regs["r0"] == 0 * 4 + 8


class TestEngineGuards:
    def test_block_execution_limit(self):
        unit = unit_from_assembly("fn_main:\nloop:\n    b loop")
        engine = DBTEngine(unit, TranslationConfig("qemu"))
        with pytest.raises(ExecutionError, match="block executions"):
            engine.run(max_blocks=50)

    def test_entry_by_function_name(self):
        unit = unit_from_assembly(
            """fn_other:
    mov r0, #9
    bx lr
fn_main:
    mov r0, #1
    bx lr"""
        )
        engine = DBTEngine(unit, TranslationConfig("qemu"))
        assert engine.run(entry="other").guest_reg("r0") == 9
        engine2 = DBTEngine(unit, TranslationConfig("qemu"))
        assert engine2.run().guest_reg("r0") == 1

    def test_helper_weights_table(self):
        assert WEIGHTS["helper_umlal"] > 1
        assert WEIGHTS["helper_clz"] > 1

    def test_helper_weight_counted(self):
        unit = unit_from_assembly(
            "fn_main:\n    mov r1, #12345\n    clz r0, r1\n    bx lr"
        )
        engine = DBTEngine(unit, TranslationConfig("qemu"))
        metrics = engine.run().metrics
        # 3 guest insns but the clz helper alone costs WEIGHTS["helper_clz"].
        assert metrics.host_counts["tcg"] >= WEIGHTS["helper_clz"] + 2

    def test_guest_memory_excludes_env(self):
        unit = unit_from_assembly(
            """fn_main:
    mov r4, #4096
    mov r5, #7
    str r5, [r4]
    bx lr"""
        )
        engine = DBTEngine(unit, TranslationConfig("qemu"))
        memory = engine.run().guest_memory()
        assert memory.get(4096 // 4) == 7
        assert not any(is_env_address(addr * 4) for addr in memory)

    def test_guest_memory_matches_per_word_env_check(self):
        """The word-index range check keeps exactly the words the per-word
        ``is_env_address`` definition keeps."""
        from repro.dbt.engine import DBTRunResult
        from repro.dbt.metrics import RunMetrics
        from repro.semantics.state import ConcreteState

        state = ConcreteState()
        env_words = [env_reg_addr("r0") // 4, env_flag_addr("V") // 4]
        edges = [ENV_BASE // 4 - 1, env_flag_addr("V") // 4 + 1]
        for word in env_words + edges + [0, 1, 4096 // 4, STACK_BASE // 4]:
            state.memory[word] = word + 1
        state.memory[7] = 0  # a zero word is not reported
        state.memory[env_reg_addr("sp") // 4] = 0
        result = DBTRunResult(RunMetrics(), state)
        expected = {
            word: value
            for word, value in state.memory.items()
            if not is_env_address(word * 4) and value
        }
        assert result.guest_memory() == expected
        assert set(edges) <= set(expected)
        assert not set(env_words) & set(expected)


class TestChaining:
    def test_chain_rate_and_correctness(self):
        unit = unit_from_assembly(
            """fn_main:
    mov r0, #0
    mov r1, #50
loop:
    add r0, r0, r1
    subs r1, r1, #1
    bne loop
    bx lr"""
        )
        unchained = DBTEngine(unit, TranslationConfig("qemu")).run()
        chained_engine = DBTEngine(unit, TranslationConfig("qemu"), chaining=True)
        chained = chained_engine.run()
        assert chained.guest_reg("r0") == unchained.guest_reg("r0")
        assert unchained.metrics.chain_rate == 0.0
        assert chained.metrics.chain_rate > 0.8
        assert chained.metrics.cost() < unchained.metrics.cost()
        # Same instruction counts — only dispatch overhead differs.
        assert chained.metrics.host_counts == unchained.metrics.host_counts
