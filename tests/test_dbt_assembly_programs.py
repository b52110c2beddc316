"""DBT correctness on handwritten guest assembly.

These programs exercise translator paths the compiler never generates:
flags that live across basic blocks (the safety-net spills), carry chains
through adc/sbc/rsc, PC-as-GPR arithmetic, compare-negative/teq idioms, and
countdown loops on the s-variant instructions.  Every configuration must
match the reference interpreter exactly.
"""

import pytest

from repro.dbt import DBTEngine, check_against_reference
from repro.dbt.guest_interp import GuestInterpreter
from repro.dbt.loader import unit_from_assembly
from repro.param import STAGES, build_setup
from repro.learning import RuleSet

PROGRAMS = {
    "countdown_subs": """
fn_main:
    mov r0, #0
    mov r1, #25
loop:
    add r0, r0, r1
    subs r1, r1, #1
    bne loop
    bx lr
""",
    "cross_block_flags": """
fn_main:
    mov r0, #7
    mov r1, #7
    cmp r0, r1
    b check
check:
    bne differ
    mov r2, #111
    b done
differ:
    mov r2, #222
done:
    mov r0, r2
    bx lr
""",
    "carry_chain": """
fn_main:
    mov r0, #0xffffffff
    mov r1, #1
    mov r2, #10
    mov r3, #20
    adds r4, r0, r1
    adc r5, r2, r3
    subs r6, r1, r0
    sbc r7, r3, r2
    rsc r8, r2, r3
    add r0, r4, r5
    add r0, r0, r6
    add r0, r0, r7
    add r0, r0, r8
    bx lr
""",
    "pc_arithmetic": """
fn_main:
    add r0, pc, #8
    add r1, pc, #0
    sub r0, r0, r1
    bx lr
""",
    "flag_idioms": """
fn_main:
    mov r0, #12
    mov r1, #12
    teq r0, r1
    bne differ
    cmn r0, r1
    bmi differ
    tst r0, #4
    beq differ
    movs r2, r0
    beq differ
    mov r0, #1
    bx lr
differ:
    mov r0, #0
    bx lr
""",
    "logical_s_preserves_carry": """
fn_main:
    mov r0, #0xffffffff
    adds r1, r0, r0
    mov r2, #3
    ands r3, r2, #1
    adc r4, r2, r2
    mov r0, r4
    bx lr
""",
    "shift_variants": """
fn_main:
    mov r0, #0x81
    lsl r1, r0, #4
    lsr r2, r1, #2
    asr r3, r0, #1
    mov r4, #33
    lsl r5, r0, r4
    add r0, r1, r2
    add r0, r0, r3
    add r0, r0, r5
    bx lr
""",
    "special_instructions": """
fn_main:
    mov r0, #0
    mov r1, #0
    mov r2, #0x10001
    mov r3, #0x10001
    umlal r0, r1, r2, r3
    clz r4, r2
    mla r5, r2, r3, r4
    add r0, r0, r1
    add r0, r0, r4
    add r0, r0, r5
    bx lr
""",
    "memory_and_stack": """
fn_main:
    mov r4, #4096
    mov r5, #77
    str r5, [r4]
    str r5, [r4, #8]
    ldr r6, [r4]
    ldrb r7, [r4, #8]
    push {r4, r5}
    mov r4, #0
    mov r5, #0
    pop {r4, r5}
    add r0, r6, r7
    add r0, r0, r4
    add r0, r0, r5
    bx lr
""",
    "umlal_hi_crosses_blocks": """
fn_main:
    mov r0, #0
    mov r1, #0
    mov r2, #0x7fff1234
    mov r3, #0x7fff4321
    umlal r0, r1, r2, r3
    b join
join:
    add r0, r0, r1
    bx lr
""",
    "call_and_return": """
fn_helper:
    add r0, r0, #100
    bx lr
fn_main:
    push {lr}
    mov r0, #5
    bl fn_helper
    bl fn_helper
    pop {lr}
    bx lr
""",
}


@pytest.fixture(scope="module")
def empty_setup():
    return build_setup(RuleSet())


@pytest.fixture(scope="module")
def demo_rule_setup(demo_rules):
    return build_setup(demo_rules)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestAssemblyPrograms:
    def test_reference_interpreter_runs(self, name):
        unit = unit_from_assembly(PROGRAMS[name])
        result = GuestInterpreter(unit).run()
        assert result.steps > 0

    @pytest.mark.parametrize("stage", ("qemu", "condition", "manual"))
    def test_dbt_matches_reference(self, name, stage, demo_rule_setup):
        unit = unit_from_assembly(PROGRAMS[name])
        engine = DBTEngine(unit, demo_rule_setup.configs[stage])
        result = engine.run()
        ok, message = check_against_reference(unit, result)
        assert ok, f"{name}/{stage}: {message}"

    def test_dbt_without_any_rules(self, name, empty_setup):
        unit = unit_from_assembly(PROGRAMS[name])
        engine = DBTEngine(unit, empty_setup.configs["condition"])
        result = engine.run()
        ok, message = check_against_reference(unit, result)
        assert ok, f"{name}: {message}"


class TestLoader:
    @pytest.mark.parametrize(
        "line",
        ["add pc, r0, #0", "mov pc, r1", "ldr pc, [r0]", "pop {r4, pc}"],
    )
    def test_pc_write_outside_branches_rejected(self, line):
        """Neither the reference nor the DBT models a PC write as a branch;
        both would fall through it alike, so it must not load at all."""
        from repro.errors import AssemblyError

        with pytest.raises(AssemblyError, match="writes the PC"):
            unit_from_assembly(f"mov r1, #7\n{line}\nmov r1, #9\nbx lr")

    def test_pc_reads_and_branches_still_load(self):
        unit = unit_from_assembly(
            "fn_main:\n  push {lr}\n  add r0, pc, #4\n  str r0, [sp]\n"
            "  bl fn_helper\n  pop {lr}\n  bx lr\n"
            "fn_helper:\n  mov r1, pc\n  bx lr"
        )
        assert set(unit.func_labels) == {"helper", "main"}

    def test_functions_discovered(self):
        unit = unit_from_assembly(PROGRAMS["call_and_return"])
        assert set(unit.func_labels) == {"helper", "main"}

    def test_main_synthesized_when_missing(self):
        unit = unit_from_assembly("mov r0, #1\nbx lr")
        assert unit.func_labels == {"main": "fn_main"}
        result = GuestInterpreter(unit).run()
        assert result.state.regs["r0"] == 1

    def test_cross_block_flags_trigger_safety_net(self, demo_rule_setup):
        """live_in_flags must be nonempty and the run still correct."""
        from repro.dbt import BlockMap

        unit = unit_from_assembly(PROGRAMS["cross_block_flags"])
        assert BlockMap(unit).live_in_flags()
        engine = DBTEngine(unit, demo_rule_setup.configs["condition"])
        result = engine.run()
        ok, message = check_against_reference(unit, result)
        assert ok, message
        assert result.guest_reg("r0") == 111
