"""Unit tests for the closure-compilation backend (repro.dbt.compiler).

End-to-end backend equivalence is covered by ``tests/test_backend_difftest``;
these tests pin the compiler's structural properties: run fusion, dead
flag-store elision, resolved control flow, the forward-only (DAG) proof
and its guarded fallback, the batched count aggregation, operand fast
paths, and error parity with the interpreter backend.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbt.compiler import (
    EXIT,
    CompiledBlock,
    GuardedCompiledBlock,
    _emit_insn,
    compile_block,
    generate_block_source,
)
from repro.dbt.executor import WEIGHTS, BlockKernel, HostExecutor
from repro.dbt.runtime import DISPATCH_LABEL
from repro.dbt.translator import TranslatedBlock
from repro.errors import ExecutionError
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.x86.opcodes import X86
from repro.semantics.state import ConcreteState
from tests.strategies import X86_REGS as _X86_REGS
from tests.strategies import x86_instructions


def _block(host, categories=None, labels=None, covered=None):
    host = tuple(host)
    return TranslatedBlock(
        start=0,
        guest_count=1,
        host=host,
        categories=tuple(categories or ("tcg",) * len(host)),
        labels=dict(labels or {}),
        covered=tuple(covered if covered is not None else (False,)),
    )


def _dispatch_jmp():
    return Instruction("jmp", (Label(DISPATCH_LABEL),))


def _run_both(tb, seed_regs=None):
    """Execute *tb* under both backends; return (state, counts) of each."""
    results = []
    for backend in ("interp", "jit"):
        state = ConcreteState()
        state.reset_flags()
        for name, value in (seed_regs or {}).items():
            state.regs[name] = value
        counts = {}
        if backend == "interp":
            HostExecutor(state).run_block(tb, counts, BlockKernel(tb))
        else:
            compile_block(tb).execute(state, counts)
        results.append((state, counts))
    return results


class TestRunFusion:
    def test_straight_line_block_is_one_run(self):
        tb = _block(
            [
                Instruction("movl", (Imm(5), Reg("t0"))),
                Instruction("addl", (Imm(3), Reg("t0"))),
                _dispatch_jmp(),
            ]
        )
        cb = compile_block(tb)
        assert type(cb) is CompiledBlock  # forward-only: unguarded
        source = generate_block_source(tb)
        assert source.step_counts == (3,)
        assert source.text.count("def ") == 1
        assert "_n" not in source.text  # one run: no section guards

    def test_branches_split_runs(self):
        tb = _block(
            [
                Instruction("cmpl", (Imm(0), Reg("t0"))),
                Instruction("je", (Label("_skip"),)),
                Instruction("addl", (Imm(1), Reg("t1"))),
                _dispatch_jmp(),  # _skip points past this
                Instruction("movl", (Imm(9), Reg("t1"))),
                _dispatch_jmp(),
            ],
            labels={"_skip": 4},
        )
        source = generate_block_source(tb)
        assert source.forward_only
        assert source.step_counts == (2, 2, 2)
        # One function; runs 1 and 2 are guarded sections in index order.
        text = source.text
        assert text.count("def ") == 1 and text.startswith("def _block(")
        assert text.index("if _n == 1:") < text.index("if _n == 2:")
        assert "if _n == 0:" not in text
        assert type(compile_block(tb)) is CompiledBlock

    def test_counts_pre_aggregated_with_weights(self):
        tb = _block(
            [
                Instruction("movl", (Imm(7), Reg("g_r0"))),
                Instruction(
                    "helper_clz", (Reg("g_r1"), Reg("g_r0"))
                ),
                _dispatch_jmp(),
            ],
            categories=("rule", "rule", "control"),
        )
        (_, interp_counts), (_, jit_counts) = _run_both(tb)
        assert jit_counts == interp_counts
        assert jit_counts["rule"] == 1 + WEIGHTS["helper_clz"]
        assert jit_counts["control"] == 1  # the dispatch jmp is counted


class TestControlFlow:
    def test_conditional_branch_resolved_to_run_indices(self):
        tb = _block(
            [
                Instruction("cmpl", (Imm(5), Reg("g_r0"))),
                Instruction("je", (Label("_taken"),)),
                Instruction("movl", (Imm(111), Reg("g_r1"))),
                _dispatch_jmp(),
                Instruction("movl", (Imm(222), Reg("g_r1"))),
                _dispatch_jmp(),
            ],
            labels={"_taken": 4},
        )
        for r0, expect in ((5, 222), (6, 111)):
            (istate, ic), (jstate, jc) = _run_both(tb, {"g_r0": r0})
            assert jstate.regs["g_r1"] == expect
            assert istate.regs == jstate.regs
            assert istate.flags == jstate.flags
            assert ic == jc

    def test_backward_edge_uses_guarded_block(self):
        # Translated blocks are DAGs in practice; a synthetic backward edge
        # must fall back to the guarded executor with the runaway guard.
        tb = _block(
            [
                Instruction("addl", (Imm(1), Reg("g_r0"))),  # _top
                Instruction("jmp", (Label("_top"),)),
            ],
            labels={"_top": 0},
        )
        cb = compile_block(tb)
        assert isinstance(cb, GuardedCompiledBlock)
        state = ConcreteState()
        state.reset_flags()
        state.regs["g_r0"] = 0
        with pytest.raises(ExecutionError, match="runaway translated block"):
            cb.execute(state, {})


class TestFlagLiveness:
    def test_flags_overwritten_in_the_run_are_not_stored(self):
        tb = _block(
            [
                Instruction("addl", (Imm(3), Reg("t0"))),
                Instruction("cmpl", (Imm(9), Reg("t0"))),
                _dispatch_jmp(),
            ]
        )
        text = generate_block_source(tb).text
        add_part, cmp_part = text.split("_x1 = ")  # cmpl's first line
        assert "flags[" not in add_part  # cmpl overwrites every addl flag
        assert "_x0" not in add_part  # ... so addl needs no temporaries
        assert "regs['t0'] = (regs['t0'] + 3) & 0xFFFFFFFF" in add_part
        assert cmp_part.count("flags[") == 4  # the run's end reads them all
        for t0 in (0, 6, 0xFFFFFFFE):
            (istate, ic), (jstate, jc) = _run_both(tb, {"t0": t0})
            assert (istate.regs, istate.flags, ic) == (jstate.regs, jstate.flags, jc)

    def test_flags_read_before_overwrite_stay_stored(self):
        tb = _block(
            [
                Instruction("addl", (Imm(3), Reg("t0"))),
                Instruction("adcl", (Imm(0), Reg("t1"))),  # reads C only
                _dispatch_jmp(),
            ]
        )
        add_part = generate_block_source(tb).text.split("_x1 = ")[0]
        assert add_part.count("flags[") == 1 and "flags['C'] =" in add_part

    def test_default_emission_stores_every_flag(self):
        # Trace codegen calls _emit_insn without a dead set; its text must
        # not change, so the default emits the full template.
        out = []
        addl = Instruction("addl", (Reg("t1"), Reg("t0")))
        _emit_insn(7, addl, X86.defn(addl), out, {})
        assert out == [
            "_x7 = regs['t0']",
            "_y7 = regs['t1']",
            "_f7 = _x7 + _y7 + 0",
            "_r7 = _f7 & 0xFFFFFFFF",
            "regs['t0'] = _r7",
            "flags['N'] = _r7 >> 31",
            "flags['Z'] = 1 if _r7 == 0 else 0",
            "flags['C'] = (_f7 >> 32) & 1",
            "flags['V'] = ((~(_x7 ^ _y7) & (_x7 ^ _r7)) >> 31) & 1",
        ]


_BODY_INSN = x86_instructions().filter(lambda insn: not X86.defn(insn).is_branch)
_CATEGORIES = ("rule", "tcg", "data", "control")


@st.composite
def _random_block(draw):
    """A translated block of random x86 instructions, optionally split by a
    forward ``je`` into a fall-through arm and a taken arm."""
    host = draw(st.lists(_BODY_INSN, min_size=1, max_size=8))
    labels = {}
    if draw(st.booleans()):
        fall = draw(st.lists(_BODY_INSN, max_size=5))
        taken = draw(st.lists(_BODY_INSN, max_size=5))
        host.append(Instruction("je", (Label("_taken"),)))
        host.extend(fall)
        host.append(_dispatch_jmp())
        labels["_taken"] = len(host)
        host.extend(taken)
    host.append(_dispatch_jmp())
    categories = draw(
        st.lists(st.sampled_from(_CATEGORIES), min_size=len(host), max_size=len(host))
    )
    return _block(host, categories=categories, labels=labels)


class TestCodegenProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        tb=_random_block(),
        regs=st.lists(
            st.integers(0, 0xFFFFFFFF), min_size=len(_X86_REGS), max_size=len(_X86_REGS)
        ),
        flags=st.lists(st.integers(0, 1), min_size=4, max_size=4),
    )
    def test_jit_matches_interp_at_block_exit(self, tb, regs, flags):
        outcomes = []
        for backend in ("interp", "jit"):
            state = ConcreteState()
            state.regs.update(zip(_X86_REGS, regs))
            state.regs["esp"] = 0x10000
            state.flags.update(zip("NZCV", flags))
            counts = {}
            try:
                if backend == "interp":
                    HostExecutor(state).run_block(tb, counts, BlockKernel(tb))
                else:
                    compile_block(tb).execute(state, counts)
            except ExecutionError as exc:
                outcomes.append(("error", str(exc)))
                continue
            outcomes.append((state.regs, state.memory, state.flags, counts))
        assert outcomes[0] == outcomes[1]


class TestOperandPaths:
    def test_env_slot_constant_address_fast_path(self):
        # Constant aligned addresses (the CPU environment slots) compile to
        # direct word-indexed dict accesses.
        tb = _block(
            [
                Instruction("movl", (Imm(0xABCD), Reg("t0"))),
                Instruction("movl_s", (Reg("t0"), Mem(disp=0x00F0_0000))),
                Instruction("movl", (Mem(disp=0x00F0_0000), Reg("t1"))),
                _dispatch_jmp(),
            ]
        )
        (istate, _), (jstate, _) = _run_both(tb)
        assert jstate.regs["t1"] == 0xABCD
        assert istate.memory == jstate.memory

    def test_unaligned_dynamic_address_falls_back_to_state_load(self):
        tb = _block(
            [
                Instruction("movl", (Imm(0x4002), Reg("t0"))),  # unaligned
                Instruction("movl", (Imm(0x11223344), Reg("t1"))),
                Instruction("movl_s", (Reg("t1"), Mem(base=Reg("t0")))),
                Instruction("movl", (Mem(base=Reg("t0")), Reg("t2"))),
                _dispatch_jmp(),
            ]
        )
        (istate, _), (jstate, _) = _run_both(tb)
        assert jstate.regs["t2"] == 0x11223344
        assert istate.memory == jstate.memory

    def test_generic_fallback_for_untemplated_mnemonic(self):
        # pushl has no code template: the compiler must fall back to the
        # shared semantics function and still match the interpreter.
        tb = _block(
            [
                Instruction("movl", (Imm(0x8000), Reg("esp"))),
                Instruction("movl", (Imm(77), Reg("t0"))),
                Instruction("pushl", (Reg("t0"),)),
                _dispatch_jmp(),
            ]
        )
        (istate, _), (jstate, _) = _run_both(tb)
        assert jstate.regs["esp"] == 0x8000 - 4
        assert istate.memory == jstate.memory


class TestErrorParity:
    def test_uninitialized_register_read_matches_interp_message(self):
        tb = _block(
            [
                Instruction("addl", (Reg("t9"), Reg("g_r0"))),
                _dispatch_jmp(),
            ]
        )
        state = ConcreteState()
        state.reset_flags()
        state.regs["g_r0"] = 1
        with pytest.raises(ExecutionError) as interp_exc:
            HostExecutor(state).run_block(tb, {}, BlockKernel(tb))
        state = ConcreteState()
        state.reset_flags()
        state.regs["g_r0"] = 1
        with pytest.raises(ExecutionError) as jit_exc:
            compile_block(tb).execute(state, {})
        assert str(jit_exc.value) == str(interp_exc.value)
        assert "uninitialized register 't9'" in str(jit_exc.value)

    def test_empty_block_rejected(self):
        with pytest.raises(ExecutionError):
            compile_block(
                TranslatedBlock(
                    start=0,
                    guest_count=0,
                    host=(),
                    categories=(),
                    labels={},
                    covered=(),
                )
            )


class TestEngineIntegration:
    def test_unknown_backend_rejected(self):
        from repro.dbt import DBTEngine, unit_from_assembly
        from repro.dbt.translator import TranslationConfig

        unit = unit_from_assembly("fn_main:\n  mov r0, #1\n  bx lr\n")
        with pytest.raises(ValueError, match="unknown backend"):
            DBTEngine(unit, TranslationConfig("qemu"), backend="tracing")

    def test_jit_chaining_links_compiled_blocks(self):
        from repro.dbt import DBTEngine, unit_from_assembly
        from repro.dbt.translator import TranslationConfig

        unit = unit_from_assembly(
            "fn_main:\n"
            "  mov r0, #0\n"
            "loop:\n"
            "  add r0, r0, #1\n"
            "  cmp r0, #50\n"
            "  blt loop\n"
            "  bx lr\n"
        )
        engine = DBTEngine(
            unit, TranslationConfig("qemu"), chaining=True, backend="jit"
        )
        metrics = engine.run().metrics
        assert metrics.chain_rate > 0.8
        chained = [
            entry.compiled
            for entry in engine.code_cache.values()
            if entry.compiled is not None and entry.compiled.chain
        ]
        assert chained, "no compiled block got a chained successor"
        # Re-running reuses the chain map: every repeat edge is chained.
        again = engine.run().metrics
        assert again.chained_executions > metrics.chained_executions
