"""Unit tests for the closure-compilation backend (repro.dbt.compiler).

End-to-end backend equivalence is covered by ``tests/test_backend_difftest``;
these tests pin the compiler's structural properties: run fusion, dead
flag-store elision, resolved control flow, the forward-only, path-uniform
count proof (``block_host_counts``) and its guarded fallback, operand fast
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
    _run_graph,
    block_host_counts,
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


def _execute_counted(cb, state, counts):
    """Run *cb* once the way the engine does: generated code plus the
    block's constant per-execution counts folded in."""
    cb.execute(state, counts)
    for cat, weight in cb.host_counts:
        counts[cat] = counts.get(cat, 0) + weight


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
            _execute_counted(compile_block(tb), state, counts)
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
        assert source.host_counts == (("tcg", 4),)  # either arm: 4 insns
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
        assert block_host_counts(tb) is None  # no constant per execution
        cb = compile_block(tb)
        assert isinstance(cb, GuardedCompiledBlock) and cb.host_counts == ()
        state = ConcreteState()
        state.reset_flags()
        state.regs["g_r0"] = 0
        with pytest.raises(ExecutionError, match="runaway translated block"):
            cb.execute(state, {})


class TestPathCounts:
    """``block_host_counts``: one constant per block, or the guarded form."""

    def test_diamond_with_unequal_arms_takes_guarded_form(self):
        tb = _block(
            [
                Instruction("cmpl", (Imm(5), Reg("g_r0"))),
                Instruction("je", (Label("_taken"),)),
                Instruction("addl", (Imm(1), Reg("g_r1"))),  # fall: 2 insns
                _dispatch_jmp(),
                Instruction("movl", (Imm(2), Reg("g_r1"))),  # taken: 3 insns
                Instruction("helper_clz", (Reg("g_r2"), Reg("g_r1"))),
                _dispatch_jmp(),
            ],
            categories=("rule", "control", "rule", "control", "data", "tcg", "control"),
            labels={"_taken": 4},
        )
        assert block_host_counts(tb) is None
        source = generate_block_source(tb)
        assert source.host_counts == ()
        assert source.text.count("counts[") > 0  # counted in code, per run
        cb = compile_block(tb)
        assert isinstance(cb, GuardedCompiledBlock) and cb.host_counts == ()
        seen = set()
        for r0 in (5, 6):
            (istate, ic), (jstate, jc) = _run_both(tb, {"g_r0": r0, "g_r1": 0})
            assert (istate.regs, istate.flags, ic) == (jstate.regs, jstate.flags, jc)
            seen.add(tuple(sorted(jc.items())))
        assert len(seen) == 2  # the two arms really count differently

    def test_rejoining_diamond_with_equal_arms_is_uniform(self):
        tb = _block(
            [
                Instruction("cmpl", (Imm(5), Reg("g_r0"))),
                Instruction("je", (Label("_else"),)),
                Instruction("addl", (Imm(1), Reg("g_r1"))),
                Instruction("jmp", (Label("_join"),)),
                Instruction("subl", (Imm(1), Reg("g_r1"))),  # _else
                Instruction("jmp", (Label("_join"),)),
                Instruction("movl", (Reg("g_r1"), Reg("g_r2"))),  # _join
                _dispatch_jmp(),
            ],
            categories=("rule",) * 3 + ("control",) + ("rule", "control", "data", "control"),
            labels={"_else": 4, "_join": 6},
        )
        assert block_host_counts(tb) == (("control", 2), ("data", 1), ("rule", 3))
        source = generate_block_source(tb)
        assert "counts[" not in source.text  # no accounting in the code
        cb = compile_block(tb)
        assert type(cb) is CompiledBlock and cb.host_counts == source.host_counts
        for r0 in (5, 6):
            (istate, ic), (jstate, jc) = _run_both(tb, {"g_r0": r0, "g_r1": 0})
            assert (istate.regs, ic) == (jstate.regs, jc)

    def test_every_translated_block_is_forward_and_uniform(self):
        """Both tiers account a block by its one constant: every block the
        translator produces for the workloads and the corpus, at every
        stage, must have a forward-only run graph whose paths all count
        alike (else it would silently drop to the guarded form)."""
        from repro.dbt.block import BlockMap
        from repro.dbt.translator import BlockTranslator
        from repro.difftest.corpus import load_corpus
        from repro.difftest.oracle import assemble_program, training_setup
        from repro.workloads import BENCHMARK_NAMES, compiled_benchmark
        from tests.test_translation_snapshot import CORPUS_DIR

        units = [compiled_benchmark(name).guest for name in BENCHMARK_NAMES]
        units += [assemble_program(e.lines) for e in load_corpus(CORPUS_DIR)]
        checked = 0
        for stage, config in training_setup().configs.items():
            for unit in units:
                blockmap = BlockMap(unit)
                translator = BlockTranslator(unit, blockmap, config)
                for block in blockmap.blocks:
                    tb = translator.translate(block)
                    defs = BlockKernel(tb).defs
                    _bounds, exits = _run_graph(tb, defs)
                    for ri, (_pred, taken, fall) in enumerate(exits):
                        for nxt in (taken, fall):
                            assert nxt is None or nxt == EXIT or nxt > ri, (
                                stage, tb.start,
                            )
                    assert block_host_counts(tb, defs) is not None, (stage, tb.start)
                    checked += 1
        assert checked > 1000


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
                    _execute_counted(compile_block(tb), state, counts)
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
