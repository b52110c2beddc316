"""Unit tests for the closure-compilation backend (repro.dbt.compiler).

End-to-end backend equivalence is covered by ``tests/test_backend_difftest``;
these tests pin the compiler's structural properties: run fusion, dead
flag-store elision, resolved control flow, the forward-only, path-uniform
count proof (``block_host_counts``) and its guarded fallback, the template
form (per-shape factories) and its tier-up to inline code, operand
fast paths, and error parity with the interpreter backend.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import STATS
from repro.dbt import compiler
from repro.dbt.compiler import (
    EXIT,
    CompiledBlock,
    _bind_insn,
    _emit_insn,
    _run_graph,
    add_compile_listener,
    bind_block,
    block_host_counts,
    compile_block,
    compile_block_source,
    generate_block_source,
    remove_compile_listener,
)
from repro.dbt.executor import WEIGHTS, BlockKernel, HostExecutor
from repro.dbt.runtime import DISPATCH_LABEL
from repro.dbt.translator import TranslatedBlock
from repro.errors import ExecutionError
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, OperandKind, Reg
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


def _defs(tb):
    return tuple(X86.defn(insn) for insn in tb.host)


def _execute_counted(cb, state, counts):
    """Run *cb* once the way the engine does: its code plus the block's
    constant per-execution counts folded in."""
    cb.execute(state, counts)
    for cat, weight in cb.host_counts:
        counts[cat] = counts.get(cat, 0) + weight


#: The three ways a block runs: the interpreter oracle, the template form
#: (every cold jit block) and the compiled inline ``_block`` form.
_FORMS = ("interp", "template", "inline")


def _run_form(form, tb, state, counts):
    if form == "interp":
        HostExecutor(state).run_block(tb, counts, BlockKernel(tb))
    elif form == "template":
        _execute_counted(bind_block(tb), state, counts)
    else:
        _execute_counted(compile_block(tb), state, counts)


def _run_forms(tb, seed_regs=None):
    """Execute *tb* in every form, check the template form against the
    interpreter, and return the (state, counts) of interp and inline."""
    results = []
    for form in _FORMS:
        state = ConcreteState()
        state.reset_flags()
        for name, value in (seed_regs or {}).items():
            state.regs[name] = value
        counts = {}
        _run_form(form, tb, state, counts)
        results.append((state, counts))
    (istate, ic), (tstate, tc), _ = results
    assert (istate.regs, istate.flags, istate.memory, ic) == (
        tstate.regs, tstate.flags, tstate.memory, tc
    ), "template form diverged from the interpreter"
    return results[0], results[2]


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
        assert type(cb) is CompiledBlock and cb.execute.__name__ == "_block"
        source = generate_block_source(tb)
        assert _run_graph(tb, _defs(tb))[0] == [(0, 3)]
        assert source.host_counts == (("tcg", 3),)
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
        assert _run_graph(tb, _defs(tb))[0] == [(0, 2), (2, 4), (4, 6)]
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
        (_, interp_counts), (_, jit_counts) = _run_forms(tb)
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
            (istate, ic), (jstate, jc) = _run_forms(tb, {"g_r0": r0})
            assert jstate.regs["g_r1"] == expect
            assert istate.regs == jstate.regs
            assert istate.flags == jstate.flags
            assert ic == jc

    def test_backward_edge_uses_guarded_block(self):
        # Translated blocks are DAGs in practice; a synthetic backward edge
        # must fall back to the guarded form (the interpreter), runaway
        # guard live.
        tb = _block(
            [
                Instruction("addl", (Imm(1), Reg("g_r0"))),  # _top
                Instruction("jmp", (Label("_top"),)),
            ],
            labels={"_top": 0},
        )
        assert block_host_counts(tb) is None  # no constant per execution
        with pytest.raises(ExecutionError, match="path-dependent"):
            generate_block_source(tb)  # no inline form

        def interp(st, counts):
            HostExecutor(st).run_block(tb, counts)

        for cb in (compile_block(tb), bind_block(tb, after=1)):
            assert cb.host_counts == () and cb.execute.func is compiler._interpret
            outcomes = []
            for execute in (cb.execute, interp):
                state = ConcreteState()
                state.reset_flags()
                state.regs["g_r0"] = 0
                counts = {}
                with pytest.raises(ExecutionError, match="runaway translated block"):
                    execute(state, counts)
                outcomes.append((state.regs, state.flags, counts))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][2]["tcg"] > 0  # counted up to the guard


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
        with pytest.raises(ExecutionError, match="path-dependent"):
            generate_block_source(tb)
        cb = compile_block(tb)  # counted per instruction by the interpreter
        assert cb.host_counts == () and cb.execute.func is compiler._interpret
        seen = set()
        for r0 in (5, 6):
            (istate, ic), (jstate, jc) = _run_forms(tb, {"g_r0": r0, "g_r1": 0})
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
            (istate, ic), (jstate, jc) = _run_forms(tb, {"g_r0": r0, "g_r1": 0})
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
            (istate, ic), (jstate, jc) = _run_forms(tb, {"t0": t0})
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
        """Interp, template form and inline form agree on regs, memory,
        flags and weighted counts (or raise the same error)."""
        outcomes = []
        for form in _FORMS:
            state = ConcreteState()
            state.regs.update(zip(_X86_REGS, regs))
            state.regs["esp"] = 0x10000
            state.flags.update(zip("NZCV", flags))
            counts = {}
            try:
                _run_form(form, tb, state, counts)
            except ExecutionError as exc:
                outcomes.append(("error", str(exc)))
                continue
            outcomes.append((state.regs, state.memory, state.flags, counts))
        assert outcomes[0] == outcomes[1] == outcomes[2]


# -- template table --------------------------------------------------------------

_TABLE_REGS = ("eax", "ecx", "edx")
_NO = frozenset()


def _mem_variants():
    """One memory operand per shape the emitters tell apart."""
    return (
        Mem(disp=0x1000),  # constant, word-aligned
        Mem(disp=0x1002),  # constant, unaligned
        Mem(base=Reg("ecx")),
        Mem(base=Reg("ecx"), disp=-8),
        Mem(base=Reg("ecx"), index=Reg("edx")),
        Mem(base=Reg("ecx"), index=Reg("edx"), scale=4),
        Mem(base=Reg("ecx"), index=Reg("edx"), scale=2, disp=12),
        Mem(index=Reg("edx"), scale=8, disp=0x400),
        Mem(index=Reg("edx")),
    )


def _operand_variants(kind, position):
    if kind is OperandKind.REG:  # aliasing is the hypothesis property's job
        return (Reg(_TABLE_REGS[position % 2]),)
    if kind is OperandKind.IMM:
        return (Imm(-3), Imm(33))
    return _mem_variants()


def _table_cases():
    """(insn, defn, dead) for every x86 def x signature x operand shape x
    subset of the flags it sets."""
    for defn in X86.defs.values():
        if defn.is_branch:
            continue
        flags = sorted(defn.flags_set)
        subsets = [
            frozenset(c) for r in range(len(flags) + 1)
            for c in itertools.combinations(flags, r)
        ]
        for signature in defn.signatures:
            for operands in itertools.product(
                *(_operand_variants(kind, i) for i, kind in enumerate(signature))
            ):
                insn = Instruction(defn.mnemonic, operands)
                for dead in subsets:
                    yield insn, defn, dead


def _inline(insn, defn, dead):
    """The inline form's text for one instruction, as a function."""
    out, ns = [], {}
    _emit_insn(0, insn, defn, out, ns, dead)
    text = "def _f(st, regs, mem, flags):\n" + "".join(
        f"    {line}\n" for line in out
    )
    exec(text, ns)
    return ns["_f"]


def _random_states(rng, n):
    """*n* random (regs, flags, memory) starting points."""
    states = []
    for _ in range(n):
        regs = {
            name: rng.choice(
                (0, 1, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, rng.getrandbits(32))
            )
            for name in _TABLE_REGS
        }
        regs["ecx"] = rng.choice((regs["ecx"], 0x1000, 0x1003))  # near memory
        regs["esp"] = 0x8000
        flags = dict(zip("NZCV", (rng.getrandbits(1) for _ in range(4))))
        memory = {word: rng.getrandbits(32) for word in range(0x400, 0x404)}
        states.append((regs, flags, memory))
    return states


def _state(start):
    regs, flags, memory = start
    state = ConcreteState()
    state.regs.update(regs)
    state.flags.update(flags)
    state.memory.update(memory)
    return state


def _outcome(fn, state):
    try:
        fn(state, state.regs, state.memory, state.flags)
    except (ExecutionError, KeyError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return (state.regs, state.memory, state.flags)


class TestTemplateTable:
    def test_bound_template_matches_inline_form(self):
        starts = _random_states(random.Random(16), 25)
        cases = 0
        for insn, defn, dead in _table_cases():
            inline = _inline(insn, defn, dead)
            bound = _bind_insn(insn, defn, dead)
            for start in starts:
                expect = _outcome(inline, _state(start))
                got = _outcome(bound, _state(start))
                assert got == expect, (str(insn), sorted(dead))
            cases += 1
        assert cases > 3000

    def test_factories_are_keyed_by_shape_not_constants(self, monkeypatch):
        """Instructions differing only in registers, immediates or
        displacements share one factory; a different dead set does not."""
        factories = {}
        monkeypatch.setattr(compiler, "_FACTORIES", factories)
        defn = X86.defs["addl"]
        shapes = STATS.jit_template_shapes
        first = Instruction("addl", (Imm(7), Mem(base=Reg("eax"), disp=4)))
        _bind_insn(first, defn, _NO)
        same_shape = Instruction("addl", (Imm(9), Mem(base=Reg("ebx"), disp=64)))
        _bind_insn(same_shape, defn, _NO)
        assert len(factories) == 1
        _bind_insn(same_shape, defn, frozenset({"V"}))
        assert len(factories) == 2
        _bind_insn(Instruction("addl", (Imm(9), Mem(base=Reg("ebx")))), defn, _NO)
        assert len(factories) == 3  # zero displacement: a new shape
        assert STATS.jit_template_shapes == shapes + 3


class TestTierUp:
    def _tb(self):
        return _block(
            [
                Instruction("addl", (Imm(1), Reg("g_r0"))),
                Instruction("cmpl", (Imm(3), Reg("g_r0"))),
                Instruction("je", (Label("_three"),)),
                Instruction("movl", (Imm(1), Reg("g_r2"))),
                _dispatch_jmp(),
                Instruction("movl", (Imm(99), Reg("g_r1"))),  # _three
                _dispatch_jmp(),
            ],
            labels={"_three": 5},
        )

    def test_template_calls_tier_up_on_the_nth_execution(self):
        tb = self._tb()
        calls = []
        compiler.add_compile_listener(calls.append)
        try:
            cb = bind_block(tb, after=3)
            assert type(cb) is compiler.TemplateBlock
            assert cb.host_counts == block_host_counts(tb)
            state = ConcreteState()
            state.reset_flags()
            state.regs.update(g_r0=0, g_r1=0)
            before = STATS.snapshot()
            for k in range(5):
                cb.execute(state, {})
                assert calls == ([tb] if k >= 2 else [])  # the third call compiles
        finally:
            compiler.remove_compile_listener(calls.append)
        delta = STATS.delta(before)
        assert (delta.jit_tierups_count, delta.jit_tierups_reuse) == (1, 0)
        assert type(cb) is CompiledBlock and cb.runs is None
        assert cb.execute.__name__ == "_block"
        assert state.regs["g_r0"] == 5 and state.regs["g_r1"] == 99

    def test_left_at_zero_tiers_up_as_reuse(self):
        """The engine sets ``left`` to 0 when a later run starts: the next
        execution compiles and counts as a reuse tier-up."""
        cb = bind_block(self._tb(), after=1000)
        state = ConcreteState()
        state.reset_flags()
        state.regs.update(g_r0=0, g_r1=0)
        cb.execute(state, {})
        assert type(cb) is compiler.TemplateBlock
        cb.left = 0
        before = STATS.snapshot()
        cb.execute(state, {})
        delta = STATS.delta(before)
        assert (delta.jit_tierups_count, delta.jit_tierups_reuse) == (0, 1)
        assert cb.execute.__name__ == "_block" and state.regs["g_r0"] == 2

    def test_without_tier_up_the_template_form_stays(self):
        cb = bind_block(self._tb())
        state = ConcreteState()
        state.reset_flags()
        state.regs.update(g_r0=0, g_r1=0)
        for _ in range(300):
            cb.execute(state, {})
        assert cb.execute.__name__ != "_block"
        assert state.regs["g_r0"] == 300


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
        (istate, _), (jstate, _) = _run_forms(tb)
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
        (istate, _), (jstate, _) = _run_forms(tb)
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
        (istate, _), (jstate, _) = _run_forms(tb)
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


@pytest.fixture(scope="module")
def demo_block(demo_pair, demo_setup):
    """First translated block of the demo program + its decoded defs."""
    from repro.dbt.block import BlockMap
    from repro.dbt.translator import BlockTranslator

    unit = demo_pair.guest
    blockmap = BlockMap(unit)
    translator = BlockTranslator(unit, blockmap, demo_setup.configs["condition"])
    tb = translator.translate(blockmap.blocks[0])
    return tb, BlockKernel(tb).defs


class TestSourceGeneration:
    def test_codegen_is_deterministic(self, demo_block):
        tb, defs = demo_block
        assert generate_block_source(tb, defs) == generate_block_source(tb, defs)

    def test_compile_listener_fires_on_generation_only(self, demo_block):
        """Listeners count *codegen* (work happened): generating source and
        ``compile_block`` fire them once, instantiating existing source
        with ``compile_block_source`` does not — the accounting the
        service's single-flight tests rely on."""
        tb, defs = demo_block
        source = generate_block_source(tb, defs)
        fired = []
        listener = lambda block: fired.append(block.start)  # noqa: E731
        add_compile_listener(listener)
        try:
            compile_block_source(tb, source, defs)
            assert fired == []
            generate_block_source(tb, defs)
            assert fired == [tb.start]
            compile_block(tb, defs)
            assert fired == [tb.start, tb.start]
        finally:
            remove_compile_listener(listener)
