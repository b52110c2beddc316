"""End-to-end DBT correctness: translated execution == reference execution.

This is the central integration invariant: for every program and every
configuration, the DBT engine's final architectural state must match the
reference interpreter's.
"""

import gc
import sys
import weakref

import pytest

from repro.dbt import DBTEngine, check_against_reference
from repro.dbt.engine import TIER_UP_EXECUTIONS
from repro.dbt.guest_interp import GuestInterpreter
from repro.lang import compile_pair
from repro.param import STAGES, build_setup
from tests.conftest import run_demo_config

PROGRAMS = {
    "arith": """global out[8];
        func main() { var a, b, c; a = 100; b = 7;
          c = a - b; c = c * 3; c = c ^ 255; c = c &~ 12; c = c << 2; c = c >>> 1;
          out[0] = c; return c; }""",
    "memory": """global g[128]; global out[16];
        func main() { var i, s, x;
          i = 0; s = 0;
        fill: g[i] = i; storeb(g, i, 9); i = i + 4; if (i <u 64) goto fill;
          i = 0;
        acc: x = g[i]; s = s + x; x = loadb(g, i); s = s + x;
          x = loadh(g, i); s = s ^ x; i = i + 4; if (i <u 64) goto acc;
          out[0] = s; return s; }""",
    "flags": """global out[8];
        func main() { var a, b, t, r; a = 10; b = 10; r = 0;
          if (a == b) goto eq; r = 1; goto j1; eq: r = 2; j1:
          if ((a & b) != 0) goto tst; r = r + 10; tst:
          if ((a ^ b) == 0) goto teq; r = r + 100; teq:
          iftest (t = r) goto nz; r = 55; nz:
          fuse (a - 10) eq goto z; r = r + 1000; z:
          out[0] = r; return r; }""",
    "calls": """global out[8];
        func fib(n) {
          var a, b, t, i;
          a = 0; b = 1; i = 0;
        loop: t = a + b; a = b; b = t; i = i + 1; if (i < n) goto loop;
          return a; }
        func main() { var r; r = call fib(10); out[0] = r; return r; }""",
    "special": """global out[16];
        func main() { var a, b, lo, hi, c, m;
          a = 123456789; b = 987654321; lo = 5; hi = 0;
          umlal(lo, hi, a, b);
          c = clz(a);
          m = 3; m = m + a * 2;
          out[0] = lo; out[4] = hi; out[8] = c; out[12] = m;
          return lo; }""",
}


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def program_pair(request):
    return compile_pair(request.param, PROGRAMS[request.param])


@pytest.fixture(scope="module")
def program_setup(program_pair):
    from repro.learning import learn_pair

    return build_setup(learn_pair(program_pair).rules)


class TestEndToEnd:
    @pytest.mark.parametrize("stage", STAGES)
    def test_all_configs_match_reference(self, program_pair, program_setup, stage):
        engine = DBTEngine(program_pair.guest, program_setup.configs[stage])
        result = engine.run()
        ok, message = check_against_reference(program_pair.guest, result)
        assert ok, f"{program_pair.name}/{stage}: {message}"

    def test_guest_dynamic_counts_agree_with_interpreter(
        self, program_pair, program_setup
    ):
        reference = GuestInterpreter(program_pair.guest).run()
        engine = DBTEngine(program_pair.guest, program_setup.configs["qemu"])
        result = engine.run()
        assert result.metrics.guest_dynamic == reference.steps


class TestEngineBehaviour:
    def test_code_cache_reused(self, demo_pair, demo_setup):
        engine = DBTEngine(demo_pair.guest, demo_setup.configs["condition"])
        result = engine.run()
        metrics = result.metrics
        assert metrics.blocks_translated == len(engine.code_cache)
        assert metrics.block_executions > metrics.blocks_translated

    def test_coverage_bounds(self, demo_pair, demo_setup):
        for stage in STAGES:
            metrics = run_demo_config(demo_pair, demo_setup, stage).metrics
            assert 0.0 <= metrics.coverage <= 1.0

    def test_stage_coverage_monotone_dynamic(self, demo_pair, demo_setup):
        coverages = [
            run_demo_config(demo_pair, demo_setup, stage).metrics.coverage
            for stage in STAGES
        ]
        assert coverages == sorted(coverages)

    def test_cost_decreases_with_rules(self, demo_pair, demo_setup):
        qemu = run_demo_config(demo_pair, demo_setup, "qemu").metrics.cost()
        full = run_demo_config(demo_pair, demo_setup, "condition").metrics.cost()
        assert full < qemu

    def test_category_ratios_positive(self, demo_pair, demo_setup):
        metrics = run_demo_config(demo_pair, demo_setup, "condition").metrics
        assert metrics.ratio("data") > 0
        assert metrics.ratio("control") > 0
        assert metrics.ratio("rule") > 0
        assert metrics.total_ratio > 1.0

    def test_helper_weights_applied(self):
        source = """global out[8];
        func main() { var a, c; a = 3; c = clz(a); out[0] = c; return c; }"""
        pair = compile_pair("t", source)
        from repro.dbt.translator import TranslationConfig

        engine = DBTEngine(pair.guest, TranslationConfig("qemu"))
        result = engine.run()
        ok, message = check_against_reference(pair.guest, result)
        assert ok, message

    def test_preseeded_engine_builds_no_blockmap(self, demo_pair, demo_setup):
        """An engine over a code cache that already holds every block it
        runs (the serving layer's shape) never builds its own block map or
        translator, and runs to the same result."""
        config = demo_setup.configs["condition"]
        warm = DBTEngine(demo_pair.guest, config, chaining=True, backend="jit")
        expected = warm.run()
        engine = DBTEngine(
            demo_pair.guest,
            config,
            chaining=True,
            backend="jit",
            code_cache=dict(warm.code_cache),
        )
        result = engine.run()
        assert "blockmap" not in vars(engine) and "translator" not in vars(engine)
        assert result.metrics.blocks_translated == 0
        assert result.architectural_snapshot() == expected.architectural_snapshot()
        assert result.metrics.host_counts == expected.metrics.host_counts


def _loop_unit(iterations: int):
    from repro.dbt import unit_from_assembly

    return unit_from_assembly(
        "fn_main:\n"
        "  mov r0, #0\n"
        "loop:\n"
        "  add r0, r0, #1\n"
        f"  cmp r0, #{iterations}\n"
        "  blt loop\n"
        "  bx lr\n"
    )


def _qemu_jit(unit, **kwargs) -> DBTEngine:
    from repro.dbt.translator import TranslationConfig

    return DBTEngine(
        unit, TranslationConfig("qemu"), chaining=True, backend="jit", **kwargs
    )


def _chain_maps(engine):
    return {
        index: dict(entry.compiled.chain)
        for index, entry in engine.code_cache.items()
    }


class TestTemplateTier:
    """Cold jit blocks run in template form and tier up to inline code."""

    def test_cold_run_bumps_process_stats(self, monkeypatch):
        from repro.cache import STATS, stats_payload
        from repro.dbt import compiler

        monkeypatch.setattr(compiler, "_FACTORIES", {})  # every shape unseen
        engine = _qemu_jit(_loop_unit(2 * TIER_UP_EXECUTIONS))
        before = STATS.snapshot()
        first = engine.run()
        cold = STATS.delta(before)
        blocks = first.metrics.blocks_translated
        assert cold.jit_blocks_bound == blocks == len(engine.code_cache)
        assert cold.jit_template_shapes > 0
        assert cold.jit_tierups_count == 1  # the loop body, mid-run
        assert cold.jit_tierups_reuse == 0
        process = stats_payload(include_disk=False)["process"]
        for key in (
            "jit_blocks_bound",
            "jit_tierups_count",
            "jit_tierups_reuse",
            "jit_template_shapes",
        ):
            assert process[key] >= getattr(cold, key)

        before = STATS.snapshot()
        again = engine.run()
        warm = STATS.delta(before)
        # Every other block tiers up on its first execution in the later
        # run; nothing new is bound or shaped.
        assert warm.jit_tierups_reuse == blocks - 1
        assert warm.jit_blocks_bound == warm.jit_template_shapes == 0
        assert all(
            entry.compiled.execute.__name__ == "_block"
            for entry in engine.code_cache.values()
        )
        assert again.architectural_snapshot() == first.architectural_snapshot()
        assert again.metrics.host_counts == first.metrics.host_counts


class TestAcyclicGarbage:
    """A dropped jit engine is freed by reference counting alone.

    Tier-up triggers, chain maps and rule instantiation must leave no
    reference cycle behind: cyclic garbage waits for a full collection,
    which on the cold path costs more than the translation itself.
    """

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @staticmethod
    def _assert_freed(run, chained=True):
        """*run()* runs a fresh engine and returns it with its result;
        *chained* says that it leaves some chain map patched."""
        run()  # first-use work (template factories, lookup tables) is not garbage
        assert gc.collect() == 0
        engine, result = run()
        refs = [weakref.ref(e.compiled) for e in engine.code_cache.values()]
        refs += [weakref.ref(trace.fn) for trace in engine._traces.values()]
        assert not chained or any(ref().chain for ref in refs[: len(engine.code_cache)])
        del engine, result
        assert [ref() for ref in refs] == [None] * len(refs)
        assert gc.collect() == 0

    @pytest.mark.parametrize(
        "iterations, entries, stat",
        [
            (2 * TIER_UP_EXECUTIONS, ["fn_main"], "jit_tierups_count"),
            # The later run starts at the loop, so the entry block is left
            # holding its reuse trigger.
            (10, ["fn_main", "loop"], "jit_tierups_reuse"),
        ],
        ids=["count", "reuse"],
    )
    def test_tiered_up_engine_is_acyclic(self, iterations, entries, stat):
        from repro.cache import STATS

        unit = _loop_unit(iterations)

        def run():
            engine = _qemu_jit(unit)
            before = STATS.snapshot()
            for entry in entries:
                result = engine.run(entry)
            assert getattr(STATS.delta(before), stat) >= 1
            return engine, result

        self._assert_freed(run)

    def test_rule_translated_engine_is_acyclic(self, demo_pair, demo_setup):
        from repro.isa.operands import Mem

        config = demo_setup.configs["condition"]

        def run():
            engine = DBTEngine(demo_pair.guest, config, chaining=True, backend="jit")
            result = engine.run()
            assert any(
                isinstance(op, Mem)
                for entry in engine.code_cache.values()
                for rule, _ in entry.tb.applied
                for insn in rule.host
                for op in insn.operands
            )
            return engine, result

        self._assert_freed(run)

    def test_trace_tier_engine_is_acyclic(self):
        """A dropped ``backend="trace"`` engine that formed a trace: the
        trace function must not sit in its own globals."""
        from repro.dbt.trace import TraceConfig
        from repro.dbt.translator import TranslationConfig

        unit = _loop_unit(200)

        def run():
            engine = DBTEngine(
                unit,
                TranslationConfig("qemu"),
                chaining=True,
                backend="trace",
                trace_config=TraceConfig.aggressive(),
            )
            engine.run()
            result = engine.run()
            assert engine._traces and result.metrics.trace_entries >= 1
            return engine, result

        self._assert_freed(run, chained=False)


def _variants(round_index: int):
    """One fixed never-seen variant of each SPEC stand-in (seed 1)."""
    from repro.workloads import BENCHMARK_NAMES, PROFILE_BY_NAME, generate_source, mutate_profile

    pairs = []
    for i, name in enumerate(BENCHMARK_NAMES):
        profile = mutate_profile(PROFILE_BY_NAME[name], 1_000_003 + 101 * round_index + i)
        pairs.append(compile_pair(profile.name, generate_source(profile), pic=profile.pic))
    return pairs


def _cold_engines(pairs):
    from repro.experiments.common import full_suite_setup

    config = full_suite_setup().configs["condition"]
    engines = []
    for pair in pairs:
        engine = DBTEngine(pair.guest, config, chaining=True, backend="jit")
        engine.run()
        engines.append(engine)
    return engines


class TestColdFootprint:
    """What a translated cold jit block keeps alive.

    A cold engine's objects live for its whole run, so the collector
    promotes every GC-tracked one, and full collections run in proportion
    to the objects promoted per op (DESIGN §7.10, "Why the count is the
    cost").  The census: one round of unseen programs warms the template
    factories and memos, then a second round runs on fresh engines kept
    alive, and the tracked objects that survive ``gc.collect()`` are
    divided by the blocks translated.
    """

    #: Tracked objects per translated block (full-suite rules, condition
    #: stage); these 1,507 blocks measure 33.3 on CPython 3.11.
    BUDGET = 35

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 every plain object's attributes are a tracked dict "
        "of their own, so the count measures another layout",
    )
    def test_tracked_objects_per_block(self):
        _cold_engines(_variants(0))  # warm-up round, dropped
        pairs = _variants(1)
        gc.collect()
        before = len(gc.get_objects())
        engines = _cold_engines(pairs)
        gc.collect()
        kept = len(gc.get_objects()) - before
        blocks = sum(len(engine.code_cache) for engine in engines)
        assert blocks > 1000
        assert kept / blocks <= self.BUDGET, f"{kept / blocks:.2f} tracked objects per block"


class TestSharedHostInstructions:
    """Exit stubs, flag recomputes and PC loads are the runtime's objects,
    shared by every engine; the address-keyed ones live in bounded memos."""

    @staticmethod
    def _synthesized(engine):
        """The exit stubs, ``testl`` recomputes and PC loads *engine*
        emitted, by kind, each checked to be the runtime's own object."""
        from repro.dbt import runtime
        from repro.isa.operands import Imm

        testls = {id(insn) for insn in runtime.TESTS.values()}
        found = {"stub": set(), "testl": set(), "pc": set()}
        for entry in engine.code_cache.values():
            for insn, category in zip(entry.tb.host, entry.tb.categories):
                first = insn.operands[0] if insn.operands else None
                if category == "control" and isinstance(first, Imm):
                    assert insn is runtime.exit_pc_store(first.value // 4)
                    found["stub"].add(id(insn))
                elif id(insn) in testls:
                    found["testl"].add(id(insn))
                elif insn.operands[1:] == (runtime.SCRATCH_REGS[4],) and isinstance(first, Imm):
                    assert insn is runtime.pc_load(first.value)
                    found["pc"].add(id(insn))
        return found

    def test_two_engines_emit_the_same_objects(self):
        # Two variants of each of two stand-ins: the first pair recomputes
        # flags with testl, the second materializes PCs.
        old, new = _variants(0), _variants(1)
        found = [
            self._synthesized(engine)
            for engine in _cold_engines([old[5], new[5], old[11], new[11]])
        ]
        assert found[0]["stub"] & found[1]["stub"]
        assert found[0]["testl"] & found[1]["testl"]
        assert found[2]["pc"] & found[3]["pc"]

    def test_address_tables_stay_within_their_bound(self, monkeypatch):
        from repro.dbt import runtime

        pairs = _variants(1)[:4]
        reference = [
            [repr(entry.tb.host) for entry in engine.code_cache.values()]
            for engine in _cold_engines(pairs)
        ]
        tables = (runtime._EXIT_PC_STORES, runtime._PC_LOADS)
        for table in tables:
            monkeypatch.setattr(table, "maxsize", 4)
            table.clear()
        sizes = []
        real_put = type(tables[0]).put

        def put(memo, key, value):
            real_put(memo, key, value)
            sizes.append(len(memo))

        monkeypatch.setattr(type(tables[0]), "put", put)
        bounded = [
            [repr(entry.tb.host) for entry in engine.code_cache.values()]
            for engine in _cold_engines(pairs)
        ]
        assert bounded == reference
        assert sizes and max(sizes) <= 4


class TestChainMaps:
    def test_injected_cache_keeps_its_chain_maps(self):
        """An engine over injected entries, as the serving layer builds one,
        leaves the shared blocks' chain maps alone when it is dropped."""
        unit = _loop_unit(10)
        owner = _qemu_jit(unit)
        owner.run()
        engine = _qemu_jit(unit, code_cache=dict(owner.code_cache))
        engine.run()
        chains = _chain_maps(owner)
        assert any(chains.values())
        del engine
        gc.collect()
        assert _chain_maps(owner) == chains

    def test_own_cache_is_unchained_when_dropped(self):
        engine = _qemu_jit(_loop_unit(10))
        engine.run()
        blocks = [entry.compiled for entry in engine.code_cache.values()]
        assert any(cb.chain for cb in blocks)
        del engine  # freed by reference counting, no collection needed
        assert not any(cb.chain for cb in blocks)

    @pytest.mark.parametrize(
        "iterations, runs", [(2 * TIER_UP_EXECUTIONS, 1), (10, 2)], ids=["count", "reuse"]
    )
    def test_promotion_keeps_the_chained_object(self, iterations, runs):
        """Tier-up swaps ``execute`` in place, so the chain maps patched
        before the promotion reach the promoted block."""
        engine = _qemu_jit(_loop_unit(iterations))
        for _ in range(runs):
            engine.run()
        loop = engine.unit.labels["loop"]
        body = engine.code_cache[loop].compiled
        assert body.execute.__name__ == "_block"
        predecessors = [
            index for index, chain in _chain_maps(engine).items() if chain.get(loop) is body
        ]
        assert len(predecessors) == 2  # the entry block and the loop itself
        for chain in _chain_maps(engine).values():
            for successor, cb in chain.items():
                assert cb is engine.code_cache[successor].compiled


class TestJitThroughput:
    def test_jit_beats_interp_warm(self):
        """The jit backend must run warm code faster than the interpreter.

        libquantum under the quick ``condition`` rules, chaining off, best
        of three warm runs per backend after one cold run; both backends
        must also end in the same architectural state.
        """
        import time

        from repro.difftest.oracle import stage_config
        from repro.workloads import compiled_benchmark

        unit = compiled_benchmark("libquantum").guest
        config = stage_config("condition")
        best, snapshots = {}, {}
        for backend in ("interp", "jit"):
            engine = DBTEngine(unit, config, backend=backend)
            result = engine.run()
            best[backend] = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                result = engine.run()
                best[backend] = min(best[backend], time.perf_counter() - started)
            snapshots[backend] = result.architectural_snapshot()
        assert snapshots["jit"] == snapshots["interp"]
        assert best["jit"] < best["interp"], best
