"""End-to-end DBT correctness: translated execution == reference execution.

This is the central integration invariant: for every program and every
configuration, the DBT engine's final architectural state must match the
reference interpreter's.
"""

import pytest

from repro.dbt import DBTEngine, check_against_reference
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
