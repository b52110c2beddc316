"""Trace-tier tests: selection, formation, guards, retirement.

The trace backend's correctness contract is the same as the jit backend's
(see ``test_backend_difftest``): byte-identical architectural snapshots AND
byte-identical ``RunMetrics`` parity fields vs the interp oracle, no matter
how many superblocks formed, guard exits fired, or traces were retired
mid-run.  These tests pin the tier's moving parts individually — cycle
selection on synthetic edge profiles, guard side-exits under a mid-run
branch flip, retirement of pathological traces, and cross-block
flag-store elision.
"""

import pytest

from repro.dbt import DBTEngine, TraceConfig
from repro.dbt.loader import unit_from_assembly
from repro.dbt.trace import (
    _elided_flag_stores,
    parse_block,
    plan_junctions,
    select_cycle,
)
from repro.difftest.oracle import stage_config

_METRIC_FIELDS = (
    "host_counts",
    "guest_dynamic",
    "covered_dynamic",
    "block_executions",
    "blocks_translated",
    "chained_executions",
    "rule_hits",
)

#: a hot countdown loop: the bread-and-butter trace formation case.
COUNTDOWN = """
fn_main:
    mov r0, #0
    mov r1, #50
loop:
    add r0, r0, r1
    subs r1, r1, #1
    bne loop
    bx lr
"""

#: the hot cycle contains a data-dependent branch that flips direction
#: mid-run: iterations 0..99 go through ``low``, 100..199 through the
#: other arm, so a trace specialized on the early path starts failing its
#: guard on every entry once the flip happens.
BRANCH_FLIP = """
fn_main:
    mov r0, #0
    mov r1, #200
    mov r2, #0
loop:
    cmp r0, #100
    blt low
    add r2, r2, #2
    b join
low:
    add r2, r2, #1
join:
    add r0, r0, #1
    cmp r0, r1
    bne loop
    bx lr
"""

#: block ``chk`` reads Z before setting it, so the translator's safety net
#: spills NZCV at every flag-setter's block exit; along the stitched trace
#: the first spill is dead (re-stored in ``body`` before any read) and must
#: be elided, while ``body``'s spill feeds the guarded ``bne`` and stays.
CROSS_BLOCK_FLAGS = """
fn_main:
    mov r0, #0
    mov r1, #100
loop:
    subs r2, r1, #2
    b body
body:
    add r0, r0, r2
    subs r1, r1, #1
    b chk
chk:
    bne loop
    bx lr
"""


@pytest.fixture(scope="module")
def config():
    return stage_config("condition")


def _run_pair(unit, config, chaining, trace_config):
    """(interp result, trace result, trace engine) for one program."""
    ref = DBTEngine(unit, config, chaining=chaining, backend="interp").run()
    engine = DBTEngine(
        unit, config, chaining=chaining, backend="trace",
        trace_config=trace_config,
    )
    result = engine.run()
    return ref, result, engine


def _assert_parity(ref, result, context):
    assert (
        ref.architectural_snapshot() == result.architectural_snapshot()
    ), f"{context}: snapshot diverged from interp"
    for field in _METRIC_FIELDS:
        assert getattr(ref.metrics, field) == getattr(result.metrics, field), (
            f"{context}: metrics field {field} diverged"
        )


class TestFormation:
    @pytest.mark.parametrize("chaining", [False, True])
    def test_hot_loop_forms_trace_and_matches_oracle(self, config, chaining):
        unit = unit_from_assembly(COUNTDOWN)
        ref, result, engine = _run_pair(
            unit, config, chaining, TraceConfig.aggressive()
        )
        _assert_parity(ref, result, f"countdown chaining={chaining}")
        assert result.metrics.traces_formed >= 1
        assert result.metrics.trace_entries >= 1
        assert result.metrics.trace_iterations > 1
        assert engine._traces, "formed trace should stay live"

    def test_warm_run_reuses_settled_engine(self, config):
        unit = unit_from_assembly(COUNTDOWN)
        ref_engine = DBTEngine(unit, config, chaining=True, backend="interp")
        engine = DBTEngine(
            unit, config, chaining=True, backend="trace",
            trace_config=TraceConfig.aggressive(),
        )
        for lap in range(3):
            ref = ref_engine.run()
            result = engine.run()
            _assert_parity(ref, result, f"warm lap {lap}")
        assert result.metrics.trace_entries >= 1

    def test_max_traces_cap_is_respected(self, config):
        unit = unit_from_assembly(BRANCH_FLIP)
        tcfg = TraceConfig.aggressive()
        engine = DBTEngine(
            unit, config, backend="trace", trace_config=tcfg
        )
        engine.run()
        assert len(engine._traces) <= tcfg.max_traces


class TestGuardsAndRetirement:
    @pytest.mark.parametrize("chaining", [False, True])
    def test_branch_flip_guard_exits_then_retires(self, config, chaining):
        # Retirement thresholds tuned so the post-flip trace (every entry
        # bails at the first guard, covering one block) is pathological.
        tcfg = TraceConfig(
            hot_threshold=3, max_length=8, min_edge_count=1, dominance=0.5,
            probation_entries=4, min_mean_blocks=3.5, max_traces=32,
            profile_window=2048,
        )
        unit = unit_from_assembly(BRANCH_FLIP)
        ref, result, engine = _run_pair(unit, config, chaining, tcfg)
        _assert_parity(ref, result, f"branch-flip chaining={chaining}")
        assert result.metrics.trace_guard_exits >= 1
        assert result.metrics.traces_retired >= 1
        # Retired heads are blacklisted: the pathological trace cannot
        # immediately re-form on the same head.
        assert engine._trace_blacklist

    @pytest.mark.parametrize("chaining", [False, True])
    def test_snapshots_stay_identical_across_post_retirement_runs(
        self, config, chaining
    ):
        tcfg = TraceConfig(
            hot_threshold=3, max_length=8, min_edge_count=1, dominance=0.5,
            probation_entries=4, min_mean_blocks=3.5, max_traces=32,
            profile_window=2048,
        )
        unit = unit_from_assembly(BRANCH_FLIP)
        ref_engine = DBTEngine(unit, config, chaining=chaining, backend="interp")
        engine = DBTEngine(
            unit, config, chaining=chaining, backend="trace",
            trace_config=tcfg,
        )
        # First run forms and retires; later runs execute through the
        # blacklist on the block tier.  Every run must stay byte-identical.
        for lap in range(3):
            _assert_parity(
                ref_engine.run(), engine.run(),
                f"post-retirement lap {lap} chaining={chaining}",
            )


class TestCrossBlockFlagElision:
    def test_dead_cross_block_flag_spill_is_elided(self, config):
        unit = unit_from_assembly(CROSS_BLOCK_FLAGS)
        ref, result, engine = _run_pair(
            unit, config, True, TraceConfig.aggressive()
        )
        _assert_parity(ref, result, "cross-block flags")
        assert engine._traces
        trace = next(iter(engine._traces.values()))
        assert trace.length >= 3
        parsed = [
            parse_block(
                engine.code_cache[i].tb, engine.code_cache[i].kernel.defs
            )
            for i in trace.block_indices
        ]
        plans = plan_junctions(parsed)
        elided = _elided_flag_stores(parsed, plans)
        assert elided, "the dead cross-block NZCV spill must be elided"
        # The survivor feeds the guarded bne; only the dead spill goes.
        spill_positions = {pos for pos, _ in elided}
        assert len(spill_positions) < trace.length


class TestCycleSelection:
    CFG = TraceConfig(
        hot_threshold=3, max_length=4, min_edge_count=2, dominance=0.6,
        probation_entries=4, min_mean_blocks=1.05, max_traces=32,
        profile_window=2048,
    )

    def test_simple_cycle_is_selected(self):
        edges = {(1, 2): 10, (2, 3): 10, (3, 1): 10}
        assert select_cycle(1, edges, self.CFG) == [1, 2, 3]

    def test_ambiguous_junction_stops_selection(self):
        # 2 -> {3, 4} splits 50/50: below the 0.6 dominance bar.
        edges = {(1, 2): 20, (2, 3): 10, (2, 4): 10, (3, 1): 10}
        assert select_cycle(1, edges, self.CFG) is None

    def test_cold_edge_stops_selection(self):
        edges = {(1, 2): 10, (2, 1): 1}  # below min_edge_count
        assert select_cycle(1, edges, self.CFG) is None

    def test_length_bound_is_enforced(self):
        edges = {(i, i + 1): 10 for i in range(1, 7)}
        edges[(7, 1)] = 10  # cycle of length 7 > max_length 4
        assert select_cycle(1, edges, self.CFG) is None

    def test_inner_cycle_not_through_head_is_rejected(self):
        edges = {(1, 2): 10, (2, 3): 10, (3, 2): 10}
        assert select_cycle(1, edges, self.CFG) is None
