"""The closed-loop, single-process workloads: cold-start, steady-state, learn.

Each workload times one kind of operation over seeded rounds of inputs,
checks every operation against the reference oracle, and keeps going in
whole rounds until ``--seconds`` have passed and every prepared round ran
at least once.  The deterministic metrics (coverage, host instructions per
guest instruction, derived rules) are aggregated over the prepared inputs
only, each input counted once, so they do not depend on how many rounds
the time allowed.

With ``trace`` on, every round runs twice, once untraced and once under
the :class:`~tracer.Tracer` (alternating which goes first); per-layer
metrics come from the traced passes and ``trace.overhead_ratio`` compares
the two.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence

import harness
from corpus import Program, make_program, program_rounds, training_pair, training_sets, variant_pair, variant_seed
from harness import END_TO_END, PER_LAYER, Calibration, OpLog, geomean, percentile, ratio
from tracer import Tracer

#: Serving-default translation stage.
STAGE = "condition"
#: Rounds of 12 fresh variants prepared for ``cold-start``.
COLD_ROUNDS = 4
#: ``steady-state`` runs STEADY_ROUNDS rounds of 12 variants, each at this
#: many times its profile's repeats.
STEADY_ROUNDS = 2
STEADY_REPEAT_SCALE = 2
#: Warm-up runs allowed before an engine must have stopped forming traces.
STEADY_MAX_WARMUP = 8
#: Training sets per ``learn`` run.
LEARN_SETS = 20


class Mismatch(Exception):
    """An operation's output differed from the reference."""


class _Aggregate:
    """Deterministic per-input aggregates, each input counted once."""

    def __init__(self) -> None:
        self.seen: set = set()
        self.guest = 0
        self.covered = 0
        self.host = 0

    def add(self, key, metrics) -> None:
        if key in self.seen:
            return
        self.seen.add(key)
        self.guest += metrics.guest_dynamic
        self.covered += metrics.covered_dynamic
        self.host += metrics.total_host


def _check(program: Program, result) -> None:
    why = program.mismatch(result.architectural_snapshot())
    if why is not None:
        raise Mismatch(f"{program.name}: {why}")


def drive(
    rounds: Sequence[Sequence],
    op: Callable[[object], float],
    seconds: float,
    trace: bool,
    cal: Calibration,
) -> Dict:
    """Run ``op`` over whole rounds; return the log and traced-phase data.

    ``op(item)`` returns the operation's timed seconds or raises.  One
    calibration sample per started 50 ms of operation (at most 10) follows
    every operation, so the kernel sees the machine about as often as the
    operations do.
    """
    log = OpLog()
    tracer = Tracer()
    untraced = traced = 0.0
    memo = {"hits": 0, "misses": 0}
    trace_stats: Dict[str, int] = {}
    # Traced runs alternate which pass goes first, so they need two rounds
    # at least for the overhead to see both orders.
    min_rounds = max(len(rounds), 2) if trace else len(rounds)
    started = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - started < seconds:
        items = rounds[r % len(rounds)]
        for tracing in ((False, True) if r % 2 == 0 else (True, False)) if trace else (False,):
            if tracing:
                memo_before = harness.memo_counters()
                trace_before = harness.trace_counters()
                tracer.install()
            try:
                for item in items:
                    try:
                        elapsed = op(item)
                    except Exception as exc:  # noqa: BLE001 - every failure counts
                        log.fail(f"{type(exc).__name__}: {exc}")
                        continue
                    log.ok(elapsed)
                    cal.sample(min(10, 1 + int(elapsed / 0.05)))
                    if tracing:
                        traced += elapsed
                    else:
                        untraced += elapsed
            finally:
                if tracing:
                    tracer.uninstall()
                    for key, value in harness.delta(harness.memo_counters(), memo_before).items():
                        memo[key] += value
                    for key, value in harness.delta(harness.trace_counters(), trace_before).items():
                        trace_stats[key] = trace_stats.get(key, 0) + value
        r += 1
    return {
        "log": log,
        "snapshot": tracer.snapshot(),
        "wall": traced,
        "overhead": traced / untraced - 1.0 if trace and untraced else 0.0,
        "memo": memo,
        "trace_stats": trace_stats,
    }


def _result(run: Dict, trace: bool, cal: Calibration, end_to_end: Dict[str, float]):
    log = run["log"]
    if trace:
        values = harness.layer_metrics(
            run["snapshot"], run["wall"], run["memo"], run["trace_stats"], run["overhead"]
        )
        return log, harness.at_reference_speed(values, PER_LAYER, cal), PER_LAYER
    latencies_ms = [s * 1000.0 for s in log.latencies]
    end_to_end.update(
        op_p50_ms=percentile(latencies_ms, 50),
        op_p90_ms=percentile(latencies_ms, 90),
        peak_rss_mb=harness.peak_rss_mb(),
    )
    scaled = harness.at_reference_speed(end_to_end, END_TO_END, cal, prescaled=("setup_s",))
    return log, scaled, END_TO_END


def _setup(trace: bool):
    return harness.time_setups(1 if trace else harness.SETUP_REPEATS)


def cold_start(seed: int, seconds: float, trace: bool):
    """Each operation: one unseen program, once, on a fresh jit engine."""
    from repro.dbt import DBTEngine

    cal = Calibration()
    setup_s, setup = _setup(trace)
    config = setup.configs[STAGE]
    rounds = program_rounds(seed, COLD_ROUNDS)
    agg = _Aggregate()
    work = {"blocks": 0, "seconds": 0.0}

    def op(program: Program) -> float:
        started = time.perf_counter()
        engine = DBTEngine(program.unit, config, chaining=True, backend="jit")
        result = engine.run()
        elapsed = time.perf_counter() - started
        _check(program, result)
        agg.add(program.name, result.metrics)
        work["blocks"] += result.metrics.blocks_translated
        work["seconds"] += elapsed
        return elapsed

    run = drive(rounds, op, seconds, trace, cal)
    return _result(
        run,
        trace,
        cal,
        {
            "setup_s": setup_s,
            "work_per_s": ratio(work["blocks"], work["seconds"]),
            "guest_coverage": ratio(agg.covered, agg.guest),
            "host_insns_per_guest": ratio(agg.host, agg.guest),
            "derived_rules": len(setup.param.derived),
        },
    )


def steady_state(seed: int, seconds: float, trace: bool):
    """Each operation: one warm run of a settled trace-tier engine."""
    from repro.dbt import DBTEngine

    cal = Calibration()
    setup_s, setup = _setup(trace)
    config = setup.configs[STAGE]
    programs = [
        p for rnd in program_rounds(seed, STEADY_ROUNDS, STEADY_REPEAT_SCALE) for p in rnd
    ]
    engines = []
    for program in programs:
        engine = DBTEngine(program.unit, config, chaining=True, backend="trace")
        for attempt in range(STEADY_MAX_WARMUP):
            result = engine.run()
            _check(program, result)
            settled = result.metrics.traces_formed == 0 and result.metrics.blocks_translated == 0
            if attempt and settled:
                break
        else:
            raise RuntimeError(f"{program.name}: still forming traces after warm-up")
        engines.append((program, engine))
    agg = _Aggregate()
    per_program: Dict[str, List[float]] = {p.name: [0, 0.0] for p in programs}

    def op(item) -> float:
        program, engine = item
        started = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - started
        _check(program, result)
        agg.add(program.name, result.metrics)
        row = per_program[program.name]
        row[0] += result.metrics.guest_dynamic
        row[1] += elapsed
        return elapsed

    run = drive([engines], op, seconds, trace, cal)
    return _result(
        run,
        trace,
        cal,
        {
            "setup_s": setup_s,
            "work_per_s": geomean(ratio(g, s) for g, s in per_program.values()),
            "guest_coverage": ratio(agg.covered, agg.guest),
            "host_insns_per_guest": ratio(agg.host, agg.guest),
            "derived_rules": len(setup.param.derived),
        },
    )


def learn(seed: int, seconds: float, trace: bool):
    """Each operation: learn + derive + verify one small training set."""
    from repro.dbt import DBTEngine
    from repro.learning import Verifier
    from repro.learning import learn as learn_mod
    from repro.param import engine as param_engine
    from repro.workloads import BENCHMARK_NAMES

    cal = Calibration()
    setup_s, _ = _setup(trace)
    sets = []
    for k, members in enumerate(training_sets(seed, LEARN_SETS)):
        pairs = [training_pair(name, vseed) for name, vseed in members]
        # Set k is always judged on a fresh variant of the same profile, so
        # seeds change the programs, not the mix of profiles judged.
        index = k % len(BENCHMARK_NAMES)
        name = BENCHMARK_NAMES[index]
        heldout = make_program(variant_pair(name, variant_seed(seed, 50 + k, index)))
        sets.append((k, pairs, heldout))
    agg = _Aggregate()
    derived: Dict[int, int] = {}
    work = {"candidates": 0, "seconds": 0.0}

    def op(item) -> float:
        k, pairs, heldout = item
        harness.clear_memos()
        started = time.perf_counter()
        stats, rules = learn_mod.learn_suite(pairs, Verifier())
        setup = param_engine.build_setup(rules)
        elapsed = time.perf_counter() - started
        work["candidates"] += sum(s.candidates for s in stats)
        work["seconds"] += elapsed
        if not trace and k not in derived:
            derived[k] = len(setup.param.derived)
            engine = DBTEngine(heldout.unit, setup.configs[STAGE], chaining=True, backend="jit")
            result = engine.run()
            _check(heldout, result)
            agg.add(k, result.metrics)
        return elapsed

    # Two rounds of half the sets: a traced run then times each set once
    # untraced and once traced, with each order on one half.
    half = len(sets) // 2
    run = drive([sets[:half], sets[half:]], op, seconds, trace, cal)
    return _result(
        run,
        trace,
        cal,
        {
            "setup_s": setup_s,
            "work_per_s": ratio(work["candidates"], work["seconds"]),
            "guest_coverage": ratio(agg.covered, agg.guest),
            "host_insns_per_guest": ratio(agg.host, agg.guest),
            "derived_rules": sum(derived.values()) / max(len(derived), 1),
        },
    )
