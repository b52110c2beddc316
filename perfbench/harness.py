"""Shared benchmark machinery: metric tables, set-up timing, statistics.

The metric tables here are the single source of the names and units the
benchmark prints; ``BENCHMARK.json`` at the repository root must list the
same names (``perfbench/tests`` checks that).
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: End-to-end metrics, printed by every workload with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "work_per_s": "1/s",
    "guest_coverage": "ratio",
    "host_insns_per_guest": "ratio",
    "derived_rules": "count",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, printed by every workload with ``--trace 1``; a layer
#: the workload does not exercise reads 0.
PER_LAYER = {
    "dbt.translator.blocks": "count",
    "dbt.translator.self_s": "s",
    "dbt.translator.static_coverage": "ratio",
    "learning.ruleset.lookups": "count",
    "learning.ruleset.hit_ratio": "ratio",
    "learning.ruleset.self_s": "s",
    "dbt.tcg.lowered_insns": "count",
    "dbt.tcg.self_s": "s",
    "dbt.compiler.generate_s": "s",
    "dbt.compiler.compile_s": "s",
    "dbt.compiler.blocks": "count",
    "dbt.compiler.source_bytes": "bytes",
    "dbt.engine.self_s": "s",
    "dbt.engine.block_executions": "count",
    "dbt.engine.chain_rate": "ratio",
    "dbt.trace.form_s": "s",
    "dbt.trace.formed": "count",
    "dbt.trace.form_failed": "count",
    "dbt.trace.entries": "count",
    "dbt.trace.guard_exit_ratio": "ratio",
    "service.server.handle_s": "s",
    "service.server.execute_s": "s",
    "service.server.wait_s": "s",
    "service.codecache.hit_ratio": "ratio",
    "service.codecache.compiles": "count",
    "service.codecache.evictions": "count",
    "service.codecache.coalesced": "count",
    "service.protocol.encode_s": "s",
    "service.protocol.decode_s": "s",
    "service.protocol.response_bytes": "bytes",
    "learning.self_s": "s",
    "learning.extract_s": "s",
    "learning.candidates": "count",
    "learning.learned_rules": "count",
    "verify.calls": "count",
    "verify.self_s": "s",
    "verify.accept_ratio": "ratio",
    "symir.memo_hit_ratio": "ratio",
    "param.self_s": "s",
    "param.derive_s": "s",
    "param.seqderive_s": "s",
    "param.derived_rules": "count",
    "bench.calibration_ms": "ms",
    "wall_s": "s",
    "unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Span layer -> the per-layer metric that reports its self time.
SELF_TIME_METRIC = {
    "dbt.translator": "dbt.translator.self_s",
    "learning.ruleset": "learning.ruleset.self_s",
    "dbt.tcg": "dbt.tcg.self_s",
    "dbt.compiler.generate": "dbt.compiler.generate_s",
    "dbt.compiler.compile": "dbt.compiler.compile_s",
    "dbt.engine": "dbt.engine.self_s",
    "dbt.trace.form": "dbt.trace.form_s",
    "learning": "learning.self_s",
    "learning.extract": "learning.extract_s",
    "verify": "verify.self_s",
    "param": "param.self_s",
    "param.derive": "param.derive_s",
    "param.seqderive": "param.seqderive_s",
    "service.protocol.encode": "service.protocol.encode_s",
    "service.protocol.decode": "service.protocol.decode_s",
}

#: How many cold set-ups one run times; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Calibration samples taken on each side of one in-process set-up.
SETUP_CAL_SAMPLES = 10

#: Reference duration of one calibration kernel (seconds).  Every time the
#: benchmark prints is scaled by ``CAL_REF_S / mean kernel time`` of its run,
#: except an in-process ``setup_s`` (see :func:`time_setups`).
CAL_REF_S = 0.002

_CAL_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    x = a + {i}\n    if x > b:\n        return x * b\n"
    f"    return [a, b, x]"
    for i in range(8)
)


class Calibration:
    """Machine speed, sampled between operations with a fixed kernel.

    The host this benchmark runs on changes speed by tens of percent from
    minute to minute.  The kernel (``compile()`` plus dict and integer work,
    like the program's own interpreter-bound mix) never touches the program,
    so scaling by it removes the machine's speed, not the program's.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            started = time.perf_counter()
            compile(_CAL_SOURCE, "<calibration>", "exec")
            table: Dict = {}
            acc = 0
            for i in range(4000):
                key = ("k", i & 63)
                acc = (acc * 31 + i) & 0xFFFF
                table[key] = table.get(key, 0) + acc
            self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        return CAL_REF_S / statistics.mean(self.samples)


class OpLog:
    """Attempted/failed operations and per-operation latencies."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []

    def ok(self, seconds: float) -> None:
        self.attempted += 1
        self.latencies.append(seconds)

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failures.append(why)

    @property
    def failed(self) -> int:
        return len(self.failures)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """Inclusive ``q``-th percentile (linear interpolation)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_memos() -> None:
    """Empty every in-process memo that a set-up or a ``learn`` op fills.

    ``clear_all_caches`` empties the registered memos.  Two module caches
    are not registered: sequence-rule verification results and the
    compiled stand-ins.  Left warm, they would let every repeat after the
    first skip work the first one paid for.
    """
    from repro.cache import clear_all_caches
    from repro.param import seqderive
    from repro.workloads import spec

    clear_all_caches()
    seqderive._SEQ_CACHE.clear()
    spec.benchmark_source.cache_clear()
    spec.compiled_benchmark.cache_clear()


def time_setups(repeats: int = SETUP_REPEATS):
    """Median reference-speed seconds of ``repeats`` cold full-suite set-ups.

    Each set-up starts from cleared in-process memos with the disk cache
    disabled, so it compiles and learns the 12 stand-ins, derives, and
    verifies from scratch, as ``repro serve --training full`` does at boot.
    Each is scaled by kernel samples taken just before and after it, not by
    the run's factor: that comes from operations 10-30 s later, when the
    host may run at another speed (``learn``'s ``setup_s`` spread 0.29-0.54
    across seeds that way, 0.14-0.17 this way).  Returns the median and
    the last set-up.
    """
    from repro.experiments.common import rules_full_suite
    from repro.param import build_setup

    times = []
    setup = None
    for _ in range(repeats):
        clear_memos()
        local = Calibration()
        local.sample(SETUP_CAL_SAMPLES)
        started = time.perf_counter()
        setup = build_setup(rules_full_suite())
        elapsed = time.perf_counter() - started
        local.sample(SETUP_CAL_SAMPLES)
        times.append(elapsed * local.factor())
    return statistics.median(times), setup


def memo_counters() -> Dict[str, int]:
    from repro.cache import memo_registry

    hits = misses = 0
    for memo in memo_registry():
        hits += memo.hits
        misses += memo.misses
    return {"hits": hits, "misses": misses}


def trace_counters() -> Dict[str, int]:
    from repro.dbt.trace import TRACE_STATS

    return TRACE_STATS.snapshot()


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def layer_metrics(
    snapshot: Dict,
    wall: float,
    memo: Dict[str, int],
    trace_stats: Dict[str, int],
    overhead: float,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metric values from a tracer snapshot over one phase.

    ``wall`` is the summed duration of the phase's operations; whatever of
    it no layer's self time covers is ``unattributed_s``.
    """
    spans, counts = snapshot["spans"], snapshot["counts"]
    values = {name: 0.0 for name in PER_LAYER}
    attributed = 0.0
    for layer, row in spans.items():
        attributed += row[2]
        metric = SELF_TIME_METRIC.get(layer)
        if metric is not None:
            values[metric] += row[2]
    for name in (
        "dbt.translator.blocks",
        "learning.ruleset.lookups",
        "dbt.tcg.lowered_insns",
        "dbt.compiler.blocks",
        "dbt.compiler.source_bytes",
        "dbt.engine.block_executions",
        "dbt.trace.formed",
        "dbt.trace.form_failed",
        "learning.candidates",
        "learning.learned_rules",
        "verify.calls",
        "param.derived_rules",
        "service.protocol.response_bytes",
    ):
        values[name] = float(counts.get(name, 0))
    values["dbt.translator.static_coverage"] = ratio(
        counts.get("dbt.translator.covered", 0), counts.get("dbt.translator.guest", 0)
    )
    values["learning.ruleset.hit_ratio"] = ratio(
        counts.get("learning.ruleset.hits", 0), counts.get("learning.ruleset.lookups", 0)
    )
    values["dbt.engine.chain_rate"] = ratio(
        counts.get("dbt.engine.chained_executions", 0),
        counts.get("dbt.engine.block_executions", 0),
    )
    values["verify.accept_ratio"] = ratio(
        counts.get("verify.accepted", 0), counts.get("verify.calls", 0)
    )
    values["dbt.trace.entries"] = float(trace_stats.get("entries", 0))
    values["dbt.trace.guard_exit_ratio"] = ratio(
        trace_stats.get("guard_exits", 0), trace_stats.get("entries", 0)
    )
    values["symir.memo_hit_ratio"] = ratio(memo["hits"], memo["hits"] + memo["misses"])
    values["wall_s"] = wall
    values["unattributed_s"] = wall - attributed
    values["trace.overhead_ratio"] = overhead
    if extra:
        values.update(extra)
    return values


def at_reference_speed(
    values: Dict[str, float],
    table: Dict[str, str],
    cal: Calibration,
    prescaled: Sequence[str] = (),
) -> Dict[str, float]:
    """Scale every time metric in *table* to reference speed.

    Durations (``s``, ``ms``) are multiplied by the run's calibration
    factor; rates (``1/s``) are divided by it.  Names in *prescaled* are
    already at reference speed.
    """
    factor = cal.factor()
    for name in table:
        if name == "bench.calibration_ms" or name in prescaled:
            continue
        if table[name] in ("s", "ms"):
            values[name] *= factor
        elif table[name] == "1/s":
            values[name] /= factor
    if "bench.calibration_ms" in table:
        values["bench.calibration_ms"] = statistics.mean(cal.samples) * 1000.0
    return values


def emit(
    log: OpLog,
    metrics: Dict[str, float],
    table: Dict[str, str],
) -> int:
    """Print the result object as the last stdout line; return the exit code."""
    missing = sorted(set(table) - set(metrics))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    for why in log.failures[:5]:
        print(f"perfbench: failed operation: {why}", file=sys.stderr, flush=True)
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in table.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0
