"""Shared experiment machinery: the leave-one-out protocol and caches.

The paper's protocol (§V-A): rules learned from 11 benchmarks are applied
to the 12th, repeated for each benchmark.  Everything expensive — per-
benchmark learning, rule derivation, DBT runs — is cached in-process *and*
(for learning and derivation) content-addressed on disk via
:mod:`repro.cache`, so a warm rerun in a fresh process skips straight to
the DBT runs.  The leave-one-out sweep fans out across worker processes
when ``--jobs`` asks for it, and every DBT run is checked against the
reference interpreter before its metrics are trusted.

All in-memory caches here are registered with
:func:`repro.cache.clear_all_caches`.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from repro.cache import MISS, disk_cache, register_cache
from repro.dbt import DBTEngine, RunMetrics, check_against_reference
from repro.errors import ExecutionError
from repro.learning import (
    LearnStats,
    PairLearning,
    RuleSet,
    Verifier,
    learn_pair,
    learning_from_dict,
    learning_to_dict,
)
from repro.param import STAGES, SystemSetup, build_setup
from repro.parallel import get_jobs, parallel_map
from repro.workloads import BENCHMARK_NAMES, compiled_benchmark

_SHARED_VERIFIER = Verifier()
register_cache(_SHARED_VERIFIER._cache.clear)

#: name -> learning output; populated from the disk cache when possible.
_LEARNING_CACHE: Dict[str, PairLearning] = {}
register_cache(_LEARNING_CACHE.clear)


@lru_cache(maxsize=None)
def _pair_fingerprint(name: str) -> str:
    """Digest of a compiled pair's code (learning-cache key component)."""
    import hashlib

    pair = compiled_benchmark(name)
    text = "\n".join(
        [str(insn) for insn in pair.guest.instructions]
        + [str(insn) for insn in pair.host.instructions]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cached_learning(name: str) -> "PairLearning | None":
    """Learning output from the memory or disk cache, or ``None``."""
    cached = _LEARNING_CACHE.get(name)
    if cached is not None:
        return cached
    learning = disk_cache().get(
        "benchmark-learning", name, _pair_fingerprint(name), decode=learning_from_dict
    )
    if learning is MISS:
        return None
    _LEARNING_CACHE[name] = learning
    return learning


def benchmark_learning(name: str) -> PairLearning:
    """Learn rules from one benchmark (memory + disk cached)."""
    cached = _cached_learning(name)
    if cached is not None:
        return cached
    started = time.perf_counter()
    learning = learn_pair(compiled_benchmark(name), _SHARED_VERIFIER)
    disk_cache().put(
        "benchmark-learning",
        name,
        _pair_fingerprint(name),
        payload=learning_to_dict(learning),
        elapsed=time.perf_counter() - started,
    )
    _LEARNING_CACHE[name] = learning
    return learning


@register_cache
def _clear_lru_caches() -> None:  # populated below, once the caches exist
    for cached in (
        _pair_fingerprint,
        suite_stats,
        rules_excluding,
        rules_full_suite,
        setup_excluding,
        setup_for,
        full_suite_setup,
    ):
        cached.cache_clear()


def _learning_worker(name: str) -> dict:
    """Worker entry point: learn one benchmark, ship it back as JSON."""
    return learning_to_dict(benchmark_learning(name))


def _parallel_learn(names: Sequence[str]) -> None:
    """Learn several benchmarks across worker processes.

    Memory/disk hits resolve in this process; only actual learning work is
    fanned out.
    """
    pending = [n for n in names if _cached_learning(n) is None]
    if get_jobs() <= 1 or len(pending) <= 1:
        for name in pending:
            benchmark_learning(name)
        return
    for name, data in zip(pending, parallel_map(_learning_worker, pending)):
        _LEARNING_CACHE[name] = learning_from_dict(data)


def warm_learning() -> None:
    """Pre-learn the whole suite (so forked workers inherit it)."""
    _parallel_learn(BENCHMARK_NAMES)


@lru_cache(maxsize=None)
def suite_stats() -> Tuple[LearnStats, ...]:
    _parallel_learn(BENCHMARK_NAMES)
    return tuple(benchmark_learning(name).stats for name in BENCHMARK_NAMES)


def rules_from(names: Sequence[str]) -> RuleSet:
    """Merged unique rules learned from the given benchmarks."""
    _parallel_learn(names)
    merged = RuleSet()
    for name in names:
        merged.extend(benchmark_learning(name).rules.rules)
    return merged


@lru_cache(maxsize=None)
def rules_excluding(name: str) -> RuleSet:
    return rules_from(tuple(n for n in BENCHMARK_NAMES if n != name))


@lru_cache(maxsize=None)
def rules_full_suite() -> RuleSet:
    return rules_from(BENCHMARK_NAMES)


@lru_cache(maxsize=None)
def setup_excluding(name: str) -> SystemSetup:
    """Leave-one-out system setup (learned + derived rules, all stages)."""
    return build_setup(rules_excluding(name))


@lru_cache(maxsize=None)
def setup_for(names: Tuple[str, ...]) -> SystemSetup:
    """System setup for an arbitrary training subset.

    The subset is canonicalized (sorted) before rule merging, so equal
    subsets drawn in different orders share all cached work.
    """
    return build_setup(rules_from(tuple(sorted(names))))


@lru_cache(maxsize=None)
def full_suite_setup() -> SystemSetup:
    return build_setup(rules_full_suite())


#: (benchmark, stage, backend) -> metrics; a plain dict (not lru_cache) so
#: the parallel sweep can install worker results directly.
_RUN_CACHE: Dict[Tuple[str, str, str], RunMetrics] = {}
register_cache(_RUN_CACHE.clear)


def run_benchmark(name: str, stage: str, backend: str = "interp") -> RunMetrics:
    """Run one benchmark under one configuration (leave-one-out rules).

    The final architectural state is validated against the reference
    interpreter; a mismatch is an error, not a data point.  ``backend``
    selects the execution engine (``interp``, the default oracle, or the
    closure-compiled ``jit``); both produce identical metrics.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    cached = _RUN_CACHE.get((name, stage, backend))
    if cached is not None:
        return cached
    pair = compiled_benchmark(name)
    setup = setup_excluding(name)
    engine = DBTEngine(pair.guest, setup.configs[stage], backend=backend)
    result = engine.run()
    ok, message = check_against_reference(pair.guest, result)
    if not ok:
        raise ExecutionError(f"{name}/{stage}: translated execution diverged: {message}")
    _RUN_CACHE[(name, stage, backend)] = result.metrics
    return result.metrics


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, computed in the log domain.

    The naive product-then-root overflows/underflows once the list is long
    or the ratios extreme; summing logs is exact enough and never leaves
    float range.  Any zero forces the mean to zero (the limit of the
    product form); negative inputs have no geometric mean and raise.
    """
    if not values:
        return 0.0
    if any(value < 0 for value in values):
        raise ValueError("geomean is undefined for negative values")
    if any(value == 0 for value in values):
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
