"""Ruleset acceptance verification: gate a candidate ruleset before publish.

The symbolic machinery in this package proves individual rules equivalent at
learning time; this module is the *system-level* gate the continuous-learning
pipeline (:mod:`repro.pipeline.stages`) runs just before publishing a ruleset
version: execute the training corpus plus a seeded batch of fuzzed programs
through the DBT under the candidate configs and diff every final
architectural state against the reference interpreter.  Zero divergences is
the bar — a candidate that moves even one register value never becomes
``latest``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

#: Oracle-diffed stage: the full parameterized system, the config `repro
#: serve` answers translate/run requests with by default.
DEFAULT_STAGE = "condition"


def verify_serving_configs(
    configs: Dict[str, Any],
    *,
    benchmarks: Sequence[str] = (),
    programs: int = 0,
    seed: int = 0,
    stage: str = DEFAULT_STAGE,
) -> Dict[str, Any]:
    """Differentially verify a candidate config map; returns a report dict.

    Runs every corpus benchmark program and ``programs`` seeded fuzzed
    programs through ``configs[stage]`` on the jit backend (the one the
    service runs), diffing each final state against the reference
    interpreter (:func:`repro.difftest.oracle.run_oracle`).  Fuzzed
    programs the reference itself rejects (runaway splices, wild branches)
    are counted as skipped, not failures.

    The report is JSON-serializable so the pipeline can persist it as the
    verify stage's artifact::

        {"stage", "seed", "benchmarks", "checked", "skipped",
         "divergences": ["<program> [kind] detail", ...]}
    """
    from repro.difftest.gen import ProgramGenerator
    from repro.difftest.oracle import InvalidProgram, run_oracle
    from repro.workloads import compiled_benchmark

    config = configs[stage]
    checked = 0
    skipped = 0
    divergences: List[str] = []

    for name in benchmarks:
        pair = compiled_benchmark(name)
        outcome = run_oracle(pair.guest, config, backend="jit")
        checked += 1
        if not outcome.ok:
            divergences.append(f"benchmark {name}: {outcome.divergence}")

    generator = ProgramGenerator(seed)
    for index in range(programs):
        program = generator.generate(index)
        try:
            outcome = run_oracle(list(program.lines), config, backend="jit")
        except InvalidProgram:
            skipped += 1
            continue
        checked += 1
        if not outcome.ok:
            divergences.append(f"fuzz[{index}] seed={seed}: {outcome.divergence}")

    return {
        "stage": stage,
        "seed": seed,
        "programs": programs,
        "benchmarks": list(benchmarks),
        "checked": checked,
        "skipped": skipped,
        "divergences": divergences,
    }
