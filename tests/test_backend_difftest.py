"""Backend differential test: jit and trace backends against the interp oracle.

The closure-compiled backend (:mod:`repro.dbt.compiler`) re-implements the
host instruction semantics as generated Python code, so its correctness
contract is *bit-exact equivalence with the interpreter backend*: for any
guest program, both backends must produce byte-identical architectural
snapshots (registers, flags, memory) and identical ``RunMetrics`` counts —
including the weighted per-category host instruction counts and the
chained-execution accounting.  The trace backend stacks superblock
formation, guard side-exits, and retirement on top of the jit tier and is
held to the same contract; fuzzed programs run it with
``TraceConfig.aggressive()`` so tiny programs actually reach trace
formation, guard exits, and retirement instead of staying below the
production thresholds.

Every jit and trace engine runs each program twice, and so does the interp
oracle's engine: the first run executes cold blocks in their template form
(:func:`repro.dbt.compiler.bind_block`), the second the inline ``_block``
code they tier up to on their first execution in a later run.  Both runs
must match the oracle's runs byte for byte.

Coverage comes from two sources: every shrunk reproducer in
``tests/corpus/`` (each one is a regression distilled from a past fuzzing
campaign) and a fresh fuzz sweep of several hundred generated programs
(:mod:`repro.difftest.gen`), run under the cheap two-benchmark training
rule set from :mod:`repro.difftest.oracle`.
"""

import glob
import json
import os

import pytest

from repro.dbt.engine import DBTEngine
from repro.dbt.trace import TraceConfig
from repro.difftest.gen import ProgramGenerator
from repro.difftest.oracle import (
    MAX_DBT_BLOCKS,
    InvalidProgram,
    assemble_program,
    stage_config,
)

FUZZ_PROGRAMS = 500
FUZZ_SEED = 1234

_CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

_METRIC_FIELDS = (
    "host_counts",
    "guest_dynamic",
    "covered_dynamic",
    "block_executions",
    "blocks_translated",
    "chained_executions",
    "rule_hits",
)


@pytest.fixture(scope="module")
def config():
    return stage_config("condition")


def _run_outcome(engine):
    """(snapshot, metrics dict) on success, ("error", type, message) on not."""
    try:
        result = engine.run(max_blocks=MAX_DBT_BLOCKS)
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    metrics = {f: getattr(result.metrics, f) for f in _METRIC_FIELDS}
    return (result.architectural_snapshot(), metrics)


def _outcome(unit, config, backend, chaining):
    """Outcomes of two runs on one engine (the second only if the first
    succeeded): cold blocks first, then the code they tier up to."""
    kwargs = {}
    if backend == "trace":
        kwargs["trace_config"] = TraceConfig.aggressive()
    engine = DBTEngine(unit, config, chaining=chaining, backend=backend, **kwargs)
    first = _run_outcome(engine)
    if first[0] == "error":
        return (first,)
    return (first, _run_outcome(engine))


def _assert_backends_agree(lines, config, context, chaining=True):
    try:
        unit = assemble_program(lines)
    except InvalidProgram:
        return False
    interp = _outcome(unit, config, "interp", chaining)
    for backend in ("jit", "trace"):
        other = _outcome(unit, config, backend, chaining)
        assert interp == other, (
            f"{context}: backend divergence (chaining={chaining})\n"
            f"interp: {interp}\n{backend:6s}: {other}"
        )
    return True


def _corpus_entries():
    paths = sorted(glob.glob(os.path.join(_CORPUS_DIR, "*.json")))
    assert paths, "corpus directory is empty"
    for path in paths:
        with open(path) as handle:
            yield os.path.basename(path), json.load(handle)


class TestCorpusReplay:
    def test_corpus_byte_identical_under_all_backends(self, config):
        replayed = 0
        for name, entry in _corpus_entries():
            for chaining in (False, True):
                replayed += _assert_backends_agree(
                    entry["lines"], config, f"corpus:{name}", chaining
                )
        assert replayed > 0


class TestFuzzSweep:
    def test_fuzzed_programs_byte_identical_under_all_backends(self, config):
        generator = ProgramGenerator(seed=FUZZ_SEED)
        executed = 0
        for index in range(FUZZ_PROGRAMS):
            program = generator.generate(index)
            executed += _assert_backends_agree(
                program.lines, config, f"fuzz:{index}"
            )
        # The generator emits valid programs by construction; near-all must
        # actually replay (a mass of invalid programs would hollow the test).
        assert executed >= FUZZ_PROGRAMS * 9 // 10


class TestTierUpMidLoop:
    def test_block_promoted_by_count_inside_a_chained_loop(self, config):
        """A loop body reaches TIER_UP_EXECUTIONS within one run: it is
        promoted to inline code between two chained transfers, in place,
        and the run still matches the oracle byte for byte."""
        from repro.cache import STATS
        from repro.dbt.engine import TIER_UP_EXECUTIONS

        iterations = 3 * TIER_UP_EXECUTIONS
        lines = [
            "mov r0, #0",
            "mov r1, #0",
            "loop:",
            "add r1, r1, r0",
            "eor r1, r1, #5",
            "add r0, r0, #1",
            f"cmp r0, #{iterations}",
            "blt loop",
            "bx lr",
        ]
        unit = assemble_program(lines)
        engine = DBTEngine(unit, config, chaining=True, backend="jit")
        before = STATS.snapshot()
        outcome = _run_outcome(engine)
        promoted = STATS.delta(before)
        assert outcome == _run_outcome(
            DBTEngine(unit, config, chaining=True, backend="interp")
        )
        assert promoted.jit_tierups_count >= 1
        assert promoted.jit_tierups_reuse == 0  # one run: count trigger only
        hot = [
            entry.compiled
            for entry in engine.code_cache.values()
            if entry.compiled.execute.__name__ == "_block"
        ]
        assert hot, "no block tiered up"
        # Promotion swapped execute in place: the chain maps still hold
        # the promoted objects, and the loop transferred through them.
        chained = {
            id(cb)
            for entry in engine.code_cache.values()
            for cb in entry.compiled.chain.values()
        }
        assert any(id(cb) in chained for cb in hot)
        assert outcome[1]["chained_executions"] > 2 * TIER_UP_EXECUTIONS
