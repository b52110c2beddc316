"""Translation snapshot: every rule stage translates byte-identically.

Each program's blocks are translated through one fresh
:class:`~repro.dbt.translator.BlockTranslator` over the quick training
setup (:func:`repro.difftest.oracle.training_setup`) and serialized —
start, guest count, host instruction reprs, categories, labels, covered
bits and applied rules (named by their guest/host text, so the digest is
stable across processes).  One ``sha256[:16]`` per program is compared with
``tests/data/translation_digests.json``.

Inputs: the ``tests/corpus`` entries, the 12 workload benchmarks (the
only inputs here where multi-instruction rules apply), and seeded fuzzed
programs (``ProgramGenerator(11)``) — 500 for ``condition``, 120 for the
other rule stages.

Regenerate the snapshot (only when a translation change is intended)::

    PYTHONPATH=src python tests/test_translation_snapshot.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Tuple

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")
SNAPSHOT_PATH = os.path.join(HERE, "data", "translation_digests.json")

FUZZ_SEED = 11
#: fuzzed programs per rule stage (``condition`` is the full system).
FUZZ_PROGRAMS = {
    "condition": 500,
    "wopara": 120,
    "opcode": 120,
    "addrmode": 120,
    "seqparam": 120,
    "manual": 120,
}


def _programs(count: int) -> List[Tuple[str, object]]:
    """(name, CompiledUnit): benchmarks, corpus, then ``count`` fuzzed programs.

    Programs the assembler rejects are skipped; the generator is seeded, so
    the skipped set is stable too.
    """
    from repro.difftest.corpus import load_corpus
    from repro.difftest.gen import ProgramGenerator
    from repro.difftest.oracle import InvalidProgram, assemble_program
    from repro.workloads import BENCHMARK_NAMES, compiled_benchmark

    sources = [(f"corpus:{e.name}", e.lines) for e in load_corpus(CORPUS_DIR)]
    generator = ProgramGenerator(FUZZ_SEED)
    sources += [(f"fuzz:{i}", generator.generate(i).lines) for i in range(count)]
    programs = [(f"bench:{n}", compiled_benchmark(n).guest) for n in BENCHMARK_NAMES]
    for name, lines in sources:
        try:
            programs.append((name, assemble_program(lines)))
        except InvalidProgram:
            pass
    return programs


def _rule_text(rule) -> str:
    guest = "; ".join(str(insn) for insn in rule.guest)
    host = "; ".join(str(insn) for insn in rule.host)
    return f"{guest} => {host}"


def _serialize(blocks) -> str:
    return "\n".join(
        "|".join(
            (
                str(tb.start),
                str(tb.guest_count),
                ";".join(repr(insn) for insn in tb.host),
                ";".join(tb.categories),
                ";".join(f"{k}={v}" for k, v in sorted(tb.labels.items())),
                "".join("1" if c else "0" for c in tb.covered),
                ";".join(f"[{_rule_text(r)}]x{n}" for r, n in tb.applied),
            )
        )
        for tb in blocks
    )


def stage_digests(stage: str) -> Dict[str, str]:
    """Program name -> digest of its serialized translation at ``stage``."""
    from repro.dbt.block import BlockMap
    from repro.dbt.translator import BlockTranslator
    from repro.difftest.oracle import stage_config

    config = stage_config(stage)
    digests = {}
    for name, unit in _programs(FUZZ_PROGRAMS[stage]):
        blockmap = BlockMap(unit)
        translator = BlockTranslator(unit, blockmap, config)
        text = _serialize([translator.translate(b) for b in blockmap.blocks])
        digests[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return digests


@pytest.fixture(scope="module")
def snapshot() -> Dict[str, Dict[str, str]]:
    with open(SNAPSHOT_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("stage", sorted(FUZZ_PROGRAMS))
def test_translation_matches_snapshot(stage, snapshot):
    expected = snapshot[stage]
    actual = stage_digests(stage)
    assert sorted(actual) == sorted(expected), "program set changed"
    diverged = [name for name in expected if actual[name] != expected[name]]
    assert diverged == [], f"{len(diverged)} translations diverged: {diverged[:10]}"


def main() -> None:
    snapshot = {stage: stage_digests(stage) for stage in sorted(FUZZ_PROGRAMS)}
    os.makedirs(os.path.dirname(SNAPSHOT_PATH), exist_ok=True)
    # One line per stage: a regenerated snapshot's diff names the stages.
    lines = [f'"{k}": {json.dumps(v, sort_keys=True)}' for k, v in snapshot.items()]
    with open(SNAPSHOT_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    total = sum(len(d) for d in snapshot.values())
    print(f"wrote {total} digests to {SNAPSHOT_PATH}")


if __name__ == "__main__":
    main()
