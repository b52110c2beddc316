"""Learned- and derived-rule snapshot over the full benchmark suite.

Learns rules from all 12 workload benchmarks and derives the parameterized
rule set and the sequence rules (:func:`repro.param.derive_sequence_rules`)
from them, cold: every in-memory cache cleared, so each verdict is
computed rather than recalled.  The shape-class
cross-check samples at 1-in-1, so every verdict served from a shape-class
memo is re-verified directly (:mod:`repro.verify.shapeclass`).

The learned rules, the derived payload (rules, counts and per-target
stages, as :func:`repro.param.derive._param_result_to_dict` stores them) and
the sequence-derived rules are each serialized deterministically and compared by ``sha256[:16]`` with
``tests/data/derived_rules_digests.json``, together with the derivation
counts and the number of cross-checked verdicts.

Regenerate the snapshot (only when a learning, verification or derivation
change is intended)::

    PYTHONPATH=src python tests/test_derived_rules_snapshot.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SNAPSHOT_PATH = os.path.join(HERE, "data", "derived_rules_digests.json")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cold_snapshot() -> Dict[str, object]:
    """Learn and derive over the whole suite from cold; return the snapshot."""
    from repro.cache import clear_all_caches
    from repro.experiments.common import rules_from
    from repro.learning.store import rule_to_dict
    from repro.param.derive import _param_result_to_dict, derive_rules
    from repro.param.seqderive import derive_sequence_rules
    from repro.verify import shapeclass
    from repro.workloads import BENCHMARK_NAMES

    clear_all_caches()
    before = shapeclass.cross_check_stats()
    previous_mod = shapeclass._CROSS_CHECK_MOD
    shapeclass.set_cross_check(1)
    try:
        learned = rules_from(tuple(BENCHMARK_NAMES))
        derived = _param_result_to_dict(derive_rules(learned))
        sequence = derive_sequence_rules(learned)
    finally:
        shapeclass.set_cross_check(previous_mod)
    after = shapeclass.cross_check_stats()
    return {
        "training_set": list(BENCHMARK_NAMES),
        "learned_digest": _digest([rule_to_dict(r) for r in learned.rules]),
        "derived_digest": _digest(derived),
        "sequence_digest": _digest([rule_to_dict(r) for r in sequence.rules]),
        "sequence_rules": len(sequence),
        "counts": derived["counts"],
        "cross_check": {
            key: after[key] - before[key] for key in ("checked", "failed")
        },
    }


@pytest.fixture(scope="module")
def snapshots():
    with open(SNAPSHOT_PATH, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    return expected, cold_snapshot()


def test_training_set_unchanged(snapshots):
    expected, actual = snapshots
    assert actual["training_set"] == expected["training_set"]


def test_learned_rules_match_snapshot(snapshots):
    expected, actual = snapshots
    assert actual["learned_digest"] == expected["learned_digest"]


def test_derived_rules_match_snapshot(snapshots):
    expected, actual = snapshots
    assert actual["counts"] == expected["counts"]
    assert actual["derived_digest"] == expected["derived_digest"]


def test_sequence_rules_match_snapshot(snapshots):
    expected, actual = snapshots
    assert actual["sequence_rules"] == expected["sequence_rules"]
    assert actual["sequence_digest"] == expected["sequence_digest"]


def test_every_shape_class_verdict_cross_checks(snapshots):
    expected, actual = snapshots
    assert actual["cross_check"]["failed"] == 0
    assert actual["cross_check"] == expected["cross_check"]


def main() -> None:
    snapshot = cold_snapshot()
    os.makedirs(os.path.dirname(SNAPSHOT_PATH), exist_ok=True)
    with open(SNAPSHOT_PATH, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {SNAPSHOT_PATH}: {snapshot['counts']}")


if __name__ == "__main__":
    main()
