"""The benchmark's own checks: inputs, determinism, attribution, cleanup.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import corpus
import harness
import inproc
import tracer
from conftest import BENCH, ROOT


@pytest.fixture
def small(monkeypatch):
    """Shrink the workloads to one round so a test run takes seconds."""
    monkeypatch.setattr(inproc, "COLD_ROUNDS", 1)
    monkeypatch.setattr(inproc, "LEARN_SETS", 2)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def _texts(rounds):
    return [
        ("\n".join(p.assembly()), json.dumps(p.reference, sort_keys=True))
        for rnd in rounds
        for p in rnd
    ]


def test_same_seed_gives_identical_corpus():
    first = _texts(corpus.program_rounds(7, 1))
    assert first == _texts(corpus.program_rounds(7, 1))
    assert first != _texts(corpus.program_rounds(8, 1))
    assert corpus.training_sets(7, 4) == corpus.training_sets(7, 4)


def test_corpus_round_trips_through_assembly():
    for program in corpus.program_rounds(3, 1)[0]:
        assert corpus.round_trips(program), program.name


def test_deterministic_metrics_repeat_exactly(small):
    keys = ("guest_coverage", "host_insns_per_guest", "derived_rules")
    for workload in (inproc.cold_start, inproc.learn):
        runs = []
        for _ in range(2):
            log, metrics, _ = workload(5, 0.0, False)
            assert log.failed == 0, log.failures
            runs.append({k: metrics[k] for k in keys})
        assert runs[0] == runs[1]
        assert all(value > 0 for value in runs[0].values())


def test_every_setup_repeats_the_same_cold_work():
    calls = []
    for _ in range(2):
        with tracer.Tracer() as traced:
            harness.time_setups(1)
        calls.append(traced.snapshot()["counts"]["verify.calls"])
    assert calls[0] == calls[1] > 0


def test_self_times_and_unattributed_sum_to_wall(small):
    log, values, table = inproc.cold_start(2, 0.0, True)
    assert log.failed == 0
    assert table is harness.PER_LAYER
    attributed = sum(values[m] for m in harness.SELF_TIME_METRIC.values())
    assert math.isclose(attributed + values["unattributed_s"], values["wall_s"], rel_tol=1e-9)
    assert 0 <= values["unattributed_s"] < 0.1 * values["wall_s"]
    assert values["dbt.translator.blocks"] == values["dbt.compiler.blocks"] > 0


def test_no_wrapper_survives_a_traced_run(small):
    assert tracer.surviving_wrappers() == []
    inproc.learn(1, 0.0, True)
    assert tracer.surviving_wrappers() == []


def test_tracer_restores_on_exit():
    from repro.dbt import engine

    original = engine.form_trace
    with tracer.Tracer():
        assert engine.form_trace is not original
        assert tracer.surviving_wrappers()
    assert engine.form_trace is original
    assert tracer.surviving_wrappers() == []


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    sys.path.insert(0, str(BENCH))
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-start", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
