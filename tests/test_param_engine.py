"""Tests for the setup memo's sharing guarantees (param/engine.py).

``build_setup`` memoizes SystemSetups by rule-set content and serves the
same object to every caller with an equal rule set.  Historically the setup
also *aliased* the caller's RuleSet, so a caller mutating either the input
set or the returned setup silently poisoned every later memo hit.  The fix
is two-sided: the input set is snapshotted, and every RuleSet inside a
memoized setup is frozen.

The ``seqparam`` stage is built on its first read, once per setup, so a
set-up that never reads it derives no sequence rules.
"""

import sys
import threading
import time

import pytest

from repro.cache import STATS, BoundedMemo
from repro.errors import RuleError
from repro.learning.ruleset import RuleSet
from repro.learning.store import rule_to_dict
from repro.param import STAGES, build_setup, derive, engine, seqderive


class TestFrozenRuleSet:
    def test_freeze_blocks_add_and_extend(self, demo_rules):
        frozen = demo_rules.copy().freeze()
        rule = frozen.rules[0]
        with pytest.raises(RuleError):
            frozen.add(rule)
        with pytest.raises(RuleError):
            frozen.extend([rule])
        assert frozen.frozen

    def test_copy_of_frozen_is_mutable(self, demo_rules):
        frozen = demo_rules.copy().freeze()
        thawed = frozen.copy()
        assert not thawed.frozen
        assert len(thawed) == len(frozen)
        # Lookup still works on both; the copy preserves the indexes.
        for rule in frozen.rules:
            assert thawed.lookup(rule.guest) is not None

    def test_fresh_sets_start_mutable(self):
        assert not RuleSet().frozen


class TestSetupMemoIsolation:
    def test_returned_setup_is_frozen(self, demo_setup):
        rule = demo_setup.param.derived.rules[0]
        for ruleset in (
            demo_setup.learned,
            demo_setup.param.derived,
            demo_setup.configs["wopara"].rules,
            demo_setup.configs["opcode"].rules,
            demo_setup.configs["condition"].rules,
            demo_setup.configs["seqparam"].rules,
        ):
            assert ruleset.frozen
            with pytest.raises(RuleError):
                ruleset.add(rule)

    def test_caller_mutation_does_not_poison_memo(self, demo_rules):
        mine = demo_rules.copy()
        first = build_setup(mine)
        before = len(first.learned)

        # The caller keeps mutating its own (unfrozen) set afterwards; the
        # memoized setup must have snapshotted it, not aliased it.
        added = any(mine.add(rule) for rule in first.param.derived.rules)
        assert added, "expected at least one derived rule absent from learned"
        assert len(first.learned) == before

        # A later caller with the original content gets the clean setup.
        served = build_setup(demo_rules.copy())
        assert len(served.learned) == before


@pytest.fixture(scope="module")
def quick_rules():
    from repro.difftest.oracle import training_rules

    return training_rules()


@pytest.fixture
def seq_calls(monkeypatch):
    """Empty setup and target memos, and the learned sets that
    ``derive_sequence_rules`` was called with through the engine."""
    calls = []

    def counting(learned):
        calls.append(learned)
        return seqderive.derive_sequence_rules(learned)

    monkeypatch.setattr(engine, "derive_sequence_rules", counting)
    monkeypatch.setattr(engine, "_SETUP_MEMO", BoundedMemo(register=False))
    monkeypatch.setattr(derive, "_TARGET_MEMO", BoundedMemo(register=False))
    return calls


class TestLazySeqparamStage:
    def test_built_on_first_read_only(self, quick_rules, seq_calls):
        setup = build_setup(quick_rules)
        assert seq_calls == []
        first = setup.configs["seqparam"]
        assert len(seq_calls) == 1
        assert setup.configs["seqparam"] is first
        assert build_setup(quick_rules) is setup  # a memo hit
        assert build_setup(quick_rules).configs["seqparam"] is first
        assert len(seq_calls) == 1

    def test_param_stays_eager(self, quick_rules, seq_calls):
        before = STATS.snapshot()
        build_setup(quick_rules)
        assert STATS.delta(before).derivations > 0
        assert seq_calls == []

    def test_stages_listed_without_building(self, quick_rules, seq_calls):
        configs = build_setup(quick_rules).configs
        assert list(configs) == list(STAGES)
        assert len(configs) == len(STAGES)
        assert "seqparam" in configs and "nope" not in configs
        assert seq_calls == []
        with pytest.raises(KeyError):
            configs["nope"]

    def test_rules_are_condition_plus_sequence_rules(self, quick_rules, seq_calls):
        setup = build_setup(quick_rules)
        config = setup.configs["seqparam"]
        expected = setup.configs["condition"].rules.rules + (
            seqderive.derive_sequence_rules(setup.learned).rules
        )
        assert len(expected) > len(setup.configs["condition"].rules)
        assert [rule_to_dict(r) for r in config.rules.rules] == [
            rule_to_dict(r) for r in expected
        ]
        assert config.rules.frozen
        assert (config.name, config.condition, config.pc_constraint) == (
            "seq param",
            True,
            True,
        )

    def test_concurrent_first_reads_build_once(self, quick_rules, seq_calls, monkeypatch):
        counting = engine.derive_sequence_rules

        def slow(learned):
            time.sleep(0.05)  # hold the build open while the others arrive
            return counting(learned)

        monkeypatch.setattr(engine, "derive_sequence_rules", slow)
        configs = build_setup(quick_rules).configs
        barrier = threading.Barrier(4)
        seen = []

        def read():
            barrier.wait(timeout=30)
            seen.append(configs["seqparam"])

        threads = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 4
        assert all(config is seen[0] for config in seen)
        assert len(seq_calls) == 1

    def test_failed_build_is_retried(self, quick_rules, seq_calls, monkeypatch):
        counting = engine.derive_sequence_rules
        failures = [RuntimeError("derivation failed")]

        def flaky(learned):
            if failures:
                raise failures.pop()
            return counting(learned)

        monkeypatch.setattr(engine, "derive_sequence_rules", flaky)
        configs = build_setup(quick_rules).configs
        with pytest.raises(RuntimeError, match="derivation failed"):
            configs["seqparam"]
        config = configs["seqparam"]
        assert config.rules.frozen
        assert configs["seqparam"] is config
        assert len(seq_calls) == 1
