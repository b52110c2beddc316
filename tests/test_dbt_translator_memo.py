"""The translator's window memo: one per frozen rule set, shared by every
translator, holding each window's rule and instantiated host body."""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import clear_all_caches
from repro.dbt import BlockMap, BlockTranslator, DBTEngine, unit_from_assembly
from repro.dbt import translator as translator_mod
from repro.dbt.runtime import scratch_reg
from repro.difftest.gen import ProgramGenerator
from repro.difftest.oracle import InvalidProgram, assemble_program, stage_config
from repro.errors import RuleError
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Reg
from repro.learning.rule import TranslationRule
from repro.learning.ruleset import RuleSet

_WINDOWS = translator_mod._WINDOWS


def translate_all(unit, config):
    blockmap = BlockMap(unit)
    translator = BlockTranslator(unit, blockmap, config)
    return [translator.translate(block) for block in blockmap.blocks]


def render(blocks):
    """Everything a translation emits, host code as assembly text."""
    return [
        (
            tb.start,
            tb.guest_count,
            tuple(str(insn) for insn in tb.host),
            tb.categories,
            sorted(tb.labels.items()),
            tb.covered,
            tb.applied,
        )
        for tb in blocks
    ]


def private(config):
    """The same configuration over a mutable copy: a per-translator memo."""
    return dataclasses.replace(config, rules=config.rules.copy())


@pytest.fixture
def count_calls(monkeypatch):
    """Count fingerprinting, index lookups and instantiations; the
    windows instantiated are kept under ``calls.windows``."""
    calls = Counter()
    calls.windows = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "instantiate":
                calls.windows.append(tuple(args[1]))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("window_key_prefixes", "window_keys"):
        monkeypatch.setattr(
            translator_mod, name, counted(name, getattr(translator_mod, name))
        )
    monkeypatch.setattr(
        TranslationRule, "instantiate", counted("instantiate", TranslationRule.instantiate)
    )
    monkeypatch.setattr(
        RuleSet, "lookup_canonical", counted("lookup_canonical", RuleSet.lookup_canonical)
    )
    return calls


def _program(index: int):
    try:
        return assemble_program(ProgramGenerator(29).generate(index).lines)
    except InvalidProgram:
        return None


class TestSharedMemo:
    def test_second_engine_resolves_nothing_again(self, demo_pair, demo_setup, count_calls):
        config = demo_setup.configs["condition"]
        assert config.rules.frozen
        _WINDOWS.clear()
        first = DBTEngine(demo_pair.guest, config, backend="jit").run()
        assert count_calls["instantiate"] and count_calls["window_key_prefixes"]
        count_calls.clear()
        second = DBTEngine(demo_pair.guest, config, backend="jit").run()
        assert second.metrics.blocks_translated == first.metrics.blocks_translated > 0
        assert count_calls == Counter()
        assert second.architectural_snapshot() == first.architectural_snapshot()

    def test_stages_sharing_a_set_share_its_entries(self, demo_pair, demo_setup):
        addrmode = demo_setup.configs["addrmode"]
        condition = demo_setup.configs["condition"]
        assert addrmode.rules is condition.rules
        _WINDOWS.clear()
        translate_all(demo_pair.guest, addrmode)
        size = len(_WINDOWS)
        assert size > 0
        translate_all(demo_pair.guest, condition)
        assert len(_WINDOWS) == size

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(index=st.integers(0, 10_000), other=st.integers(0, 10_000))
    def test_warm_translation_equals_cold(self, index, other):
        unit, warmup = _program(index), _program(other)
        if unit is None or warmup is None:
            return
        condition, addrmode = stage_config("condition"), stage_config("addrmode")
        reference = render(translate_all(unit, private(condition)))
        _WINDOWS.clear()
        cold = render(translate_all(unit, condition))
        # Warm the memo from another program and another stage over the
        # same rule set; neither may change a byte.
        translate_all(warmup, condition)
        translate_all(unit, addrmode)
        warm = render(translate_all(unit, condition))
        assert cold == reference
        assert warm == reference


class TestMutableSets:
    def test_added_rule_serves_the_next_translator(self, demo_pair, demo_setup):
        config = demo_setup.configs["condition"]
        full = translate_all(demo_pair.guest, config)
        applied = []
        for tb in full:
            for rule, _length in tb.applied:
                if rule not in applied:
                    applied.append(rule)
        assert len(applied) >= 2
        kept, added = applied[0], applied[-1]
        rules = RuleSet()
        rules.add(kept)
        mutable = dataclasses.replace(config, rules=rules)
        size = len(_WINDOWS)
        before = translate_all(demo_pair.guest, mutable)
        assert len(_WINDOWS) == size  # a mutable set never reaches the shared memo
        assert all(rule is kept for tb in before for rule, _ in tb.applied)
        rules.add(added)
        after = translate_all(demo_pair.guest, mutable)
        assert any(rule is added for tb in after for rule, _ in tb.applied)


PC_SOURCE = """fn_main:
{pad}    add r0, pc, #8
    add r1, r0, r2
    bx lr"""


class TestPcWindows:
    def pc_unit(self, pad: int):
        return unit_from_assembly(PC_SOURCE.format(pad="    mov r3, r3\n" * pad))

    def test_rewritten_window_resolves_through_the_memo(self, count_calls):
        config = stage_config("condition")
        _WINDOWS.clear()
        first = translate_all(self.pc_unit(0), config)
        rewritten = (Instruction("add", (Reg("r0"), Reg("r_pc"), Imm(8))),)
        assert rewritten in count_calls.windows
        match = _WINDOWS.get((config.rules.memo_token,) + rewritten, None)
        assert match is not None and match.body is not None
        assert first[0].covered[0]
        count_calls.clear()
        count_calls.windows.clear()
        # Same window at another address: the same entry, a different PC.
        # (Only the PC path fingerprints with ``window_keys``.)
        second = translate_all(self.pc_unit(3), config)
        assert count_calls["window_keys"] == 0
        assert rewritten not in count_calls.windows
        assert second[0].covered[3]
        assert Instruction("movl", (Imm(0 * 4 + 8), scratch_reg(4))) in first[0].host
        assert Instruction("movl", (Imm(3 * 4 + 8), scratch_reg(4))) in second[0].host
        for insn in match.body:
            assert any(insn is emitted for emitted in second[0].host)


class TestBoundAndErrors:
    def test_never_exceeds_its_bound(self, demo_pair, demo_setup, monkeypatch):
        config = demo_setup.configs["condition"]
        reference = render(translate_all(demo_pair.guest, private(config)))
        monkeypatch.setattr(_WINDOWS, "maxsize", 4)
        _WINDOWS.clear()
        blockmap = BlockMap(demo_pair.guest)
        blocks = []
        for _ in range(2):
            translator = BlockTranslator(demo_pair.guest, blockmap, config)
            blocks = []
            for block in blockmap.blocks:
                blocks.append(translator.translate(block))
                assert len(_WINDOWS) <= 4
        assert render(blocks) == reference

    def test_clear_all_caches_empties_it(self, demo_pair, demo_setup):
        translate_all(demo_pair.guest, demo_setup.configs["condition"])
        assert len(_WINDOWS) > 0
        clear_all_caches()
        assert len(_WINDOWS) == 0

    def test_instantiation_errors_are_not_memoized(self, demo_pair, demo_setup, monkeypatch):
        config = demo_setup.configs["condition"]
        reference = render(translate_all(demo_pair.guest, private(config)))
        _WINDOWS.clear()
        original = TranslationRule.instantiate

        def failing(self, *args, **kwargs):
            raise RuleError("window does not match rule shape")

        monkeypatch.setattr(TranslationRule, "instantiate", failing)
        with pytest.raises(RuleError, match="rule shape"):
            translate_all(demo_pair.guest, config)
        with pytest.raises(RuleError, match="rule shape"):
            translate_all(demo_pair.guest, config)
        monkeypatch.setattr(TranslationRule, "instantiate", original)
        assert render(translate_all(demo_pair.guest, config)) == reference


class TestThreads:
    def test_concurrent_translators_agree(self, demo_pair, demo_setup):
        """Server worker threads share the memo: racing first uses of a
        window must still give every thread the single-threaded bytes."""
        import sys
        import threading

        config = demo_setup.configs["condition"]
        units = [demo_pair.guest] + [u for u in map(_program, range(3)) if u is not None]
        reference = [render(translate_all(unit, private(config))) for unit in units]
        # One fresh frozen copy per round: every round races on first uses.
        rounds = [
            dataclasses.replace(config, rules=config.rules.copy().freeze()) for _ in range(8)
        ]
        workers = 6
        barrier = threading.Barrier(workers, timeout=60)
        results, errors = {}, []

        def work(worker: int) -> None:
            try:
                for index, round_config in enumerate(rounds):
                    barrier.wait()
                    results[worker, index] = [
                        render(translate_all(unit, round_config)) for unit in units
                    ]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == workers * len(rounds)
        assert all(result == reference for result in results.values())
