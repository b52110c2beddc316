"""Parameterization orchestration: rule sets and DBT configurations.

Builds the five system configurations the evaluation compares (QEMU, the
learning baseline, and the three cumulative parameterization stages of
figs. 14/15), from one learned rule set.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.cache import MISS, BoundedMemo
from repro.dbt.translator import TranslationConfig
from repro.learning.ruleset import RuleSet
from repro.learning.store import ruleset_fingerprint
from repro.param.derive import ParamResult, derive_rules
from repro.param.seqderive import derive_sequence_rules

#: Configuration keys in cumulative order.
STAGES = ("qemu", "wopara", "opcode", "addrmode", "condition", "seqparam", "manual")


class StageConfigs(Mapping):
    """One setup's :class:`TranslationConfig` per stage, in :data:`STAGES` order.

    The ``seqparam`` stage is built the first time it is read: deriving
    and verifying sequence rules is the dearest part of a set-up, and the
    paper's stages, the held-out runs and the experiments never read it.
    Setups are shared (the memo below, the server's threads), so the
    build runs once under a lock; one that raises leaves the stage unbuilt
    and the next read retries it.  Iterating, ``len`` and ``in`` build
    nothing; reading the value (``[]``, ``get``, ``values``, ``items``,
    ``dict(...)``) builds it.
    """

    __slots__ = ("_configs", "_learned", "_all_rules", "_lock")

    def __init__(
        self,
        configs: Dict[str, Optional[TranslationConfig]],
        learned: RuleSet,
        all_rules: RuleSet,
    ) -> None:
        self._configs = configs  # every stage; "seqparam" is None until built
        self._learned = learned
        self._all_rules = all_rules
        self._lock = threading.Lock()

    def __getitem__(self, stage: str) -> TranslationConfig:
        config = self._configs[stage]
        if config is None:
            config = self._build_seqparam()
        return config

    def __iter__(self) -> Iterator[str]:
        return iter(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def __contains__(self, stage) -> bool:
        return stage in self._configs

    def _build_seqparam(self) -> TranslationConfig:
        with self._lock:
            config = self._configs["seqparam"]
            if config is None:
                # Extension (the paper's future work, §V-D): sequence-rule
                # parameterization on top of the full system.
                seq_rules = self._all_rules.copy()
                seq_rules.extend(derive_sequence_rules(self._learned).rules)
                config = TranslationConfig(
                    "seq param",
                    rules=seq_rules.freeze(),
                    condition=True,
                    pc_constraint=True,
                )
                self._configs["seqparam"] = config
        return config


@dataclass
class SystemSetup:
    """Everything the experiments need for one learned rule set.

    Every RuleSet inside one is frozen, the lazily built ``seqparam``
    stage's included (:class:`StageConfigs`).
    """

    learned: RuleSet
    param: ParamResult
    configs: StageConfigs


#: Setups are memoized by rule-set content, so e.g. the same training subset
#: drawn twice in a sweep (or in two stages of one experiment) derives once.
#: Returned SystemSetups are shared, so every RuleSet inside one is frozen,
#: the ``seqparam`` stage's from the moment it is built: a caller mutating a
#: returned setup gets a loud error instead of silently poisoning every
#: later cache hit (use ``.copy()`` for a mutable set).
_SETUP_MEMO = BoundedMemo(maxsize=64)


def build_setup(learned: RuleSet) -> SystemSetup:
    """Derive rules and assemble one TranslationConfig per stage.

    The paper's derivation (``setup.param``) runs here; the ``seqparam``
    stage's sequence rules are derived on its first read (:class:`StageConfigs`).
    """
    fingerprint = ruleset_fingerprint(learned)
    memoized = _SETUP_MEMO.get(fingerprint)
    if memoized is not MISS:
        return memoized
    setup = _build_setup_uncached(learned)
    _SETUP_MEMO.put(fingerprint, setup)
    return setup


def _build_setup_uncached(learned: RuleSet) -> SystemSetup:
    # Snapshot the caller's set: the memoized setup must not alias an object
    # the caller can keep mutating (same content ⇒ same derivation output).
    learned = learned.copy()
    param = derive_rules(learned, include_addrmode=True)

    opcode_rules = learned.copy()
    opcode_rules.extend(param.derived.by_origin("opcode-param"))

    all_rules = learned.copy()
    all_rules.extend(param.derived.rules)

    configs = {
        "qemu": TranslationConfig("qemu", rules=None),
        "wopara": TranslationConfig("w/o para.", rules=learned),
        "opcode": TranslationConfig("opcode", rules=opcode_rules),
        "addrmode": TranslationConfig(
            "addr mode", rules=all_rules, pc_constraint=True
        ),
        "condition": TranslationConfig(
            "condition", rules=all_rules, condition=True, pc_constraint=True
        ),
        "seqparam": None,  # built on first read
        # Extension (§V-B2's closing note): manual rules for the seven
        # unlearnable instructions on top of the full parameterized system.
        "manual": TranslationConfig(
            "manual",
            rules=all_rules,
            condition=True,
            pc_constraint=True,
            manual_other=True,
        ),
    }
    for ruleset in (learned, param.derived, opcode_rules, all_rules):
        ruleset.freeze()
    return SystemSetup(
        learned=learned,
        param=param,
        configs=StageConfigs(configs, learned, all_rules),
    )
