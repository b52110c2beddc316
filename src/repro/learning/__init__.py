"""Translation-rule learning pipeline (the [16]/[18] baseline substrate)."""

from repro.learning.extract import Candidate, ExtractionResult, extract
from repro.learning.learn import (
    LearnStats,
    PairLearning,
    Verifier,
    learn_pair,
    learn_suite,
)
from repro.learning.rule import (
    TranslationRule,
    guest_key,
    window_bindings,
    window_keys,
)
from repro.learning.ruleset import RuleSet
from repro.learning.store import (
    dump_rules,
    learning_from_dict,
    learning_to_dict,
    load_rules,
    load_rules_file,
    ruleset_fingerprint,
    save_rules,
)

__all__ = [
    "Candidate",
    "ExtractionResult",
    "extract",
    "LearnStats",
    "PairLearning",
    "Verifier",
    "learn_pair",
    "learn_suite",
    "TranslationRule",
    "RuleSet",
    "guest_key",
    "window_bindings",
    "window_keys",
    "dump_rules",
    "load_rules",
    "save_rules",
    "load_rules_file",
    "ruleset_fingerprint",
    "learning_to_dict",
    "learning_from_dict",
]
