"""Per-layer timing by wrapping public functions from outside the program.

A :class:`Tracer` replaces functions and methods at the names their callers
actually resolve (``repro.dbt.engine.form_trace``, not only
``repro.dbt.trace.form_trace``) with wrappers that record, per layer:

* ``calls`` and inclusive ``total`` seconds;
* ``self`` seconds: the span's duration minus the part its child spans
  (wrapped calls made while it runs, on the same thread) cover;
* layer counters, fed by the ``COUNTERS`` hooks at the same boundary.

Spans are accumulated in per-thread tables (the service runs translation
and execution on executor threads) and merged when read.  Summed over all
layers, self time equals the time spent under any wrapped root span, so
``wall - sum(self)`` is exactly the time no layer accounts for.

:meth:`Tracer.uninstall` restores every original object; the wrappers are
tagged so a test can prove none survives.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

MARK = "__perfbench_wrapped__"

#: (module, owner attribute or None, attribute, layer) for every span this
#: benchmark records inside one process.  ``owner`` names a class inside the
#: module; ``None`` patches the module attribute itself.
SPAN_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.dbt.translator", "BlockTranslator", "translate", "dbt.translator"),
    ("repro.learning.ruleset", "RuleSet", "lookup_canonical", "learning.ruleset"),
    ("repro.dbt.tcg", None, "lower", "dbt.tcg"),
    ("repro.dbt.compiler", None, "generate_block_source", "dbt.compiler.generate"),
    ("repro.dbt.compiler", None, "compile_block_source", "dbt.compiler.compile"),
    ("repro.service.server", None, "generate_block_source", "dbt.compiler.generate"),
    ("repro.service.server", None, "compile_block_source", "dbt.compiler.compile"),
    ("repro.dbt.engine", "DBTEngine", "__init__", "dbt.engine"),
    ("repro.dbt.engine", "DBTEngine", "run", "dbt.engine"),
    ("repro.dbt.engine", None, "form_trace", "dbt.trace.form"),
    ("repro.learning.learn", None, "learn_suite", "learning"),
    ("repro.learning.learn", None, "extract", "learning.extract"),
    ("repro.learning.learn", None, "check_equivalence", "verify"),
    ("repro.param.derive", None, "check_equivalence", "verify"),
    ("repro.param.seqderive", None, "check_equivalence", "verify"),
    ("repro.param.engine", None, "_build_setup_uncached", "param"),
    ("repro.param.engine", None, "derive_rules", "param.derive"),
    ("repro.param.engine", None, "derive_sequence_rules", "param.seqderive"),
)

#: Extra spans recorded only inside the server process.
SERVER_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.service.server", "TranslationService", "_execute", "service.server.execute"),
    ("repro.service.protocol", None, "encode", "service.protocol.encode"),
    ("repro.service.protocol", None, "decode", "service.protocol.decode"),
)


def _count_translate(counts, tb, args):
    counts["dbt.translator.blocks"] += 1
    counts["dbt.translator.guest"] += tb.guest_count
    counts["dbt.translator.covered"] += tb.covered_count


def _count_lookup(counts, rule, args):
    counts["learning.ruleset.lookups"] += 1
    if rule is not None:
        counts["learning.ruleset.hits"] += 1


def _count_lower(counts, lowered, args):
    counts["dbt.tcg.lowered_insns"] += 1


def _count_generate(counts, source, args):
    counts["dbt.compiler.blocks"] += 1
    counts["dbt.compiler.source_bytes"] += len(source.text)


def _count_run(counts, result, args):
    counts["dbt.engine.runs"] += 1
    counts["dbt.engine.block_executions"] += result.metrics.block_executions
    counts["dbt.engine.chained_executions"] += result.metrics.chained_executions


def _count_form(counts, outcome, args):
    trace, _permanent = outcome
    counts["dbt.trace.formed" if trace is not None else "dbt.trace.form_failed"] += 1


def _count_learn(counts, outcome, args):
    counts["learning.learned_rules"] += len(outcome[1])


def _count_extract(counts, result, args):
    counts["learning.candidates"] += result.candidate_count


def _count_verify(counts, result, args):
    counts["verify.calls"] += 1
    if result.equivalent:
        counts["verify.accepted"] += 1


def _count_derive(counts, result, args):
    counts["param.derived_rules"] += len(result.derived)


def _count_seqderive(counts, result, args):
    counts["param.derived_rules"] += len(result)


def _count_encode(counts, data, args):
    counts["service.protocol.response_bytes"] += len(data)


#: Counter hook per layer, or per (layer, attribute) where one layer spans
#: several functions with different results.
COUNTERS: Dict[object, Callable] = {
    ("dbt.engine", "run"): _count_run,
    "dbt.translator": _count_translate,
    "learning.ruleset": _count_lookup,
    "dbt.tcg": _count_lower,
    "dbt.compiler.generate": _count_generate,
    "dbt.trace.form": _count_form,
    "learning": _count_learn,
    "learning.extract": _count_extract,
    "verify": _count_verify,
    "param.derive": _count_derive,
    "param.seqderive": _count_seqderive,
    "service.protocol.encode": _count_encode,
}


class _CountTable(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Installs span wrappers, accumulates per-layer times and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Tuple[Dict[str, List[float]], _CountTable]] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- per-thread state ------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.spans, local.counts
        except AttributeError:
            local.stack = []
            local.spans = {}
            local.counts = _CountTable()
            with self._lock:
                self._tables.append((local.spans, local.counts))
            return local.stack, local.spans, local.counts

    def reset(self) -> None:
        """Zero every table (call while no span is open)."""
        with self._lock:
            for spans, counts in self._tables:
                spans.clear()
                counts.clear()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, original: Callable, layer: str, attr: str = "") -> Callable:
        counter = COUNTERS.get((layer, attr), COUNTERS.get(layer))
        state = self._state
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack, spans, counts = state()
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = spans.get(layer)
                if row is None:
                    row = spans[layer] = [0, 0.0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - children
                if not stack:
                    row[3] += elapsed  # root span: covers wall time
            if counter is not None:
                counter(counts, result, args)
            return result

        setattr(wrapper, MARK, original)
        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def install(self, targets=SPAN_TARGETS) -> "Tracer":
        # Import every module first: one imported mid-install would bind
        # already-wrapped names (``from ... import``) as its originals.
        for module_name, *_ in targets:
            importlib.import_module(module_name)
        for module_name, owner_name, attr, layer in targets:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            self.patch(owner, attr, self._wrap(getattr(owner, attr), layer, attr))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Merged ``{"spans": {layer: [calls, total, self, root]}, "counts"}``."""
        spans: Dict[str, List[float]] = {}
        counts: Dict[str, float] = {}
        with self._lock:
            tables = [(dict(s), dict(c)) for s, c in self._tables]
        for table_spans, table_counts in tables:
            for layer, row in table_spans.items():
                merged = spans.setdefault(layer, [0, 0.0, 0.0, 0.0])
                for i, value in enumerate(row):
                    merged[i] += value
            for key, value in table_counts.items():
                counts[key] = counts.get(key, 0) + value
        return {"spans": spans, "counts": counts}


def surviving_wrappers(targets=SPAN_TARGETS + SERVER_TARGETS) -> List[str]:
    """Names among *targets* that still resolve to a tracer wrapper."""
    left = []
    for module_name, owner_name, attr, _layer in targets:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        if hasattr(getattr(owner, attr), MARK):
            left.append(f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}")
    return left
