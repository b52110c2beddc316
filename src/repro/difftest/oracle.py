"""The differential oracle: reference interpreter vs. translated execution.

A guest program is executed twice — once by the reference ARM interpreter
(:mod:`repro.dbt.guest_interp`) and once through the full
learn→parameterize→translate→execute DBT pipeline — and the final
architectural states are diffed.  General-purpose registers (r0–r12, sp,
lr) and guest-visible memory must match exactly; condition flags are
excluded from the verdict because the translator legitimately leaves dead
guest flags unmaterialized.  Flag *effects* are still covered: any guest
instruction that reads flags (conditional branch, adc, ...) turns a flag
error into a register/memory divergence downstream.

The module also hosts the shared training rule set (rules learned from two
benchmarks, so plenty of buckets are only reachable through *derived*
rules) and the fault injector used to prove the oracle catches translator
bugs: :func:`config_with_fault` plants a deliberately wrong rule — swapped
source operands in a non-commutative derived rule, or a lying flag-status
annotation — and the campaign asserts the fuzzer finds and shrinks it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.dbt.engine import DBTEngine
from repro.dbt.loader import unit_from_assembly
from repro.dbt.metrics import RunMetrics
from repro.dbt.translator import TranslationConfig
from repro.errors import ExecutionError, ReproError
from repro.dbt.guest_interp import GuestInterpreter
from repro.lang.program import CompiledUnit
from repro.learning.rule import TranslationRule
from repro.learning.ruleset import RuleSet
from repro.param.engine import SystemSetup, build_setup
from repro.verify.checker import FLAG_EQUIV, FLAG_MISMATCH

#: Benchmarks whose learned rules seed the fuzzing rule set.  Deliberately a
#: *small* training set (the paper's premise: less training data), so most of
#: the bucket universe is reachable only through parameterized derived rules.
TRAINING_BENCHMARKS: Tuple[str, ...] = ("mcf", "libquantum")

#: Guards against runaway generated programs (the generator only emits
#: bounded loops, but shrinking can splice arbitrary subsets).
MAX_REF_STEPS = 50_000
MAX_DBT_BLOCKS = 50_000

#: Register names compared by the oracle.
ORACLE_REGS: Tuple[str, ...] = tuple(f"r{i}" for i in range(13)) + ("sp", "lr")

FAULTS: Tuple[str, ...] = ("swap-operands", "flag-lie")

#: Non-commutative ALU mnemonics: swapping the source operands of a correct
#: rule is guaranteed to change semantics (given distinct register values).
_NONCOMMUTATIVE = ("sub", "rsb", "bic", "lsl", "lsr", "asr", "ror")

_DERIVED_ORIGINS = ("opcode-param", "addrmode-param")


class InvalidProgram(ReproError):
    """The *reference* interpreter rejected the program.

    Generated programs are valid by construction, but delta-debugging splices
    arbitrary instruction subsets; a splice the reference itself cannot run
    (runaway loop, wild branch) is uninteresting, not a translator bug.
    """


@dataclass
class Divergence:
    """One observed reference/DBT disagreement."""

    #: "register" | "memory" | "dbt-error"
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class OracleOutcome:
    """Result of one differential execution."""

    divergence: Optional[Divergence]
    #: DBT-side run metrics (None when the DBT run itself errored).
    metrics: Optional[RunMetrics]
    ref_steps: int = 0

    @property
    def ok(self) -> bool:
        return self.divergence is None


# -- training rules ------------------------------------------------------------


def training_rules() -> RuleSet:
    """Learned rules from :data:`TRAINING_BENCHMARKS` (memoized in-process)."""
    from repro.experiments.common import rules_from

    return rules_from(list(TRAINING_BENCHMARKS))


def training_setup() -> SystemSetup:
    """The full parameterized setup over the training rules (memoized)."""
    return build_setup(training_rules())


def stage_config(stage: str = "condition") -> TranslationConfig:
    """One of the standard per-stage configs over the training rules."""
    return training_setup().configs[stage]


# -- execution -----------------------------------------------------------------


def assemble_program(lines: Sequence[str]) -> CompiledUnit:
    """Assemble program lines; :class:`InvalidProgram` on assembler rejection.

    Also rejects programs referencing undefined labels: the translator fails
    on them at translate time while the reference only fails if the branch
    is taken — an asymmetry that would read as a fake divergence.
    """
    from repro.isa.operands import Label

    try:
        unit = unit_from_assembly("\n".join(lines))
    except ReproError as exc:
        raise InvalidProgram(f"assembler: {exc}") from exc
    for insn in unit.instructions:
        if insn.mnemonic == ".label":
            continue
        for op in insn.operands:
            if isinstance(op, Label) and op.name not in unit.labels:
                raise InvalidProgram(f"undefined label {op.name!r}")
    return unit


def run_oracle(
    program: Union[Sequence[str], CompiledUnit],
    config: TranslationConfig,
    max_steps: int = MAX_REF_STEPS,
    max_blocks: int = MAX_DBT_BLOCKS,
    backend: str = "interp",
) -> OracleOutcome:
    """Differentially execute one guest program under *config*.

    Raises :class:`InvalidProgram` when the reference side cannot run the
    program; any DBT-side failure — error or state mismatch — is reported as
    a :class:`Divergence`.  Tighter ``max_steps``/``max_blocks`` make
    shrinking cheap: splices that turn a bounded loop into a runaway are
    rejected quickly instead of burning the full default budget.

    ``backend`` selects the DBT execution engine under test.  The trace
    backend gets :meth:`TraceConfig.aggressive` settings — fuzzed programs
    are tiny, so production thresholds would never form a trace and the
    campaign would silently test the block tier twice.  A jit or trace
    engine runs the program twice: cold blocks run in template form the
    first time and as the inline code they tier up to the second, and
    both runs are diffed against the reference.
    """
    unit = program if isinstance(program, CompiledUnit) else assemble_program(program)
    try:
        reference = GuestInterpreter(unit).run(max_steps=max_steps)
    except Exception as exc:  # runaway splice, wild branch, bad label, ...
        raise InvalidProgram(f"reference: {type(exc).__name__}: {exc}") from exc

    engine_kwargs = {}
    if backend == "trace":
        from repro.dbt.trace import TraceConfig

        engine_kwargs["trace_config"] = TraceConfig.aggressive()
    ref_snapshot = reference.architectural_snapshot()
    try:
        engine = DBTEngine(unit, config, backend=backend, **engine_kwargs)
        result = engine.run(max_blocks=max_blocks)
        divergence = diff_snapshots(ref_snapshot, result.architectural_snapshot())
        if divergence is None and backend != "interp":
            again = engine.run(max_blocks=max_blocks).architectural_snapshot()
            divergence = diff_snapshots(ref_snapshot, again)
            if divergence is not None:
                divergence = Divergence(
                    divergence.kind, f"{divergence.detail} (second run)"
                )
    except ExecutionError as exc:
        return OracleOutcome(
            Divergence("dbt-error", str(exc)), None, ref_steps=reference.steps
        )
    except Exception as exc:  # a translator crash is a finding, not a crash
        return OracleOutcome(
            Divergence("dbt-error", f"{type(exc).__name__}: {exc}"),
            None,
            ref_steps=reference.steps,
        )

    return OracleOutcome(divergence, result.metrics, ref_steps=reference.steps)


def diff_snapshots(ref: Dict, dbt: Dict) -> Optional[Divergence]:
    """First register/memory difference between two architectural snapshots.

    Flags are deliberately not compared (dead guest flags stay
    unmaterialized in translated code).
    """
    for name in ORACLE_REGS:
        if ref["regs"][name] != dbt["regs"][name]:
            return Divergence(
                "register",
                f"{name}: reference {ref['regs'][name]:#x}"
                f" != DBT {dbt['regs'][name]:#x}",
            )
    ref_mem = {addr: value for addr, value in ref["memory"].items() if value}
    dbt_mem = {addr: value for addr, value in dbt["memory"].items() if value}
    if ref_mem != dbt_mem:
        diffs = []
        for addr in sorted(set(ref_mem) | set(dbt_mem)):
            a, b = ref_mem.get(addr, 0), dbt_mem.get(addr, 0)
            if a != b:
                diffs.append(f"[{addr * 4:#x}]: reference {a:#x} != DBT {b:#x}")
        return Divergence("memory", "; ".join(diffs[:4]))
    return None


# -- fault injection -----------------------------------------------------------


def _slot_owner(rules: RuleSet, rule: TranslationRule) -> bool:
    """Is *rule* the rule lookup actually resolves to for its own guest?"""
    return rules.lookup(rule.guest) is rule


def _swap_operands_fault(
    rules: RuleSet,
) -> Optional[Tuple[TranslationRule, TranslationRule]]:
    """(victim, victim with its two source-register mappings swapped)."""
    from repro.isa.operands import Reg

    for rule in rules:
        if rule.origin not in _DERIVED_ORIGINS or rule.guest_length != 1:
            continue
        guest = rule.guest[0]
        if guest.mnemonic not in _NONCOMMUTATIVE:
            continue
        ops = guest.operands
        if len(ops) != 3 or not all(isinstance(op, Reg) for op in ops):
            continue
        if len({op.name for op in ops}) != 3:
            continue  # aliased shapes: a swap may cancel out
        if not _slot_owner(rules, rule):
            continue  # shadowed by a learned rule: the fault would be inert
        src1, src2 = ops[1].name, ops[2].name
        mapping = dict(rule.reg_mapping)
        mapping[src1], mapping[src2] = mapping[src2], mapping[src1]
        return rule, replace(rule, reg_mapping=tuple(sorted(mapping.items())))
    return None


def _flag_lie_fault(
    rules: RuleSet,
) -> Optional[Tuple[TranslationRule, TranslationRule]]:
    """(victim, victim whose mismatched flags lie and claim equivalence)."""
    for rule in rules:
        if rule.origin not in _DERIVED_ORIGINS or rule.guest_length != 1:
            continue
        flags = dict(rule.flag_status)
        if FLAG_MISMATCH not in flags.values():
            continue
        if not _slot_owner(rules, rule):
            continue
        lied = tuple(
            sorted(
                (f, FLAG_EQUIV if status == FLAG_MISMATCH else status)
                for f, status in flags.items()
            )
        )
        return rule, replace(rule, flag_status=lied)
    return None


def config_with_fault(config: TranslationConfig, fault: str) -> TranslationConfig:
    """A copy of *config* with one deliberately wrong rule substituted.

    ``"swap-operands"`` swaps the source-register mapping of a derived
    non-commutative ALU rule (the translated code computes ``b OP a``
    instead of ``a OP b``); ``"flag-lie"`` rewrites a derived rule's
    mismatched flag verdicts to claim host-flag equivalence, so condition
    delegation trusts flags the host never computes correctly.  Used by the
    campaign's self-check: the fuzzer must find and shrink the fault.
    """
    if config.rules is None:
        raise ValueError("fault injection requires a rule-based configuration")
    if fault == "swap-operands":
        found = _swap_operands_fault(config.rules)
    elif fault == "flag-lie":
        found = _flag_lie_fault(config.rules)
    else:
        raise ValueError(f"unknown fault {fault!r} (choose from {FAULTS})")
    if found is None:
        raise ValueError(f"no candidate rule for fault {fault!r} in {config.name!r}")
    victim, faulty = found
    sabotaged = RuleSet()
    for rule in config.rules:
        sabotaged.add(faulty if rule is victim else rule)
    if sabotaged.lookup(faulty.guest) is not faulty:
        raise RuntimeError("injected fault failed to take the rule-index slot")
    return replace(config, name=f"{config.name}+{fault}", rules=sabotaged)
