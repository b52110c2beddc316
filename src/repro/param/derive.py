"""Rule derivation: opcode + addressing-mode parameterization (§IV-B/IV-C).

Given the learned rule set, the engine:

1. collects the *parameterizable* learned rules — single-guest-instruction
   rules (the paper parameterizes exactly these, §V-D) whose opcode sits in
   one of the classified subgroups;
2. enumerates derivation targets: every (opcode, operand-kind shape,
   register-dependency pattern) the guest ISA accepts within those
   subgroups;
3. for each target, builds host-code candidates — direct substitution plus
   the fixup transforms for complex siblings (``rsb``/``bic``/``mvn``/
   ``cmn``, §IV-C1) and the dependency-preserving copy/scratch auxiliaries
   of fig. 8 — and verifies each candidate symbolically;
4. keeps the best verified candidate (fewest mismatched flags, then fewest
   host instructions) as a derived :class:`TranslationRule`, tagged with its
   stage (``opcode-param`` for shapes already present among learned rules,
   ``addrmode-param`` for new shapes).

Flag-mismatched derived rules are kept and tagged: whether they may be
applied is the condition-flags-delegation decision the translator makes at
rule-application time (§IV-D).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cache import MISS, STATS, BoundedMemo
from repro.isa.arm import assembler as arm_asm
from repro.isa.arm.opcodes import ARM
from repro.isa.instruction import Instruction, Subgroup
from repro.isa.operands import Imm, Mem, Operand, OperandKind as K, Reg
from repro.isa.x86.opcodes import X86
from repro.learning.learn import try_generalize_imms
from repro.learning.rule import TranslationRule
from repro.learning.ruleset import RuleSet
from repro.learning.store import rule_from_dict, rule_to_dict
from repro.parallel import parallel_map, resolve_jobs
from repro.param.classify import (
    HOST_PARAM_MNEMONICS,
    OPCODE_MAP,
    parameterizable_opcodes,
)
from repro.param.shapes import (
    TargetShape,
    build_guest_instruction,
    enumerate_shapes,
    shape_of_instruction,
)
from repro.verify.checker import check_equivalence

#: Host registers used for canonical derived-rule templates.
_HOST_OF = {"r0": "eax", "r1": "ecx", "r2": "edx", "r3": "ebx"}
_TEMPS = ("esi", "edi")

_PARAM_SUBGROUPS = (Subgroup.ALU, Subgroup.LOAD, Subgroup.STORE, Subgroup.COMPARE)


def _host_op(op: Operand) -> Operand:
    """Mirror a guest operand onto host registers."""
    if isinstance(op, Reg):
        return Reg(_HOST_OF[op.name])
    if isinstance(op, Imm):
        return op
    if isinstance(op, Mem):
        base = Reg(_HOST_OF[op.base.name]) if op.base is not None else None
        index = Reg(_HOST_OF[op.index.name]) if op.index is not None else None
        return Mem(base=base, index=index, disp=op.disp, scale=op.scale)
    raise ValueError(f"cannot mirror operand {op!r}")


def _valid_host(instructions: Sequence[Instruction]) -> bool:
    try:
        for insn in instructions:
            X86.validate(insn)
    except Exception:
        return False
    return True


def host_candidates(guest: Instruction) -> List[Tuple[Tuple[Instruction, ...], Tuple[str, ...]]]:
    """Host-code candidates for one guest instruction.

    Returns ``(host_sequence, constraint_tags)`` pairs, best-first by
    construction order (verification makes the final call).
    """
    spec = OPCODE_MAP.get(guest.mnemonic)
    if spec is None:
        return []
    subgroup = ARM.lookup(guest.mnemonic).subgroup
    hostop = spec.mnemonic
    out: List[Tuple[Tuple[Instruction, ...], Tuple[str, ...]]] = []

    def add(insns: Sequence[Instruction], *tags: str) -> None:
        if _valid_host(insns):
            out.append((tuple(insns), tags))

    if subgroup is Subgroup.ALU:
        dest, src1, src2 = guest.operands
        tags: Tuple[str, ...] = ()
        if spec.transform == "swap":
            src1, src2 = src2, src1
            tags = ("swap-sources",)
        pre: List[Instruction] = []
        src2_eff = _host_op(src2)
        if spec.transform == "invert_src":
            if not isinstance(src2, Reg):
                return []  # bic-with-immediate is folded away upstream
            pre = [
                Instruction("movl", (_host_op(src2), Reg(_TEMPS[0]))),
                Instruction("notl", (Reg(_TEMPS[0]),)),
            ]
            src2_eff = Reg(_TEMPS[0])
            tags = ("aux:invert-src",)
        dest_h = _host_op(dest)
        src1_h = _host_op(src1)
        # Destructive form (valid when dest aliases src1).
        if src1 == dest:
            add([*pre, Instruction(hostop, (src2_eff, dest_h))], *tags)
        # Commutative destructive form (dest aliases src2).
        if src2 == dest and isinstance(src2, Reg) and not pre:
            add([Instruction(hostop, (src1_h, dest_h))], *tags)
        # mov-prefixed three-operand emulation (fig. 6 / fig. 8 copy aux).
        add(
            [*pre, Instruction("movl", (src1_h, dest_h)), Instruction(hostop, (src2_eff, dest_h))],
            *tags,
            "aux:copy",
        )
        # Fully general scratch lowering (dependency-safe).
        scratch = Reg(_TEMPS[1])
        add(
            [
                *pre,
                Instruction("movl", (src1_h, scratch)),
                Instruction(hostop, (src2_eff, scratch)),
                Instruction("movl", (scratch, dest_h)),
            ],
            *tags,
            "aux:scratch",
        )
        return out

    if subgroup is Subgroup.LOAD:
        dest, src = guest.operands
        body = [Instruction(hostop, (_host_op(src), _host_op(dest)))]
        if spec.transform == "not_dest":
            body.append(Instruction("notl", (_host_op(dest),)))
            add(body, "aux:not-dest")
        else:
            add(body)
        return out

    if subgroup is Subgroup.STORE:
        src, mem = guest.operands
        add([Instruction(hostop, (_host_op(src), _host_op(mem)))])
        return out

    if subgroup is Subgroup.COMPARE:
        lhs, rhs = guest.operands
        if spec.transform == "via_scratch":
            add(
                [
                    Instruction("movl", (_host_op(lhs), Reg(_TEMPS[0]))),
                    Instruction(hostop, (_host_op(rhs), Reg(_TEMPS[0]))),
                ],
                "aux:flags-scratch",
            )
        else:
            add([Instruction(hostop, (_host_op(rhs), _host_op(lhs)))])
        return out

    return []


@dataclass
class ParamCounts:
    """Table-III accounting."""

    learned_rules: int = 0
    parameterizable_learned: int = 0
    opcode_param_rules: int = 0
    addrmode_param_rules: int = 0
    instantiated_rules: int = 0
    derived_unique: int = 0


@dataclass
class ParamResult:
    """Output of the derivation engine."""

    derived: RuleSet
    counts: ParamCounts
    #: stage of every derived rule's target: "opcode" or "addrmode".
    target_stage: Dict[Tuple, str] = field(default_factory=dict)


def _parameterizable_single_rules(learned: RuleSet) -> List[TranslationRule]:
    rules = []
    for rule in learned.single_instruction_rules():
        mnemonic = rule.guest[0].mnemonic
        if mnemonic not in OPCODE_MAP:
            continue
        # Both sides must be parameterizable: the host part must contain a
        # substitutable (parameterized) instruction.
        if not any(h.mnemonic in HOST_PARAM_MNEMONICS for h in rule.host):
            continue
        rules.append(rule)
    return rules


def _pararule_identity(rule: TranslationRule, merge_addrmode: bool) -> Tuple:
    guest = rule.guest[0]
    subgroup = ARM.lookup(guest.mnemonic).subgroup
    shape = shape_of_instruction(guest)
    host_class = tuple(
        "<op>" if insn.mnemonic in HOST_PARAM_MNEMONICS else insn.mnemonic
        for insn in rule.host
    )
    if merge_addrmode:
        return (subgroup, len(shape.operands), shape.pattern[:1], host_class)
    return (subgroup, shape, host_class)


def derive_rules(
    learned: RuleSet,
    include_addrmode: bool = True,
    jobs: Optional[int] = None,
) -> ParamResult:
    """Run opcode (+ optionally addressing-mode) parameterization.

    Each target's verification result is memoized per process, so a later
    call whose targets were already verified, over any learned set,
    performs zero symbolic derivations.  Target verification the memo
    misses fans out across *jobs* worker processes (``None`` = the
    process-wide ``--jobs`` setting; 1 = serial), with byte-identical
    results either way.
    """
    counts = ParamCounts(learned_rules=len(learned))
    pararules = _parameterizable_single_rules(learned)
    counts.parameterizable_learned = len(pararules)
    counts.opcode_param_rules = len(
        {_pararule_identity(r, merge_addrmode=False) for r in pararules}
    )
    counts.addrmode_param_rules = len(
        {_pararule_identity(r, merge_addrmode=True) for r in pararules}
    )

    # Shapes present among learned rules, per subgroup: the opcode stage only
    # generalizes the opcode, keeping these shapes; new shapes belong to the
    # addressing-mode stage.
    learned_shapes: Dict[Subgroup, Set[TargetShape]] = {}
    authorized: Set[Subgroup] = set()
    for rule in pararules:
        guest = rule.guest[0]
        subgroup = ARM.lookup(guest.mnemonic).subgroup
        authorized.add(subgroup)
        learned_shapes.setdefault(subgroup, set()).add(shape_of_instruction(guest))

    derived = RuleSet()
    result = ParamResult(derived=derived, counts=counts)
    pararules_per_subgroup: Dict[Subgroup, int] = {}
    for rule in pararules:
        subgroup = ARM.lookup(rule.guest[0].mnemonic).subgroup
        pararules_per_subgroup[subgroup] = pararules_per_subgroup.get(subgroup, 0) + 1

    # Enumerate every target up front (deterministic order), then resolve
    # them — possibly fanning the misses out to worker processes.
    targets: List[Tuple[Subgroup, str, TargetShape, str, Instruction]] = []
    for subgroup in _PARAM_SUBGROUPS:
        if subgroup not in authorized:
            continue
        for mnemonic in parameterizable_opcodes(subgroup):
            for shape in enumerate_shapes(mnemonic):
                stage = (
                    "opcode"
                    if shape in learned_shapes.get(subgroup, ())
                    else "addrmode"
                )
                if stage == "addrmode" and not include_addrmode:
                    continue
                guest = build_guest_instruction(mnemonic, shape)
                targets.append((subgroup, mnemonic, shape, stage, guest))
    _prefetch_targets([t[4] for t in targets], jobs)

    verified_targets: Dict[Subgroup, int] = {}
    for subgroup, mnemonic, shape, stage, guest in targets:
        rule = _derive_target(guest)
        if rule is None:
            continue
        verified_targets[subgroup] = verified_targets.get(subgroup, 0) + 1
        result.target_stage[(mnemonic, shape)] = stage
        if learned.lookup([guest]) is not None:
            continue  # already covered by a learned rule
        derived.add(
            rule.with_origin(
                "opcode-param" if stage == "opcode" else "addrmode-param"
            )
        )
    counts.instantiated_rules = sum(
        pararules_per_subgroup.get(subgroup, 0) * verified
        for subgroup, verified in verified_targets.items()
    )

    counts.derived_unique = len(derived)
    return result


def _param_result_to_dict(result: ParamResult) -> dict:
    """JSON form of a ParamResult (targets stored as guest assembly); the
    derived-rules snapshot test digests exactly this."""
    return {
        "counts": asdict(result.counts),
        "derived": [rule_to_dict(rule) for rule in result.derived.rules],
        "stages": [
            [str(build_guest_instruction(mnemonic, shape)), stage]
            for (mnemonic, shape), stage in result.target_stage.items()
        ],
    }


#: Derivation is independent of the learned set (it only authorizes and
#: stages); memoize per target so leave-one-out sweeps pay once.  The memo
#: is bounded and registered with :func:`repro.cache.clear_all_caches`,
#: replacing the old unbounded module-global dict.
_TARGET_MEMO = BoundedMemo(maxsize=8192)


def _derive_target(guest: Instruction) -> Optional[TranslationRule]:
    """Verify host candidates for one target; return the best rule
    (memoized per process)."""
    key = str(guest)
    rule = _TARGET_MEMO.get(key)
    if rule is MISS:
        rule = _derive_target_uncached(guest)
        _TARGET_MEMO.put(key, rule)
    return rule


def _rule_or_none(data: Optional[dict]) -> Optional[TranslationRule]:
    return rule_from_dict(data) if data is not None else None


def _derive_target_text(guest_text: str) -> Optional[dict]:
    """Worker entry point: derive one target from its assembly text."""
    rule = _derive_target(arm_asm.parse_line(guest_text))
    return rule_to_dict(rule) if rule is not None else None


def _prefetch_targets(
    guests: Sequence[Instruction], jobs: Optional[int] = None
) -> None:
    """Resolve memo misses in parallel, populating the memo in order."""
    pending = [guest for guest in guests if str(guest) not in _TARGET_MEMO]
    if resolve_jobs(jobs) <= 1 or len(pending) <= 1:
        return
    derived = parallel_map(_derive_target_text, [str(g) for g in pending], jobs)
    for guest, data in zip(pending, derived):
        _TARGET_MEMO.put(str(guest), _rule_or_none(data))


def _derive_target_uncached(guest: Instruction) -> Optional[TranslationRule]:
    STATS.incr(derivations=1)
    best: Optional[TranslationRule] = None
    best_rank: Tuple[int, int] = (99, 99)
    for host, tags in host_candidates(guest):
        check = check_equivalence(ARM, X86, (guest,), host, allow_temps=2)
        if not check.dataflow_ok:
            continue
        rank = (len(check.mismatched_flags), len(host))
        if rank >= best_rank:
            continue
        generalized = try_generalize_imms((guest,), host)
        best = TranslationRule(
            guest=(guest,),
            host=host,
            reg_mapping=tuple(sorted(check.reg_mapping.items())),
            host_temps=check.host_temps,
            flag_status=tuple(sorted(check.flag_status.items())),
            imm_generalized=generalized,
            origin="derived",
            constraints=tags,
        )
        best_rank = rank
        if rank == (0, 1):
            break
    return best
