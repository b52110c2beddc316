"""Block translation: rules where possible, TCG fallback elsewhere.

One :class:`BlockTranslator` embodies one system configuration:

* ``qemu``      — no rules: everything through the TCG path;
* ``w/o para``  — learned rules only (the enhanced learning baseline [16]);
* ``+opcode`` / ``+addrmode`` — learned + derived rules, but derived rules
  apply only to instructions that set no flags (parameterized rules carry no
  verified flag behaviour until the condition stage, §IV-B);
* ``+condition`` — full system: condition-flag delegation, flag
  recomputation auxiliaries, and memory-backed flag emulation (§IV-D).

Flag machinery.  Within a block, flag *clusters* (a flag-setting instruction
plus the readers of those flags before the next setter) are resolved
jointly:

* if the setter's rule produces the needed flags equivalently, no reader
  rule is missing, and no intervening host code clobbers them, the host
  flags carry the guest flags (delegation via host flags);
* otherwise, with the condition stage enabled, the translator recomputes
  recomputable flags (``testl dst`` for N/Z), spills to the flag slots of
  the CPU environment (``st<f>f``), and lets readers reload (``ld<f>f``) —
  the paper's memory-location fallback;
* without the condition stage the whole cluster falls back to the TCG path,
  which keeps flags in the environment unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dbt import tcg
from repro.dbt.block import Block, BlockMap
from repro.dbt.runtime import (
    ENTRY_LOADS,
    EXIT_STORES,
    FLAG_FILLS,
    FLAG_SPILLS,
    JMP_DISPATCH,
    PC_STORES,
    env_pc_mem,
    guest_reg,
    scratch_reg,
)
from repro.isa.arm.opcodes import ARM
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg, RegList
from repro.errors import RuleError
from repro.isa.x86.opcodes import X86
from repro.learning.rule import window_key_prefixes, window_keys
from repro.learning.ruleset import RuleSet

CAT_RULE = "rule"
CAT_TCG = "tcg"
CAT_DATA = "data"
CAT_CONTROL = "control"

_EXIT_TAKEN = "__exit_taken"
_PC_PLACEHOLDER = "r_pc"

#: Memo sentinel: ``None`` is a valid (negative) lookup resolution.
_UNRESOLVED = object()


@dataclass
class TranslationConfig:
    """Capabilities of one DBT configuration."""

    name: str
    rules: Optional[RuleSet] = None
    #: condition-flag delegation + memory emulation (the "condition" stage).
    condition: bool = False
    #: materialize PC reads so parameterized rules apply (fig. 9 constraint).
    pc_constraint: bool = False
    #: hand-written rules for the paper's seven unlearnable instructions
    #: (§V-B2: "they can be added manually into the translation rules with
    #: very minimal engineering effort ... 100% coverage can be achieved").
    #: The manual translations are the hand-written lowerings the TCG path
    #: uses, applied as rules (covered, rule-categorized).
    manual_other: bool = False


@dataclass
class TranslatedBlock:
    start: int
    guest_count: int
    host: Tuple[Instruction, ...]
    categories: Tuple[str, ...]
    labels: Dict[str, int]
    covered: Tuple[bool, ...]
    #: (rule, guest-instruction count) per applied rule window, in block
    #: order — the raw material for runtime rule-usage accounting.
    applied: Tuple[Tuple[object, int], ...] = ()
    #: translate-time aggregates so the engine's per-execution accounting is
    #: O(1) per block instead of re-summing ``covered``/``applied``.
    covered_count: int = field(init=False, default=0)
    rule_agg: Tuple[Tuple[object, int], ...] = field(init=False, default=())

    def __post_init__(self) -> None:
        self.covered_count = sum(self.covered)
        agg: Dict[object, int] = {}
        for rule, length in self.applied:
            agg[rule] = agg.get(rule, 0) + length
        self.rule_agg = tuple(agg.items())


@dataclass
class _Segment:
    pos: int
    length: int
    rule: Optional[object] = None  # TranslationRule
    window: Optional[Tuple[Instruction, ...]] = None  # lookup window (pc-rewritten)
    pc_value: Optional[int] = None
    #: flag handling annotations filled by cluster resolution.
    reader_ldf: Set[str] = field(default_factory=set)
    post_testl: bool = False
    post_stf: Set[str] = field(default_factory=set)

    @property
    def end(self) -> int:
        return self.pos + self.length


class BlockTranslator:
    def __init__(self, unit, blockmap: BlockMap, config: TranslationConfig) -> None:
        self.unit = unit
        self.blockmap = blockmap
        self.config = config
        self.live_in_global = blockmap.live_in_flags()
        self._window_rules: Dict[Tuple[Instruction, ...], object] = {}
        rules = config.rules
        self._lookup_canonical = rules.lookup_canonical if rules is not None else None
        #: window-length cap, computed once per translator (``max()`` over
        #: every rule is a measurable share of translate time per block).
        self._max_window = min(rules.max_guest_length(), 4) if rules is not None else 0

    # -- planning ---------------------------------------------------------------

    def _lookup_rule(self, lookup: Tuple[Instruction, ...]):
        """Rule for a (pc-rewritten) window: fingerprint once, memo forever.

        The canonical key pair is computed in a single pass
        (:func:`window_keys`) and the resolution — rule or ``None`` — is
        memoized on the window tuple.  Lookup is purely content-based, so a
        resolution is valid for every block of this translator's run; PC
        windows are safe too because the memo key is the *rewritten* window
        (placeholder register, no concrete address).
        """
        memo = self._window_rules
        rule = memo.get(lookup, _UNRESOLVED)
        if rule is _UNRESOLVED:
            try:
                general, specific = window_keys(lookup)
            except RuleError:
                rule = None
            else:
                rule = self._lookup_canonical(general, specific)
            memo[lookup] = rule
        return rule

    def _pc_rewrite(
        self, window: Tuple[Instruction, ...], abs_index: int
    ) -> Tuple[Optional[Tuple[Instruction, ...]], Optional[int]]:
        """Rewrite PC operands for rule lookup (fig. 9 constraint)."""
        uses_pc = any(
            isinstance(op, Reg) and op.name == "pc"
            for insn in window
            for op in insn.operands
        )
        if not uses_pc:
            return window, None
        if not self.config.pc_constraint or len(window) != 1:
            return None, None
        insn = window[0]
        operands = tuple(
            Reg(_PC_PLACEHOLDER) if isinstance(op, Reg) and op.name == "pc" else op
            for op in insn.operands
        )
        return (Instruction(insn.mnemonic, operands),), abs_index * 4 + 8

    def _match(
        self,
        insns: Sequence[Instruction],
        defs,
        pc_flags,
        block: Block,
        i: int,
        limit: int,
    ) -> Optional[_Segment]:
        """Longest-match rule probe at position ``i``.

        All candidate lengths share one :func:`window_key_prefixes` walk
        (computed lazily, only when the memo has no answer), so a position
        is fingerprinted once no matter how many window lengths get probed.
        PC-using windows keep the rewrite-then-memo route — their lookup
        window differs from the raw slice.
        """
        lookup_canonical = self._lookup_canonical
        memo = self._window_rules
        prefixes = None
        for length in range(limit, 0, -1):
            if any(defs[i + k].is_branch for k in range(length - 1)):
                continue
            last = defs[i + length - 1]
            if last.is_branch and last.cond is None:
                continue  # unconditional transfers go through exits
            window = tuple(insns[i : i + length])
            if any(pc_flags[i + k] for k in range(length)):
                lookup, pc_value = self._pc_rewrite(window, block.start + i)
                if lookup is None:
                    continue
                rule = self._lookup_rule(lookup)
                if rule is not None:
                    return _Segment(i, length, rule, lookup, pc_value)
                continue
            rule = memo.get(window, _UNRESOLVED)
            if rule is _UNRESOLVED:
                if prefixes is None:
                    prefixes = window_key_prefixes(window)
                if length <= len(prefixes):
                    general, specific = prefixes[length - 1]
                    rule = lookup_canonical(general, specific)
                else:
                    rule = None
                memo[window] = rule
            if rule is not None:
                return _Segment(i, length, rule, window, None)
        return None

    def _plan(self, insns: Sequence[Instruction], block: Block) -> List[_Segment]:
        n = len(insns)
        if self.config.rules is None:
            return [_Segment(i, 1) for i in range(n)]
        defs = [ARM.defn(i) for i in insns]
        pc_flags = [
            any(isinstance(op, Reg) and op.name == "pc" for op in insn.operands)
            for insn in insns
        ]
        segments: List[_Segment] = []
        i = 0
        while i < n:
            limit = min(self._max_window, n - i)
            segment = self._match(insns, defs, pc_flags, block, i, limit)
            segments.append(segment or _Segment(i, 1))
            i += segments[-1].length
        return segments

    # -- flag clusters -------------------------------------------------------------

    def _window_set_flags(self, segment: _Segment, defs) -> frozenset:
        flags = frozenset()
        for k in range(segment.pos, segment.end):
            flags |= defs[k].flags_set
        return flags

    def _entry_read_flags(self, segment: _Segment, defs) -> frozenset:
        """Flags a window reads before setting them (its flag inputs)."""
        reads = set()
        written = set()
        for k in range(segment.pos, segment.end):
            reads |= defs[k].flags_read - written
            written |= defs[k].flags_set
        return frozenset(reads)

    def _resolve_eager(
        self, insns: Sequence[Instruction], segments: List[_Segment]
    ) -> None:
        """Flag policy for configurations WITHOUT condition-flag delegation.

        Guest flags are kept architecturally current in the environment at
        every instruction boundary: rule windows that set flags spill them
        eagerly (``st<f>f``), flag readers reload (``ld<f>f``), and the TCG
        path maintains the same invariant natively.  Delegation (§IV-D) is
        precisely the analysis that makes these memory operations elidable,
        so the baseline stages pay for them — the paper's "a lot of memory
        overhead" (§IV-B).

        Rules whose host code cannot reproduce a set flag (mismatch) are
        unusable here, as are derived rules on flag-setting instructions
        (parameterized rules carry no flag behaviour before the condition
        stage).
        """
        defs = [ARM.defn(i) for i in insns]
        index = 0
        while index < len(segments):
            segment = segments[index]
            if segment.rule is None:
                index += 1
                continue
            set_flags = self._window_set_flags(segment, defs)
            status = segment.rule.flags
            usable = True
            if set_flags:
                if segment.rule.origin != "learned":
                    usable = False
                elif any(status.get(f) != "equiv" for f in set_flags):
                    usable = False
            if not usable:
                segments[index : index + 1] = [
                    _Segment(p, 1) for p in range(segment.pos, segment.end)
                ]
                index += segment.length
                continue
            segment.post_stf |= set_flags
            segment.reader_ldf |= self._entry_read_flags(segment, defs)
            index += 1

    def _resolve_clusters(
        self, insns: Sequence[Instruction], segments: List[_Segment]
    ) -> None:
        defs = [ARM.defn(i) for i in insns]
        n = len(insns)
        seg_of: Dict[int, _Segment] = {}
        for segment in segments:
            for k in range(segment.pos, segment.end):
                seg_of[k] = segment

        def demote(segment: _Segment) -> None:
            """Fall back to TCG, splitting multi-instruction windows."""
            index = segments.index(segment)
            replacement = [
                _Segment(p, 1) for p in range(segment.pos, segment.end)
            ]
            segments[index : index + 1] = replacement
            for seg in replacement:
                for k in range(seg.pos, seg.end):
                    seg_of[k] = seg

        for s in range(n):
            flags_set = defs[s].flags_set
            if not flags_set:
                continue
            # Readers of this setter: positions reading any produced flag
            # before the next instruction that sets it.
            readers: List[int] = []
            remaining = set(flags_set)
            for j in range(s + 1, n):
                if defs[j].flags_read & remaining:
                    readers.append(j)
                remaining -= defs[j].flags_set
                if not remaining:
                    break
            seg_s = seg_of[s]
            internal = [j for j in readers if seg_of[j] is seg_s]
            external = [j for j in readers if seg_of[j] is not seg_s]
            needed = frozenset().union(
                *(defs[j].flags_read & flags_set for j in external)
            ) if external else frozenset()

            if seg_s.rule is None:
                # TCG setter keeps flags in the environment.  Rule readers
                # need ld<f>f (condition stage) or must demote.
                for j in external:
                    seg_r = seg_of[j]
                    if seg_r.rule is None:
                        continue
                    if self.config.condition:
                        seg_r.reader_ldf |= defs[j].flags_read & flags_set
                    else:
                        demote(seg_r)
                continue

            status = seg_s.rule.flags
            derived_setter = seg_s.rule.origin != "learned"
            if derived_setter and not self.config.condition:
                # Parameterized rules carry no flag behaviour before the
                # condition stage (§IV-B): never applied to flag setters.
                demote(seg_s)
                for j in external:
                    seg_r = seg_of[j]
                    if seg_r.rule is not None and not self.config.condition:
                        demote(seg_r)
                continue

            if not external:
                # Flags are dead (or consumed inside the window).  A learned
                # rule with mismatched-but-dead flags is applicable ([16]'s
                # constrained equivalence); live-out handled by safety net.
                continue

            equiv_ok = all(status.get(f) == "equiv" for f in needed)
            readers_ok = all(seg_of[j].rule is not None for j in external)
            clobber_free = self._clobber_free(seg_s, external, seg_of, needed)

            if equiv_ok and readers_ok and clobber_free:
                continue  # host flags carry guest flags end to end

            if not self.config.condition:
                demote(seg_s)
                for j in external:
                    if seg_of[j].rule is not None:
                        demote(seg_of[j])
                continue

            # Condition stage: recompute / spill / reload.
            mismatched = {f for f in needed if status.get(f) != "equiv"}
            dest = _rule_dest_reg(seg_s)
            if mismatched - {"N", "Z"} or (mismatched and dest is None):
                # C/V cannot be recomputed from the result: fall back.
                demote(seg_s)
                for j in external:
                    if seg_of[j].rule is not None:
                        seg_of[j].reader_ldf |= defs[j].flags_read & flags_set
                continue
            if mismatched:
                seg_s.post_testl = True
            if not clobber_free or not readers_ok:
                seg_s.post_stf |= needed
                for j in external:
                    seg_r = seg_of[j]
                    if seg_r.rule is not None:
                        seg_r.reader_ldf |= defs[j].flags_read & flags_set

        # Live-out spills: a flag that survives to the block exit and is read
        # at the entry of some block must be architecturally current in the
        # environment.  The spill has to happen *at the setter* — later host
        # code clobbers the host flags, so an end-of-block spill would store
        # garbage — and mismatched flags need recomputation first.
        for s in range(n):
            flags_set = defs[s].flags_set
            if not flags_set:
                continue
            survive = set(flags_set)
            readers_after: List[int] = []
            for j in range(s + 1, n):
                if defs[j].flags_read & survive:
                    readers_after.append(j)
                survive -= defs[j].flags_set
                if not survive:
                    break
            liveout = survive & self.live_in_global
            seg_s = seg_of[s]
            if not liveout or seg_s.rule is None:
                continue  # dead at exit, or TCG keeps the environment current
            if liveout <= seg_s.post_stf:
                continue  # already spilled for an in-block reader
            status = seg_s.rule.flags
            mismatched = {f for f in liveout if status.get(f) != "equiv"}
            external = [j for j in readers_after if seg_of[j] is not seg_s]
            if not mismatched:
                seg_s.post_stf |= liveout
                continue
            dest = _rule_dest_reg(seg_s)

            def reroute_readers() -> None:
                for j in external:
                    seg_r = seg_of[j]
                    if seg_r.rule is not None:
                        seg_r.reader_ldf |= defs[j].flags_read & flags_set

            if mismatched - {"N", "Z"} or dest is None:
                # C/V cannot be recomputed from the result: fall back to
                # TCG, which keeps the environment current.
                demote(seg_s)
                reroute_readers()
                continue
            if external and not seg_s.post_testl:
                # In-block readers rely on host-flag delegation, and the new
                # testl clobbers host C/O.  Reroute them through the
                # environment instead: spill what they read (equiv C/V flags
                # are stored before the testl) and make rule readers reload.
                needed = set().union(
                    *(defs[j].flags_read & flags_set for j in external)
                )
                if any(status.get(f) != "equiv" for f in needed - {"N", "Z"}):
                    demote(seg_s)
                    reroute_readers()
                    continue
                seg_s.post_stf |= needed
                reroute_readers()
            seg_s.post_testl = True
            seg_s.post_stf |= liveout

    def _resolve_entry_reads(
        self, insns: Sequence[Instruction], segments: List[_Segment]
    ) -> None:
        """Rule windows reading flags no in-block instruction set must reload
        them from the environment (cross-block flag use; safety net)."""
        defs = [ARM.defn(i) for i in insns]
        set_so_far: Set[str] = set()
        for segment in segments:
            if segment.rule is not None:
                entry = self._entry_read_flags(segment, defs)
                missing = entry - set_so_far - segment.reader_ldf
                if missing and self.config.condition:
                    segment.reader_ldf |= missing
            for k in range(segment.pos, segment.end):
                set_so_far |= defs[k].flags_set

    def _clobber_free(
        self,
        seg_s: _Segment,
        readers: List[int],
        seg_of: Dict[int, _Segment],
        needed: frozenset,
    ) -> bool:
        """No intervening host code overwrites the needed host flags.

        A reader whose own host code rewrites the flags it consumed (e.g.
        ``sbc`` -> ``sbbl``, which reads *and* writes C) is only exempt when
        it is the *last* reader — anything it clobbers would reach the
        readers after it.
        """
        last = max(readers)
        seen: Set[int] = set()
        for k in range(seg_s.end, last + 1):
            segment = seg_of[k]
            if segment is seg_s or id(segment) in seen:
                continue
            seen.add(id(segment))
            if k in readers and segment.pos == k and segment.end > last:
                continue  # the final reader may clobber after consuming
            if segment.rule is None:
                return False  # TCG host code freely clobbers flags
            for host_insn in segment.rule.host:
                if X86.defn(host_insn).flags_set & needed:
                    return False
        return True

    # -- emission ------------------------------------------------------------------

    def translate(self, block: Block) -> TranslatedBlock:
        insns = self.blockmap.instructions(block)
        defs = [ARM.defn(i) for i in insns]
        n = len(insns)
        segments = self._plan(insns, block)
        if self.config.condition:
            self._resolve_clusters(insns, segments)
        else:
            self._resolve_eager(insns, segments)
        self._resolve_entry_reads(insns, segments)

        host: List[Instruction] = []
        cats: List[str] = []
        labels: Dict[str, int] = {}
        covered = [False] * n
        applied: List[Tuple[object, int]] = []

        def emit(insn: Instruction, category: str) -> None:
            host.append(insn)
            cats.append(category)

        reads, writes = _block_reg_usage(insns, defs)
        for name in sorted(reads):
            emit(ENTRY_LOADS[name], CAT_DATA)

        env_stale: Set[str] = set()
        for segment in segments:
            if segment.rule is None:
                insn = insns[segment.pos]
                defn = defs[segment.pos]
                manual = (
                    self.config.manual_other
                    and defn.subgroup.value == "other"
                    and defn.cond is None
                )
                lowered = tcg.lower(insn, block.start + segment.pos, _EXIT_TAKEN)
                for item in lowered:
                    emit(item, CAT_RULE if manual else CAT_TCG)
                if manual:
                    covered[segment.pos] = True
                env_stale -= defn.flags_set  # TCG stores its flags
                continue

            for flag in sorted(segment.reader_ldf):
                emit(FLAG_FILLS[flag], CAT_RULE)
            if segment.pc_value is not None:
                emit(
                    Instruction("movl", (Imm(segment.pc_value), scratch_reg(4))),
                    CAT_RULE,
                )

            body = list(
                segment.rule.instantiate(
                    segment.window,
                    host_reg=_host_reg,
                    scratch=_rule_scratch,
                    label_map=_exit_taken,
                )
            )
            # Flag glue goes before a window-terminating branch (both paths
            # must observe the spilled flags) but after everything else.
            tail: List[Instruction] = []
            if body and X86.defn(body[-1]).is_branch:
                tail = [body.pop()]
            for item in body:
                emit(item, CAT_RULE)
            applied.append((segment.rule, segment.length))
            for k in range(segment.pos, segment.end):
                covered[k] = True
                env_stale |= defs[k].flags_set

            # testl recomputes N/Z but clobbers host C/O: spill equivalent
            # C/V flags from the rule's own host flags *before* it.
            early = segment.post_stf - {"N", "Z"} if segment.post_testl else set()
            for flag in sorted(early):
                emit(FLAG_SPILLS[flag], CAT_RULE)
                env_stale.discard(flag)
            if segment.post_testl:
                dest = _rule_dest_reg(segment)
                emit(Instruction("testl", (guest_reg(dest), guest_reg(dest))), CAT_RULE)
            for flag in sorted(segment.post_stf - early):
                emit(FLAG_SPILLS[flag], CAT_RULE)
                env_stale.discard(flag)
            for item in tail:
                emit(item, CAT_RULE)

        # Cross-block flag use needs no end-of-block spill: every setter of a
        # block-entry-read flag either spilled it eagerly (post_stf above,
        # where the host flags are still the rule's own) or went through the
        # TCG path, which keeps the environment current natively.  A blind
        # spill here would store host flags already clobbered by later
        # windows' host code.

        # Exits.
        term = defs[-1] if n else None
        next_index = block.end

        def emit_exit(target_index: Optional[int], via_reg: Optional[str] = None) -> None:
            for name in sorted(writes):
                emit(EXIT_STORES[name], CAT_DATA)
            if via_reg is not None:
                emit(PC_STORES[via_reg], CAT_CONTROL)
            else:
                emit(Instruction("movl_s", (Imm(target_index * 4), env_pc_mem())), CAT_CONTROL)
            emit(JMP_DISPATCH, CAT_CONTROL)

        if term is not None and term.is_branch and term.cond is not None:
            target = _branch_target_index(self.unit, insns[-1])
            emit_exit(next_index)  # fallthrough
            labels[_EXIT_TAKEN] = len(host)
            emit_exit(target)  # taken
        elif term is not None and term.is_return:  # bx
            emit_exit(None, via_reg=insns[-1].operands[0].name)
        elif term is not None and term.is_branch:  # b / bl
            emit_exit(_branch_target_index(self.unit, insns[-1]))
        else:
            emit_exit(next_index)

        return TranslatedBlock(
            start=block.start,
            guest_count=n,
            host=tuple(host),
            categories=tuple(cats),
            labels=labels,
            covered=tuple(covered),
            applied=tuple(applied),
        )


def _host_reg(name: str) -> Reg:
    """Host operand holding guest register *name* inside a rule body."""
    if name == _PC_PLACEHOLDER:
        return scratch_reg(4)
    return guest_reg(name)


def _rule_scratch(index: int) -> Reg:
    return scratch_reg(5 + index)


def _exit_taken(_label: str) -> str:
    return _EXIT_TAKEN


def _rule_dest_reg(segment: _Segment) -> Optional[str]:
    """Destination register of the flag-setting instruction in a window."""
    for insn in reversed(segment.window or ()):
        defn = ARM.defn(insn)
        if defn.flags_set and defn.dest_index is not None:
            op = insn.operands[defn.dest_index]
            if isinstance(op, Reg):
                return op.name
        if defn.flags_set:
            return None
    return None


def _branch_target_index(unit, insn: Instruction) -> int:
    label = insn.operands[0]
    assert isinstance(label, Label)
    return unit.labels[label.name]


def _block_reg_usage(insns, defs) -> Tuple[Set[str], Set[str]]:
    """(registers to load at entry, registers to store at exit)."""
    written: Set[str] = set()
    loads: Set[str] = set()

    def note_read(name: str) -> None:
        if name != "pc" and name not in written:
            loads.add(name)

    for insn, defn in zip(insns, defs):
        mnemonic = insn.mnemonic
        sources = list(defn.source_indices)
        for idx, op in enumerate(insn.operands):
            if isinstance(op, Mem):
                if op.base is not None:
                    note_read(op.base.name)
                if op.index is not None:
                    note_read(op.index.name)
            elif isinstance(op, Reg) and idx in sources:
                note_read(op.name)
            elif isinstance(op, RegList):
                if mnemonic == "push":
                    for entry in op.regs:
                        note_read(entry.name)
                else:  # pop
                    for entry in op.regs:
                        written.add(entry.name)
        if mnemonic == "umlal":
            # umlal writes BOTH accumulator halves (operands 0 and 1).
            written.add(insn.operands[0].name)
            written.add(insn.operands[1].name)
        if mnemonic in ("push", "pop"):
            note_read("sp")
            written.add("sp")
        if defn.is_call:
            written.add("lr")
        if defn.is_return:
            note_read(insn.operands[0].name)
        if defn.dest_index is not None:
            op = insn.operands[defn.dest_index]
            if isinstance(op, Reg):
                written.add(op.name)
    written.discard("pc")
    return loads, written
