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

from repro.cache import BoundedMemo
from repro.dbt import tcg
from repro.dbt.block import Block, BlockMap
from repro.dbt.runtime import (
    ENTRY_LOADS,
    EXIT_STORES,
    FLAG_FILLS,
    FLAG_SPILLS,
    JMP_DISPATCH,
    PC_STORES,
    TESTS,
    SharedInstruction,
    exit_pc_store,
    guest_reg,
    pc_load,
    scratch_reg,
)
from repro.isa.arm.opcodes import ARM
from repro.isa.instruction import Instruction
from repro.isa.operands import Label, Mem, Reg, RegList
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


class _WindowMatch:
    """A window's rule and, once a block applies it, its host body.

    ``rule.instantiate`` depends only on the rule and the window (the
    operand maps it is given are this module's fixed functions), so the
    body is computed on first use and then shared by every block, engine
    and program that meets the same window under the same rule set.  So
    is ``pair``, the ``(rule, window length)`` entry of
    :attr:`TranslatedBlock.applied`.
    """

    __slots__ = ("rule", "pair", "body")

    def __init__(self, rule, length: int) -> None:
        self.rule = rule
        self.pair = (rule, length)
        self.body: Optional[Tuple[Instruction, ...]] = None


#: ``(RuleSet.memo_token, *lookup window)`` -> :class:`_WindowMatch`, or
#: ``None`` when no rule matches: one memo for every translator over a
#: frozen rule set.  One ``cold-start`` seed (48 programs) leaves ~7.6k
#: entries and the next seed adds ~5.5k, so the bound holds a seed's
#: working set with room for the next.
_WINDOWS = BoundedMemo(maxsize=1 << 14, name="dbt.translator.windows")


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


class TranslatedBlock:
    """One guest block's host code and its translate-time accounting.

    ``applied`` holds the ``(rule, guest-instruction count)`` pair of each
    applied rule window, in block order: the raw material for runtime
    rule-usage accounting.  ``covered_count`` and ``rule_agg`` are its
    aggregates, so the engine's per-execution accounting is O(1) per
    block instead of re-summing ``covered``/``applied``.  The pairs are the
    window matches' own, and ``rule_agg`` reuses them (and ``applied``
    itself when no rule repeats), so a block adds a pair of its own only
    for a rule it applies more than once.
    """

    __slots__ = (
        "start",
        "guest_count",
        "host",
        "categories",
        "labels",
        "covered",
        "applied",
        "covered_count",
        "rule_agg",
    )

    def __init__(
        self,
        start: int,
        guest_count: int,
        host: Tuple[Instruction, ...],
        categories: Tuple[str, ...],
        labels: Dict[str, int],
        covered: Tuple[bool, ...],
        applied: Tuple[Tuple[object, int], ...] = (),
    ) -> None:
        self.start = start
        self.guest_count = guest_count
        self.host = host
        self.categories = categories
        self.labels = labels
        self.covered = covered
        self.applied = applied
        self.covered_count = sum(covered)
        agg: Dict[object, Tuple[object, int]] = {}
        for pair in applied:
            rule = pair[0]
            seen = agg.get(rule)
            agg[rule] = pair if seen is None else (rule, seen[1] + pair[1])
        self.rule_agg = (
            applied if len(agg) == len(applied) else tuple(agg.values())
        )


@dataclass
class _Segment:
    pos: int
    length: int
    match: Optional[_WindowMatch] = None
    window: Optional[Tuple[Instruction, ...]] = None  # lookup window (pc-rewritten)
    pc_value: Optional[int] = None
    #: flag handling annotations filled by cluster resolution.
    reader_ldf: Set[str] = field(default_factory=set)
    post_testl: bool = False
    post_stf: Set[str] = field(default_factory=set)

    @property
    def end(self) -> int:
        return self.pos + self.length

    @property
    def rule(self):  # TranslationRule or None
        return self.match.rule if self.match is not None else None


class BlockTranslator:
    def __init__(self, unit, blockmap: BlockMap, config: TranslationConfig) -> None:
        self.unit = unit
        self.blockmap = blockmap
        self.config = config
        self.live_in_global = blockmap.live_in_flags()
        rules = config.rules
        self._lookup_canonical = rules.lookup_canonical if rules is not None else None
        #: window-length cap, computed once per translator (``max()`` over
        #: every rule is a measurable share of translate time per block).
        self._max_window = min(rules.max_guest_length(), 4) if rules is not None else 0
        self._sequences = rules.sequences if rules is not None else frozenset()
        # Window memo: shared for a frozen set, private while the set can
        # still gain rules.  Plain closures (no reference to ``self``), so a
        # dropped translator is freed by reference counting.  A shared key
        # is the token followed by the window's instructions: one flat
        # tuple per entry, and no window tuple kept alive beside it.
        token = rules.memo_token if rules is not None else None
        if token is not None:
            prefix = (token,)
            self._memo_get = lambda window: _WINDOWS.get(prefix + window, _UNRESOLVED)
            self._memo_put = lambda window, match: _WINDOWS.put(prefix + window, match)
        else:
            local: Dict[Tuple[Instruction, ...], Optional[_WindowMatch]] = {}
            self._memo_get = lambda window: local.get(window, _UNRESOLVED)
            self._memo_put = local.__setitem__

    # -- planning ---------------------------------------------------------------

    def _lookup_keys(self, general, specific, length: int) -> Optional[_WindowMatch]:
        rule = self._lookup_canonical(general, specific)
        return _WindowMatch(rule, length) if rule is not None else None

    def _lookup_match(self, lookup: Tuple[Instruction, ...]) -> Optional[_WindowMatch]:
        """Match for a (pc-rewritten) window: fingerprint once, memo forever.

        The canonical key pair is computed in a single pass
        (:func:`window_keys`) and the resolution — match or ``None`` — is
        memoized on the window.  Lookup is purely content-based, so a
        resolution is valid for every block translated over the same rule
        set; PC windows are safe too because the memo key is the
        *rewritten* window (placeholder register, no concrete address).
        """
        match = self._memo_get(lookup)
        if match is _UNRESOLVED:
            try:
                general, specific = window_keys(lookup)
            except RuleError:
                match = None
            else:
                match = self._lookup_keys(general, specific, len(lookup))
            self._memo_put(lookup, match)
        return match

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
        A multi-instruction window whose mnemonics no rule spells
        (:attr:`RuleSet.sequences`) is skipped before the memo: it cannot
        match, and would otherwise be most of the memo's entries.
        PC-using windows keep the rewrite-then-memo route — their lookup
        window differs from the raw slice.
        """
        memo_get = self._memo_get
        prefixes = None
        for length in range(limit, 0, -1):
            if any(defs[i + k].is_branch for k in range(length - 1)):
                continue
            last = defs[i + length - 1]
            if last.is_branch and last.cond is None:
                continue  # unconditional transfers go through exits
            window = tuple(insns[i : i + length])
            if length > 1 and tuple([insn.mnemonic for insn in window]) not in self._sequences:
                continue  # no rule spells these mnemonics
            if any(pc_flags[i + k] for k in range(length)):
                lookup, pc_value = self._pc_rewrite(window, block.start + i)
                if lookup is None:
                    continue
                match = self._lookup_match(lookup)
                if match is not None:
                    return _Segment(i, length, match, lookup, pc_value)
                continue
            match = memo_get(window)
            if match is _UNRESOLVED:
                if prefixes is None:
                    prefixes = window_key_prefixes(window)
                if length <= len(prefixes):
                    match = self._lookup_keys(*prefixes[length - 1], length)
                else:
                    match = None
                self._memo_put(window, match)
            if match is not None:
                return _Segment(i, length, match, window, None)
        return None

    def _plan(
        self, insns: Sequence[Instruction], defs, block: Block
    ) -> List[_Segment]:
        n = len(insns)
        if self.config.rules is None:
            return [_Segment(i, 1) for i in range(n)]
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

    def _resolve_eager(self, defs, segments: List[_Segment]) -> None:
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

    def _resolve_clusters(self, defs, segments: List[_Segment]) -> None:
        n = len(defs)
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

    def _resolve_entry_reads(self, defs, segments: List[_Segment]) -> None:
        """Rule windows reading flags no in-block instruction set must reload
        them from the environment (cross-block flag use; safety net)."""
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
        segments = self._plan(insns, defs, block)
        if self.config.condition:
            self._resolve_clusters(defs, segments)
        else:
            self._resolve_eager(defs, segments)
        self._resolve_entry_reads(defs, segments)

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
                emit(pc_load(segment.pc_value), CAT_RULE)

            match = segment.match
            body = match.body
            if body is None:
                # A RuleError propagates and leaves the body unset.  Body
                # instructions are shared, so each is bound only once.
                body = match.body = tuple(
                    SharedInstruction(insn.mnemonic, insn.operands)
                    for insn in match.rule.instantiate(
                        segment.window,
                        host_reg=_host_reg,
                        scratch=_rule_scratch,
                        label_map=_exit_taken,
                    )
                )
            # Flag glue goes before a window-terminating branch (both paths
            # must observe the spilled flags) but after everything else.
            tail: Tuple[Instruction, ...] = ()
            if body and X86.defn(body[-1]).is_branch:
                body, tail = body[:-1], body[-1:]
            for item in body:
                emit(item, CAT_RULE)
            applied.append(match.pair)
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
                emit(TESTS[_rule_dest_reg(segment)], CAT_RULE)
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
                emit(exit_pc_store(target_index), CAT_CONTROL)
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
