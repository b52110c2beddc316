"""Rule-candidate equivalence checking (the paper's verification step).

Given a guest instruction sequence and a host instruction sequence (a rule
candidate extracted from statement-aligned binaries), decide whether they are
semantically equivalent under a one-to-one, type-matched operand mapping —
the strictness rules of paper §II-B:

* guest registers map one-to-one onto host registers.  Extra host scratch
  registers are rejected in learning mode (``allow_temps=0``) — the
  parameterization framework re-enables them for its explicitly-declared
  auxiliary instructions (paper §IV-C1, fig. 7);
* immediates must agree pairwise by value;
* memory effects must match store-for-store;
* the program counter and the stack pointers cannot be mapped;
* condition flags are compared per flag with a four-way verdict:

  ========== =====================================================
  ``equiv``     guest sets the flag; host produces the same value
  ``mismatch``  guest sets the flag; host value differs
  ``preserved`` guest does not set it and host leaves it alone
  ``clobbered`` guest does not set it but host overwrites it
  ========== =====================================================

A rule is *equivalent* when dataflow matches and no guest-set flag is a
mismatch.  ``clobbered`` flags are legal (x86 ALU instructions always
clobber flags ARM preserves) but are recorded so translators can track
which host flags still mirror guest flags — the raw material for
condition-flag delegation (§IV-B, §IV-D).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cache import MISS, BoundedMemo
from repro.errors import VerificationError
from repro.isa.flags import FLAG_NAMES
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg, RegList
from repro.symir import Expr, Sym
from repro.verify import shapeclass
from repro.verify.equivalence import exprs_equal
from repro.verify.symstate import SymbolicState, run_symbolic

_MAX_MAPPING_ATTEMPTS = 64

FLAG_EQUIV = "equiv"
FLAG_MISMATCH = "mismatch"
FLAG_PRESERVED = "preserved"
FLAG_CLOBBERED = "clobbered"


@dataclass
class CheckResult:
    """Outcome of verifying one rule candidate."""

    equivalent: bool
    reg_mapping: Optional[Dict[str, str]] = None
    host_temps: Tuple[str, ...] = ()
    flag_status: Dict[str, str] = field(default_factory=dict)
    reason: str = ""

    @property
    def dataflow_ok(self) -> bool:
        """Registers/memory/branch matched under some mapping."""
        return self.reg_mapping is not None

    @property
    def mismatched_flags(self) -> Tuple[str, ...]:
        return tuple(
            f for f in FLAG_NAMES if self.flag_status.get(f) == FLAG_MISMATCH
        )

    @property
    def clobbered_flags(self) -> Tuple[str, ...]:
        return tuple(
            f for f in FLAG_NAMES if self.flag_status.get(f) == FLAG_CLOBBERED
        )

    @property
    def equiv_flags(self) -> Tuple[str, ...]:
        return tuple(f for f in FLAG_NAMES if self.flag_status.get(f) == FLAG_EQUIV)


def collect_regs(instructions: Sequence[Instruction]) -> List[str]:
    """Distinct register names in first-occurrence order (incl. mem bases)."""
    seen: Dict[str, None] = {}
    for insn in instructions:
        for operand in insn.operands:
            if isinstance(operand, Reg):
                seen.setdefault(operand.name)
            elif isinstance(operand, Mem):
                if operand.base is not None:
                    seen.setdefault(operand.base.name)
                if operand.index is not None:
                    seen.setdefault(operand.index.name)
            elif isinstance(operand, RegList):
                for entry in operand.regs:
                    seen.setdefault(entry.name)
    return list(seen)


def collect_imms(instructions: Sequence[Instruction]) -> List[int]:
    return [
        op.value
        for insn in instructions
        for op in insn.operands
        if isinstance(op, Imm)
    ]


def collect_labels(instructions: Sequence[Instruction]) -> List[str]:
    return [
        op.name
        for insn in instructions
        for op in insn.operands
        if isinstance(op, Label)
    ]


def _strip(instructions: Sequence[Instruction]) -> Tuple[Instruction, ...]:
    return tuple(i for i in instructions if i.mnemonic != ".label")


def _candidate_mappings(
    guest_regs: List[str], host_regs: List[str]
) -> Iterator[Dict[str, str]]:
    """Yield injective guest->host register mappings, most plausible first."""
    n = len(guest_regs)
    emitted = set()
    count = 0

    def emit(subset):
        nonlocal count
        if subset in emitted:
            return None
        emitted.add(subset)
        count += 1
        return dict(zip(guest_regs, subset))

    if len(host_regs) >= n:
        mapping = emit(tuple(host_regs[:n]))
        if mapping is not None:
            yield mapping
    for subset in itertools.permutations(host_regs, n):
        if count >= _MAX_MAPPING_ATTEMPTS:
            return
        mapping = emit(subset)
        if mapping is not None:
            yield mapping


def guest_set_flags(guest_isa, instructions: Sequence[Instruction]) -> frozenset:
    """Union of flags written by a guest sequence."""
    flags = set()
    for insn in instructions:
        if insn.mnemonic != ".label":
            flags |= guest_isa.defn(insn).flags_set
    return frozenset(flags)


def check_equivalence(
    guest_isa,
    host_isa,
    guest_insns: Sequence[Instruction],
    host_insns: Sequence[Instruction],
    allow_temps: int = 0,
) -> CheckResult:
    """Verify a rule candidate; see module docstring for the contract."""
    guest_insns = _strip(guest_insns)
    host_insns = _strip(host_insns)
    if not guest_insns or not host_insns:
        return CheckResult(False, reason="empty sequence")

    for insn in guest_insns:
        defn = guest_isa.defn(insn)
        if defn.is_branch and defn.cond is None:
            # An individual unconditional transfer has no dataflow to prove
            # equivalent; its target correspondence is layout-dependent
            # (paper §V-B2: "an individual b instruction cannot be learned").
            return CheckResult(False, reason="unconditional control transfer")

    guest_regs = collect_regs(guest_insns)
    host_regs = collect_regs(host_insns)
    if guest_isa.pc_register in guest_regs:
        return CheckResult(False, reason="guest uses the PC register")
    if guest_isa.sp_register in guest_regs or host_isa.sp_register in host_regs:
        return CheckResult(False, reason="stack-pointer (ABI) dependence")

    if sorted(collect_imms(guest_insns)) != sorted(collect_imms(host_insns)):
        return CheckResult(False, reason="immediate operands do not correspond")

    # The guest and host must branch to the same (statement-aligned) label:
    # ``bne L1`` vs ``jne L2`` is rejected.  No later comparison reads a
    # label, which is what lets shape classes rename them.
    guest_labels = collect_labels(guest_insns)
    if guest_labels != collect_labels(host_insns) or len(guest_labels) > 1:
        return CheckResult(False, reason="branch targets do not correspond")

    if len(host_regs) < len(guest_regs):
        return CheckResult(False, reason="fewer host registers than guest registers")
    if len(host_regs) - len(guest_regs) > allow_temps:
        return CheckResult(
            False,
            reason="host uses scratch registers beyond the one-to-one mapping",
        )

    # Shape-class layer: canonicalize register names, run the mapping
    # search once per canonical shape, rebase the verdict per member (with a
    # seeded direct-verification cross-check on served hits).
    return shapeclass.check_shape_class(
        guest_isa,
        host_isa,
        guest_insns,
        host_insns,
        guest_regs,
        host_regs,
        guest_set_flags(guest_isa, guest_insns),
        search=_search_mappings,
    )


_NO_MAPPING = CheckResult(
    False, reason="no operand mapping satisfies dataflow equivalence"
)

#: Completed guest runs keyed ``(isa.name, guest_insns)``.  A finished
#: :class:`SymbolicState` is immutable from the checker's point of view —
#: the search only reads it and copies its load oracle — so the state object
#: itself is the memo value (or a :class:`VerificationError` marker).
_GUEST_RUN_MEMO = BoundedMemo(maxsize=4096, name="verify.guest_run")

#: Completed mapped host runs, keyed by instructions, mapping, and the
#: guest-populated load-oracle snapshot the run starts from (all interned
#: expressions, so the key hashes in O(1) per node).
_HOST_RUN_MEMO = BoundedMemo(maxsize=4096, name="verify.host_run")

_RUN_FAILED = "verification-error"


def _run_guest(guest_isa, guest_insns, guest_regs):
    """Run (or recall) the hoisted guest execution; None means it failed."""
    key = (guest_isa.name, guest_insns)
    state = _GUEST_RUN_MEMO.get(key)
    if state is MISS:
        base_oracle: Dict = {}
        state = SymbolicState("g", load_oracle=base_oracle)
        for i, guest_reg in enumerate(guest_regs):
            state.bind_reg(guest_reg, Sym(f"v{i}", 32))
        for flag in FLAG_NAMES:
            state.bind_flag(flag, Sym(f"F{flag}", 1))
        try:
            run_symbolic(guest_isa, guest_insns, state)
        except VerificationError:
            state = _RUN_FAILED
        _GUEST_RUN_MEMO.put(key, state)
    return None if state is _RUN_FAILED else state


def _search_mappings(
    guest_isa,
    host_isa,
    guest_insns: Tuple[Instruction, ...],
    host_insns: Tuple[Instruction, ...],
    guest_regs: List[str],
    host_regs: List[str],
    wanted_flags: frozenset,
) -> CheckResult:
    """Search the candidate mappings for one that proves equivalence.

    The reference semantics is the plain per-mapping check: for each
    mapping from :func:`_candidate_mappings`, run guest and host from a
    fresh shared load oracle and compare the final states
    (:func:`_compare_states`).  This search returns the same result with
    less work:

    * The guest's symbolic run never depends on the candidate mapping —
      every mapping binds ``guest_regs[i]`` to ``Sym("v{i}")`` — so it is
      run **once** here; the shared load oracle it populates is snapshot-
      copied for each host attempt, which is exactly a fresh oracle per
      mapping.
    * The host's raised-or-not status, read-before-written set, and
      written-register set are invariant under the injective symbol
      renaming that binding a mapping performs (the store-buffer address
      resolution the run depends on compares canonical forms, and
      injective renaming preserves both their equality and inequality).
      So the first mapping's host run gives the register *signature* of
      every mapping: if it raised, every run raises; otherwise the
      signature decides, per candidate mapping, checks that would
      otherwise need a full host run: a temp register that is read before
      written, or a mapped-but-unwritten host register whose guest
      counterpart computes a different value.  Mappings failing those
      checks are skipped without a host run — but still consumed from the
      same capped candidate stream, so the set of mappings *considered* is
      unchanged.  (For the first mapping the same checks run after its
      host run; they are the cases where :func:`_compare_states` would
      return ``None``, decided by the same memoized comparisons.)
    * Surviving mappings get the full comparison against the hoisted guest
      state.

    ``tests/test_derived_rules_snapshot.py`` pins the learned and derived
    rules this search produces over the whole benchmark suite.
    """
    guest_state = _run_guest(guest_isa, guest_insns, guest_regs)
    if guest_state is None:
        return _NO_MAPPING
    if guest_state.lazy_reads:
        return _NO_MAPPING  # guest read a register outside the collected operands
    base_oracle = guest_state.load_oracle

    flag_inputs: Dict[str, Sym] = {f: Sym(f"F{f}", 1) for f in FLAG_NAMES}
    guest_index = {name: i for i, name in enumerate(guest_regs)}
    has_spare_hosts = len(host_regs) > len(guest_regs)
    # Per-guest-register verdict of "does the guest leave this register at
    # its bound input v{i}?", resolved lazily — shared across mappings.
    guest_unchanged: Dict[str, bool] = {}

    def pruned(mapping: Dict[str, str]) -> bool:
        """Whether the first host run's signature rules *mapping* out."""
        if has_spare_hosts and first.early_reads:
            mapped_hosts = set(mapping.values())
            if any(r in first.early_reads for r in host_regs if r not in mapped_hosts):
                return True
        for guest_reg, host_reg in mapping.items():
            if host_reg not in first.written_regs:
                # Host leaves this register at its bound input symbol.
                unchanged = guest_unchanged.get(guest_reg)
                if unchanged is None:
                    bound = Sym(f"v{guest_index[guest_reg]}", 32)
                    unchanged = exprs_equal(guest_state.regs[guest_reg], bound)
                    guest_unchanged[guest_reg] = unchanged
                if not unchanged:
                    return True
        return False

    first: Optional[SymbolicState] = None
    best: Optional[CheckResult] = None
    for mapping in _candidate_mappings(guest_regs, host_regs):
        if first is not None and pruned(mapping):
            continue
        host_state = _run_host(host_isa, host_insns, mapping, flag_inputs, base_oracle)
        if host_state is None:
            if first is None:
                return _NO_MAPPING  # the first run raised, so every run does
            continue
        if first is None:
            first = host_state
            if pruned(mapping):
                continue
        result = _compare_states(
            guest_state, host_state, host_insns, mapping, flag_inputs, wanted_flags
        )
        if result is None:
            continue
        if result.equivalent:
            return result
        if best is None or len(result.mismatched_flags) < len(best.mismatched_flags):
            best = result
    if best is not None:
        return best
    return _NO_MAPPING


def _run_host(
    host_isa,
    host_insns: Tuple[Instruction, ...],
    mapping: Dict[str, str],
    flag_inputs: Dict[str, Sym],
    base_oracle: Dict,
) -> Optional[SymbolicState]:
    """Run (or recall) the host under *mapping*; None means it raised."""
    key = (
        host_isa.name,
        host_insns,
        tuple(mapping.items()),
        tuple(base_oracle.items()),
    )
    host_state = _HOST_RUN_MEMO.get(key)
    if host_state is MISS:
        host_state = SymbolicState("h", load_oracle=dict(base_oracle))
        for i, (_, host_reg) in enumerate(mapping.items()):
            host_state.bind_reg(host_reg, Sym(f"v{i}", 32))
        for flag in FLAG_NAMES:
            host_state.bind_flag(flag, flag_inputs[flag])
        try:
            run_symbolic(host_isa, host_insns, host_state)
        except VerificationError:
            host_state = _RUN_FAILED
        _HOST_RUN_MEMO.put(key, host_state)
    return None if host_state is _RUN_FAILED else host_state


def _compare_states(
    guest_state: SymbolicState,
    host_state: SymbolicState,
    host_insns: Tuple[Instruction, ...],
    mapping: Dict[str, str],
    flag_inputs: Dict[str, Sym],
    wanted_flags: frozenset,
) -> Optional[CheckResult]:
    """Compare two completed symbolic runs under one mapping."""
    mapped_hosts = set(mapping.values())
    temps = tuple(r for r in collect_regs(host_insns) if r not in mapped_hosts)
    # True temporaries must be written before any read.
    if any(t in host_state.lazy_reads for t in temps):
        return None

    # Register outputs.
    for guest_reg, host_reg in mapping.items():
        if not exprs_equal(guest_state.regs[guest_reg], host_state.regs[host_reg]):
            return None

    # Memory outputs: store-for-store, in order.
    if len(guest_state.stores) != len(host_state.stores):
        return None
    for g_store, h_store in zip(guest_state.stores, host_state.stores):
        if g_store.size != h_store.size:
            return None
        if not exprs_equal(g_store.addr, h_store.addr):
            return None
        if not exprs_equal(g_store.value, h_store.value):
            return None

    # Branch outcome.
    if (guest_state.branch_taken is None) != (host_state.branch_taken is None):
        return None
    if guest_state.branch_taken is not None:
        if not exprs_equal(guest_state.branch_taken, host_state.branch_taken):
            return None

    flag_status: Dict[str, str] = {}
    for flag in FLAG_NAMES:
        guest_flag = guest_state.flags[flag]
        host_flag = host_state.flags[flag]
        if flag in wanted_flags:
            equal = exprs_equal(guest_flag, host_flag)
            flag_status[flag] = FLAG_EQUIV if equal else FLAG_MISMATCH
        elif host_flag == flag_inputs[flag]:
            flag_status[flag] = FLAG_PRESERVED
        else:
            flag_status[flag] = FLAG_CLOBBERED

    return CheckResult(
        equivalent=all(s != FLAG_MISMATCH for s in flag_status.values()),
        reg_mapping=dict(mapping),
        host_temps=temps,
        flag_status=flag_status,
    )
