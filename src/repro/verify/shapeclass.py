"""Shape-class batched verification (register- and label-renamed canonical
checking).

Rule-candidate verification is invariant under consistent register renaming:
the mapping search binds guest registers positionally (``guest_regs[i]`` →
``Sym("v{i}")``), so two candidates that differ only in which allocatable
registers they use — the same *shape class*, in the sense of the paper's
parameterization (register operands are parameters, §IV-B) — have
verification outcomes that are images of each other under the renaming.
It is invariant under consistent branch-label renaming too: no comparison
ever reads a label.

This module exploits that: a candidate pair is renamed to its canonical
shape (registers replaced, in first-occurrence order, by the ISA's
allocatable pool: ``r0, r1, ...`` / ``eax, ecx, ...``; branch labels
replaced jointly across both sides, in first-occurrence order, by ``L0,
L1, ...``), the full mapping search runs once per canonical shape, and the
verdict is *rebased* through the inverse register renaming for every other
member of the class.  Derivation targets are materialized in canonical
form already (`repro.param.shapes`), so the big win is cross-phase: the
learning phase verifies trace candidates in whatever registers the binaries
used, and derivation re-verifies the same shapes in canonical registers —
one search serves both.  Label renaming lets the condition-code variants
of ``cmp`` + ``b<cc>`` pairs from different blocks share one search.

Soundness argument (why the rebased verdict equals a direct check):

* The candidate stream (:func:`repro.verify.checker._candidate_mappings`)
  enumerates register *positions* of the first-occurrence lists, so under a
  first-occurrence renaming the k-th canonical mapping corresponds to the
  k-th original mapping.
* Every expression the search compares is over positional symbols (``v0``,
  ``F*``, ``mem*``) — register names never appear.  Lazily-materialized
  ``h_<reg>`` symbols would be name-dependent, but the search prunes
  any mapping whose unmapped registers are read-before-written, so no
  surviving comparison contains one.
* Labels never reach a comparison: :func:`~repro.verify.checker.check_equivalence`
  only counts them and requires the guest and host names to agree, a
  branch's semantics stores its target but the state comparison reads only
  ``branch_taken``, and a :class:`~repro.verify.checker.CheckResult` holds
  no label.  The renaming is joint, so which guest label corresponds to
  which host label survives in the canonical key.
* Sequences touching registers outside the allocatable pool (``sp``,
  ``pc``, ``lr``) bypass canonicalization entirely and are checked
  directly.

As a defence against the argument being wrong anywhere, a deterministic
seeded sample of memo-served verdicts is additionally re-verified directly
and compared field-for-field (:func:`set_cross_check` tunes the rate;
``tests/test_derived_rules_snapshot.py`` samples at 1-in-1 over the whole
benchmark suite and pins the result).  A divergence raises
:class:`~repro.errors.VerificationError` — loudly, because it would mean
derived rules could differ from direct verification.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import MISS, BoundedMemo
from repro.errors import VerificationError
from repro.isa.instruction import Instruction
from repro.isa.operands import Label, Mem, Reg, RegList

#: Canonical verdicts keyed by (ISA names, canonical insns, wanted flags).
_SHAPE_MEMO = BoundedMemo(maxsize=4096, name="verify.shape_class")

#: 1-in-N deterministic sampling of memo-served verdicts for the direct
#: cross-check (0 disables).  The digest below is stable across processes,
#: unlike ``hash`` of a string, so a given corpus always checks the same
#: members.
_CROSS_CHECK_MOD = 16
_CROSS_CHECK_SEED = 0

_cross_checked = 0
_cross_failed = 0


def set_cross_check(mod: int, seed: int = 0) -> None:
    """Set the cross-check sampling rate to 1-in-*mod* (0 disables)."""
    global _CROSS_CHECK_MOD, _CROSS_CHECK_SEED
    _CROSS_CHECK_MOD = mod
    _CROSS_CHECK_SEED = seed


def cross_check_stats() -> Dict[str, int]:
    """How many memo-served verdicts were re-verified, and how many diverged."""
    return {"checked": _cross_checked, "failed": _cross_failed}


def _rename_operand(op, rename: Dict[str, str], labels: Optional[Dict[str, str]]):
    if isinstance(op, Reg):
        return Reg(rename[op.name])
    if isinstance(op, Mem):
        base = Reg(rename[op.base.name]) if op.base is not None else None
        index = Reg(rename[op.index.name]) if op.index is not None else None
        return Mem(base=base, index=index, disp=op.disp, scale=op.scale)
    if isinstance(op, RegList):
        return RegList(tuple(Reg(rename[r.name]) for r in op.regs))
    if isinstance(op, Label) and labels is not None:
        return Label(labels[op.name])
    return op


def rename_registers(
    insns: Sequence[Instruction],
    rename: Dict[str, str],
    labels: Optional[Dict[str, str]] = None,
) -> Tuple[Instruction, ...]:
    """Rebuild *insns* with every register operand renamed through *rename*
    (and every label through *labels*, when given)."""
    return tuple(
        Instruction(
            insn.mnemonic,
            tuple(_rename_operand(op, rename, labels) for op in insn.operands),
        )
        for insn in insns
    )


def _canonical_rename(regs: List[str], pool: Sequence[str]) -> Optional[Dict[str, str]]:
    """First-occurrence renaming onto *pool*; None when not renamable."""
    if len(regs) > len(pool):
        return None
    pool_set = set(pool)
    if any(r not in pool_set for r in regs):
        return None
    return {r: pool[i] for i, r in enumerate(regs)}


def _canonical_labels(*sides: Sequence[Instruction]) -> Dict[str, str]:
    """Joint first-occurrence renaming of the labels of *sides* onto
    ``L0, L1, ...``."""
    labels: Dict[str, str] = {}
    for insns in sides:
        for insn in insns:
            for op in insn.operands:
                if isinstance(op, Label) and op.name not in labels:
                    labels[op.name] = f"L{len(labels)}"
    return labels


@dataclass(frozen=True)
class CanonicalPair:
    """A candidate pair in canonical registers and labels, with the inverse
    register renamings (a verdict holds no label)."""

    guest_insns: Tuple[Instruction, ...]
    host_insns: Tuple[Instruction, ...]
    guest_regs: List[str]
    host_regs: List[str]
    inv_guest: Dict[str, str]
    inv_host: Dict[str, str]
    identity: bool


def canonicalize_pair(
    guest_isa,
    host_isa,
    guest_insns: Tuple[Instruction, ...],
    host_insns: Tuple[Instruction, ...],
    guest_regs: List[str],
    host_regs: List[str],
) -> Optional[CanonicalPair]:
    """Canonical form of a candidate pair, or None when it must be checked
    directly (a register outside the allocatable pool is involved).

    Registers are renamed per side; labels jointly across both sides.  The
    pair is the identity member of its class only when both are already
    canonical."""
    g_rename = _canonical_rename(guest_regs, guest_isa.allocatable)
    if g_rename is None:
        return None
    h_rename = _canonical_rename(host_regs, host_isa.allocatable)
    if h_rename is None:
        return None
    labels = _canonical_labels(guest_insns, host_insns)
    identity = all(
        k == v
        for rename in (g_rename, h_rename, labels)
        for k, v in rename.items()
    )
    return CanonicalPair(
        guest_insns=(
            guest_insns if identity
            else rename_registers(guest_insns, g_rename, labels)
        ),
        host_insns=(
            host_insns if identity
            else rename_registers(host_insns, h_rename, labels)
        ),
        guest_regs=[g_rename[r] for r in guest_regs],
        host_regs=[h_rename[r] for r in host_regs],
        inv_guest={v: k for k, v in g_rename.items()},
        inv_host={v: k for k, v in h_rename.items()},
        identity=identity,
    )


def _rebase(result, inv_guest: Dict[str, str], inv_host: Dict[str, str]):
    """A fresh CheckResult with registers mapped back to the member's names."""
    from repro.verify.checker import CheckResult

    if result.reg_mapping is None:
        return CheckResult(False, reason=result.reason)
    return CheckResult(
        equivalent=result.equivalent,
        reg_mapping={
            inv_guest[g]: inv_host[h] for g, h in result.reg_mapping.items()
        },
        host_temps=tuple(inv_host[t] for t in result.host_temps),
        flag_status=dict(result.flag_status),
        reason=result.reason,
    )


def _sampled(guest_insns, host_insns) -> bool:
    if not _CROSS_CHECK_MOD:
        return False
    text = "|".join(str(i) for i in guest_insns) + "||" + "|".join(
        str(i) for i in host_insns
    )
    digest = zlib.crc32(f"{_CROSS_CHECK_SEED}:{text}".encode())
    return digest % _CROSS_CHECK_MOD == 0


def _results_agree(a, b) -> bool:
    return (
        a.equivalent == b.equivalent
        and a.reg_mapping == b.reg_mapping
        and a.host_temps == b.host_temps
        and a.flag_status == b.flag_status
        and a.reason == b.reason
    )


def check_shape_class(
    guest_isa,
    host_isa,
    guest_insns: Tuple[Instruction, ...],
    host_insns: Tuple[Instruction, ...],
    guest_regs: List[str],
    host_regs: List[str],
    wanted_flags: frozenset,
    search: Callable,
):
    """Run *search* once per canonical shape; rebase the verdict per member.

    *search* is the full mapping search
    (:func:`repro.verify.checker._search_mappings`); it is invoked with
    the canonical pair on a memo miss, and bypassed (served from the memo)
    otherwise.  Pairs that cannot be canonicalized fall through to a direct
    search.
    """
    global _cross_checked, _cross_failed

    pair = canonicalize_pair(
        guest_isa, host_isa, guest_insns, host_insns, guest_regs, host_regs
    )
    if pair is None:
        return search(
            guest_isa, host_isa, guest_insns, host_insns,
            guest_regs, host_regs, wanted_flags,
        )

    key = (guest_isa.name, host_isa.name, pair.guest_insns, pair.host_insns,
           wanted_flags)
    result = _SHAPE_MEMO.get(key)
    if result is MISS:
        result = search(
            guest_isa, host_isa, pair.guest_insns, pair.host_insns,
            pair.guest_regs, pair.host_regs, wanted_flags,
        )
        _SHAPE_MEMO.put(key, result)
    elif _sampled(guest_insns, host_insns):
        # Soundness guard: re-verify this member directly and require the
        # rebased class verdict to match field-for-field.
        direct = search(
            guest_isa, host_isa, guest_insns, host_insns,
            guest_regs, host_regs, wanted_flags,
        )
        rebased = _rebase(result, pair.inv_guest, pair.inv_host)
        _cross_checked += 1
        if not _results_agree(direct, rebased):
            _cross_failed += 1
            raise VerificationError(
                "shape-class verdict diverges from direct verification for "
                f"{[str(i) for i in guest_insns]} vs "
                f"{[str(i) for i in host_insns]}"
            )
        return rebased
    return _rebase(result, pair.inv_guest, pair.inv_host)
