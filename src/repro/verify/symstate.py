"""Symbolic machine state for rule verification.

Registers and flags materialize as fresh symbols on first read (shared
symbols between the guest and host states are arranged by the equivalence
checker through :meth:`SymbolicState.bind_reg`).  Memory is a store buffer:
stores append ``(addr, value, size)`` records; loads resolve against the
buffer by canonical syntactic address equality.  Loads that cannot be
resolved draw from a *load oracle* — a mapping shared between the guest and
host states so that loads from equivalent addresses observe the same
symbolic value on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import VerificationError
from repro.semantics.domain import SymbolicDomain
from repro.semantics.state import BaseState
from repro.symir import Expr, Sym, build, simplify


@dataclass(frozen=True)
class StoreRecord:
    addr: Expr
    value: Expr
    size: int


class SymbolicState(BaseState):
    """Machine state over symbolic expressions with lazy symbol creation."""

    def __init__(self, prefix: str = "s", load_oracle: Optional[Dict] = None) -> None:
        super().__init__(SymbolicDomain())
        self.prefix = prefix
        self.stores: List[StoreRecord] = []
        #: shared (addr, size) -> symbol map; pass one dict to two states to
        #: give them a common view of initial memory.
        self.load_oracle: Dict[Tuple[Expr, int], Expr] = (
            load_oracle if load_oracle is not None else {}
        )
        #: registers that materialized lazily (read before any bind/write).
        self.lazy_reads: Set[str] = set()
        self.initial_regs: Dict[str, Sym] = {}
        self.initial_flags: Dict[str, Sym] = {}
        self.written_regs: Set[str] = set()
        #: registers read before this run wrote them, bound or not.
        self.early_reads: Set[str] = set()

    # -- symbol binding --------------------------------------------------------

    def bind_reg(self, name: str, symbol: Expr) -> None:
        """Pre-bind a register to a symbol (used for guest/host mapping)."""
        self.regs[name] = symbol
        if isinstance(symbol, Sym):
            self.initial_regs[name] = symbol

    def bind_flag(self, name: str, symbol: Expr) -> None:
        self.flags[name] = symbol
        if isinstance(symbol, Sym):
            self.initial_flags[name] = symbol

    def get_reg(self, name: str) -> Expr:
        if name not in self.written_regs:
            self.early_reads.add(name)
        value = self.regs.get(name)
        if value is None:
            value = Sym(f"{self.prefix}_{name}", 32)
            self.regs[name] = value
            self.initial_regs[name] = value
            self.lazy_reads.add(name)
        return value

    def set_reg(self, name: str, value: Expr) -> None:
        self.regs[name] = value
        self.written_regs.add(name)

    def get_flag(self, name: str) -> Expr:
        value = self.flags.get(name)
        if value is None:
            value = Sym(f"{self.prefix}_flag_{name}", 1)
            self.flags[name] = value
            self.initial_flags[name] = value
        return value

    # -- memory ----------------------------------------------------------------

    def load(self, addr: Expr, size: int = 4) -> Expr:
        addr = simplify(addr)
        for record in reversed(self.stores):
            if record.addr == addr and record.size == size:
                return record.value
        if self.stores:
            # A prior store to a syntactically different address may alias
            # this load.  Rejecting is the sound choice — the paper's strict
            # verification loses such candidates too (§II-B).
            raise VerificationError(
                "load from address not provably disjoint from earlier store"
            )
        key = (addr, size)
        memo = self.load_oracle.get(key)
        if memo is None:
            memo = Sym(f"mem{len(self.load_oracle)}", 32)
            if size != 4:
                memo = build.extract(memo, 0, size * 8)
            self.load_oracle[key] = memo
        return memo

    def store(self, addr: Expr, value: Expr, size: int = 4) -> None:
        self.stores.append(StoreRecord(simplify(addr), value, size))


def run_symbolic(isa, instructions, state: SymbolicState) -> None:
    """Execute a straight-line instruction sequence symbolically.

    Branches are only legal as the final instruction (their outcome lands in
    ``state.branch_taken``); anything after a branch raises.
    """
    seen_branch = False
    for insn in instructions:
        if insn.mnemonic == ".label":
            continue
        if seen_branch:
            raise VerificationError("instruction after branch in straight-line sequence")
        defn = isa.defn(insn)
        if defn.semantics is None:
            raise VerificationError(f"{insn.mnemonic} has no executable semantics")
        defn.semantics(state, insn)
        if defn.is_branch:
            seen_branch = True
