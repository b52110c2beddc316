"""Trace tier: hot-cycle superblocks with side-exit guards.

Block chaining removes the dispatch loop from hot edges but still executes
one compiled body per block: every block pays its prologue loads, its exit
writebacks, a trampoline step per fused run, and a per-block bookkeeping
update in the engine loop.  This module adds the classic trace-JIT tier on
top (QEMU avoids it, HotSpot/Dynamo/LuaJIT live on it): once edge profiling
in :class:`~repro.dbt.engine.DBTEngine` finds a hot cycle head, the
dominant chained successors are stitched into one **superblock** — a single
generated Python function covering the whole cycle — and re-optimized
across the block boundaries:

* **cross-block register sync** — a block prologue load ``g_X <- env[X]``
  is elided when an earlier position in the trace already left ``g_X``
  coherent with its environment slot (loaded it, or stored it back);
* **cross-block flag-liveness windows** — an NZCV spill (``st<f>f``) whose
  environment slot is provably re-stored before the next side exit or
  environment observation is dead and elided, *across* block boundaries
  (the translator's delegation analysis stops at block edges);
* **guards with side exits** — at each conditional junction the trace
  keeps only the hot direction; the guard evaluates the same predicate the
  block terminator would and, on a mispredict, executes the *original*
  cold-direction exit stub (writebacks + PC store) and returns to the
  block-level tier.  Indirect (``bx``) junctions guard on the register
  value, so traces run through call/return cycles too.

Correctness discipline (the same oracle contract the jit backend honours):
byte-identical architectural snapshots *and* byte-identical
:class:`~repro.dbt.metrics.RunMetrics` versus the interp backend.  Metrics
parity survives the elisions because accounting is decoupled from
execution: every position's weighted per-category host-instruction counts
are those of the *original* unoptimized block, one full pass from entry
to exit, as :func:`repro.dbt.compiler.block_host_counts` computes them
for the jit block tier too (a block whose two arms count differently has
no such constant and stays off traces).  They are flushed once at trace
exit, as the full-iteration aggregate times the completed iteration count
plus the prefix through the exit position.  An elided instruction is
still counted; it is just not executed.

Elision soundness does not assume guest programs stay out of the emulated
CPU environment: any host instruction that could *read* memory through a
computed address (a guest load) pins preceding flag spills, and any that
could *write* one (a guest store) resets the register/flag sync state, so
a guest that aliases the environment region degrades to block-tier code
instead of diverging.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dbt.compiler import (
    _PRED_EXPR,
    HostCounts,
    _emit_insn,
    _uninit,
    block_host_counts,
)
from repro.dbt.runtime import (
    DISPATCH_LABEL,
    env_flag_addr,
    env_reg_addr,
)
from repro.dbt.translator import _EXIT_TAKEN, TranslatedBlock
from repro.errors import ExecutionError
from repro.isa.instruction import Instruction, InstructionDef
from repro.isa.operands import Imm, Label, Mem, Reg

_MASK = 0xFFFFFFFF

_FLAG_NAMES = ("N", "Z", "C", "V")
_FLAG_SLOT_ADDR = {env_flag_addr(f): f for f in _FLAG_NAMES}
_REG_NAMES = tuple(f"r{i}" for i in range(13)) + ("sp", "lr", "pc")
_REG_SLOT_ADDR = {env_reg_addr(name): f"g_{name}" for name in _REG_NAMES}
_ENV_PC_ADDR = env_reg_addr("pc")
_ENV_LO = min(_REG_SLOT_ADDR)
_ENV_HI = max(_FLAG_SLOT_ADDR) + 4

#: Mnemonics whose generated template writes the full NZCV flag file
#: (mirrors the emitters in :mod:`repro.dbt.compiler`).
_NZCV_WRITERS = frozenset(
    {
        "addl", "subl", "adcl", "sbbl", "cmpl", "testl", "negl",
        "andl", "orl", "xorl", "shll", "shrl", "sarl",
    }
)


@dataclass(frozen=True)
class TraceConfig:
    """Tuning knobs for trace selection, guarding, and retirement."""

    #: back-edge traversal count that triggers trace formation at its head.
    hot_threshold: int = 8
    #: maximum number of blocks stitched into one trace.
    max_length: int = 32
    #: an edge must have been taken this often to be followed at all.
    min_edge_count: int = 2
    #: the dominant successor must carry this share of outgoing traversals.
    dominance: float = 0.5
    #: entries per retirement-accounting window.
    probation_entries: int = 8
    #: a window averaging fewer *executed blocks* per entry than this
    #: retires the trace.  Blocks, not completed iterations: a guard exit
    #: after a long covered prefix is still a profitable entry (the prefix
    #: ran as straight-line trace code), so only traces whose entries keep
    #: bailing out near the top — paying the entry overhead for almost no
    #: covered work — are pathological.
    min_mean_blocks: float = 4.0
    #: per-engine cap on live traces.
    max_traces: int = 64
    #: block transitions without a new trace forming before edge profiling
    #: switches off for good.  Profiling costs two dict operations plus a
    #: formation-trigger check on *every* dispatch; once the working set's
    #: hot cycles have all been promoted (or blacklisted) that tax buys
    #: nothing, so the dispatch tail drops to the jit tier's cost.  Heads
    #: that only become hot later are left to the block tier — the same
    #: bounded-profiling bargain production trace JITs make.
    profile_window: int = 8192

    @classmethod
    def aggressive(cls) -> "TraceConfig":
        """Test/difftest settings: form traces on tiny fuzzed programs."""
        return cls(
            hot_threshold=3,
            max_length=8,
            min_edge_count=1,
            dominance=0.5,
            probation_entries=4,
            min_mean_blocks=1.05,
            max_traces=32,
            profile_window=2048,
        )


class TraceStats:
    """Process-wide trace-tier counters (thread-safe).

    Surfaced through :func:`repro.cache.stats_payload`, which is what both
    ``repro cache stats`` and the service ``stats`` endpoint serialize.
    """

    _FIELDS = (
        "formed",
        "form_failed",
        "retired",
        "entries",
        "iterations",
        "guard_exits",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with getattr(self, "_lock"):
            for name in self._FIELDS:
                setattr(self, name, 0)

    def incr(self, name: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}


#: The process-wide counter instance.
TRACE_STATS = TraceStats()


# -- trace source --------------------------------------------------------------


@dataclass(frozen=True)
class TraceSource:
    """The product of trace codegen (mirrors ``BlockSource``).

    :func:`compile_trace_source` instantiates it against the parsed blocks
    it was generated from; the constituent block start indices are carried
    to check that they match.
    """

    text: str
    block_starts: Tuple[int, ...]


# -- block-structure parsing ---------------------------------------------------


@dataclass(frozen=True)
class _Stub:
    """One exit stub: ``host[start:jmp]`` writebacks + PC store (+ jmp)."""

    start: int
    jmp: int  # index of the dispatch jmp (exclusive end of emitted range)
    target_index: Optional[int]  # Imm PC store, in guest-block-index units
    via_reg: Optional[str]  # bare guest register name for indirect exits


@dataclass(frozen=True)
class _ParsedBlock:
    """A translated block decomposed into the shapes trace codegen needs."""

    tb: TranslatedBlock
    defs: Tuple[InstructionDef, ...]
    prologue: Tuple[Tuple[int, str], ...]  # (host index, 'g_<reg>')
    linear_end: int  # body ends here: jcc index, or first stub start
    cond: Optional[str]
    fall: _Stub
    taken: Optional[_Stub]
    host_counts: HostCounts  # one full pass, from the compiler


def _is_env_word(op) -> Optional[int]:
    """The env-slot address of a constant aligned Mem operand, else None."""
    if not isinstance(op, Mem) or op.base is not None or op.index is not None:
        return None
    addr = op.disp & _MASK
    if addr % 4 or not (_ENV_LO <= addr < _ENV_HI):
        return None
    return addr


def _parse_stub(tb: TranslatedBlock, jmp: int) -> Optional[_Stub]:
    host = tb.host
    pcs = host[jmp - 1] if jmp >= 1 else None
    if pcs is None or pcs.mnemonic != "movl_s":
        return None
    src, dst = pcs.operands
    if _is_env_word(dst) != _ENV_PC_ADDR:
        return None
    target_index: Optional[int] = None
    via_reg: Optional[str] = None
    if isinstance(src, Imm):
        value = src.value & _MASK
        if value % 4:
            return None
        target_index = value // 4
    elif isinstance(src, Reg) and src.name.startswith("g_"):
        via_reg = src.name[2:]
    else:
        return None
    start = jmp - 1
    while start - 1 >= 0:
        insn = host[start - 1]
        if insn.mnemonic != "movl_s":
            break
        wsrc, wdst = insn.operands
        addr = _is_env_word(wdst)
        if addr is None or addr == _ENV_PC_ADDR or addr in _FLAG_SLOT_ADDR:
            break
        if not isinstance(wsrc, Reg):
            break
        start -= 1
    return _Stub(start=start, jmp=jmp, target_index=target_index, via_reg=via_reg)


def parse_block(
    tb: TranslatedBlock, defs: Sequence[InstructionDef]
) -> Optional[_ParsedBlock]:
    """Decompose *tb* for trace stitching; None if its shape is unusual.

    Rejection is always safe — the block simply stays on the block tier.
    Expected shape (what the translator emits): prologue loads, a
    straight-line body, at most one conditional jcc to ``__exit_taken``,
    and one or two dispatch exit stubs.
    """
    host = tb.host
    n = len(host)
    if not n:
        return None
    jmps = [
        i
        for i in range(n)
        if host[i].mnemonic == "jmp"
        and host[i].operands
        and isinstance(host[i].operands[0], Label)
        and host[i].operands[0].name == DISPATCH_LABEL
    ]
    if len(jmps) not in (1, 2) or jmps[-1] != n - 1:
        return None

    cond: Optional[str] = None
    taken: Optional[_Stub] = None
    if len(jmps) == 2:
        fall = _parse_stub(tb, jmps[0])
        taken = _parse_stub(tb, jmps[1])
        if fall is None or taken is None:
            return None
        if taken.start != jmps[0] + 1:
            return None
        if tb.labels.get(_EXIT_TAKEN) != taken.start:
            return None
        jcc = fall.start - 1
        if jcc < 0:
            return None
        jdef = defs[jcc]
        if not jdef.is_branch or jdef.cond is None or jdef.cond not in _PRED_EXPR:
            return None
        ops = host[jcc].operands
        if not (
            ops and isinstance(ops[0], Label) and ops[0].name == _EXIT_TAKEN
        ):
            return None
        cond = jdef.cond
        linear_end = jcc
        branch_ok = {jcc, jmps[0], jmps[1]}
    else:
        if _EXIT_TAKEN in tb.labels:
            return None
        fall = _parse_stub(tb, jmps[0])
        if fall is None:
            return None
        linear_end = fall.start
        branch_ok = {jmps[0]}

    for i, defn in enumerate(defs):
        if defn.is_branch and i not in branch_ok:
            return None  # host-internal control flow: stay on the block tier
    # Both arms must account identically: that is what makes the
    # per-position count aggregate path-independent.
    host_counts = block_host_counts(tb, defs)
    if host_counts is None:
        return None

    prologue: List[Tuple[int, str]] = []
    for i in range(linear_end):
        insn = host[i]
        if insn.mnemonic != "movl":
            break
        src, dst = insn.operands
        addr = _is_env_word(src)
        if (
            addr is None
            or addr in _FLAG_SLOT_ADDR
            or not isinstance(dst, Reg)
            or _REG_SLOT_ADDR.get(addr) != dst.name
        ):
            break
        prologue.append((i, dst.name))

    return _ParsedBlock(
        tb=tb,
        defs=tuple(defs),
        prologue=tuple(prologue),
        linear_end=linear_end,
        cond=cond,
        fall=fall,
        taken=taken,
        host_counts=host_counts,
    )


# -- cycle selection -----------------------------------------------------------


def select_cycle(
    head: int, edge_counts: Dict[Tuple[int, int], int], cfg: TraceConfig
) -> Optional[List[int]]:
    """Follow dominant successors from *head* until the cycle closes.

    Returns the block-index path (head first) or None when the walk hits a
    cold or ambiguous edge, an inner cycle, or the length bound — the
    superblock shape the paper's tiered follow-on relies on is exactly
    "one hot cyclic path".
    """
    path = [head]
    seen = {head}
    current = head
    while len(path) <= cfg.max_length:
        total = 0
        best_count = 0
        best_dst = None
        for (src, dst), count in edge_counts.items():
            if src != current:
                continue
            total += count
            if count > best_count:
                best_count, best_dst = count, dst
        if best_dst is None or best_count < cfg.min_edge_count:
            return None
        if best_count < cfg.dominance * total:
            return None  # ambiguous junction: no dominant direction
        if best_dst == head:
            return path
        if best_dst in seen:
            return None  # inner cycle not through the head
        path.append(best_dst)
        seen.add(best_dst)
        current = best_dst
    return None


# -- junction planning ---------------------------------------------------------


@dataclass(frozen=True)
class _Junction:
    """How one position transfers to the next on the trace path."""

    guarded: bool
    fail_expr: Optional[str]  # python expr: True -> take the side exit
    side_stub: Optional[_Stub]  # executed on guard failure
    main_stub: _Stub  # executed on the on-trace path


def plan_junctions(parsed: Sequence[_ParsedBlock]) -> Optional[List[_Junction]]:
    n = len(parsed)
    plans: List[_Junction] = []
    for p, pb in enumerate(parsed):
        expected = parsed[(p + 1) % n].tb.start
        if pb.fall.via_reg is not None:
            reg = f"g_{pb.fall.via_reg}"
            plans.append(
                _Junction(
                    guarded=True,
                    fail_expr=f"regs[{reg!r}] != {expected * 4}",
                    side_stub=pb.fall,
                    main_stub=pb.fall,
                )
            )
        elif pb.taken is not None:
            pred = _PRED_EXPR[pb.cond]
            if pb.taken.target_index == pb.fall.target_index:
                if expected != pb.fall.target_index:
                    return None
                plans.append(_Junction(False, None, None, pb.fall))
            elif expected == pb.taken.target_index:
                plans.append(
                    _Junction(True, f"not ({pred})", pb.fall, pb.taken)
                )
            elif expected == pb.fall.target_index:
                plans.append(_Junction(True, f"({pred})", pb.taken, pb.fall))
            else:
                return None
        else:
            if pb.fall.target_index != expected:
                return None
            plans.append(_Junction(False, None, None, pb.fall))
    return plans


# -- effect classification (elision soundness) ---------------------------------

_ALU2 = frozenset(
    {
        "addl", "subl", "adcl", "sbbl", "andl", "orl", "xorl",
        "shll", "shrl", "sarl", "imull",
    }
)
_TEMPLATED = (
    _ALU2
    | _NZCV_WRITERS
    | frozenset(
        {
            "movl", "movl_s", "leal", "notl", "negl",
            "helper_umlal", "helper_clz",
            "setz", "sets", "setc", "seto",
        }
    )
)


def _flag_of(insn: Instruction, prefix: str) -> Optional[str]:
    m = insn.mnemonic
    if len(m) == 4 and m[:2] == prefix and m[3] == "f" and m[2] in "nzcv":
        return m[2].upper()
    return None


def _is_templated(insn: Instruction) -> bool:
    m = insn.mnemonic
    if m in _TEMPLATED:
        return True
    if _flag_of(insn, "st") or _flag_of(insn, "ld"):
        return True
    if m in ("movzbl", "movzwl") and isinstance(insn.operands[0], Mem):
        return True
    if m in ("movb", "movw") and isinstance(insn.operands[1], Mem):
        return True
    return False


def _mem_accesses(insn: Instruction) -> Tuple[List[Mem], List[Mem]]:
    """(memory reads, memory writes) of one host instruction's template.

    Untemplated instructions are handled by the callers as full barriers,
    so this only needs to be exact for the templated set.
    """
    m = insn.mnemonic
    ops = insn.operands
    mems = [op for op in ops if isinstance(op, Mem)]
    if m in ("movl", "movl_s", "movzbl", "movzwl"):
        return (
            [ops[0]] if isinstance(ops[0], Mem) else [],
            [ops[1]] if isinstance(ops[1], Mem) else [],
        )
    if m in ("movb", "movw"):
        return (
            [ops[0]] if isinstance(ops[0], Mem) else [],
            [ops[1]] if isinstance(ops[1], Mem) else [],
        )
    if m in _ALU2 or m in ("notl", "negl"):
        return mems, [ops[-1]] if isinstance(ops[-1], Mem) else []
    if m in ("cmpl", "testl"):
        return mems, []
    if m == "leal":
        return [], []  # address computation only
    if _flag_of(insn, "st"):
        return [], [ops[0]] if isinstance(ops[0], Mem) else []
    if _flag_of(insn, "ld"):
        return [ops[0]] if isinstance(ops[0], Mem) else [], []
    if m in ("setz", "sets", "setc", "seto"):
        return [], [ops[0]] if isinstance(ops[0], Mem) else []
    return mems, mems  # conservative for helpers and anything else


def _is_dynamic(mem: Mem) -> bool:
    return mem.base is not None or mem.index is not None


def _static_range(mem: Mem) -> Tuple[int, int]:
    addr = mem.disp & _MASK
    return addr, addr + 4  # conservative word-sized footprint


def _may_read_slot(insn: Instruction, slot_addr: int) -> bool:
    """Could this instruction's template read env word *slot_addr*?"""
    if not _is_templated(insn):
        return True
    reads, _writes = _mem_accesses(insn)
    for mem in reads:
        if _is_dynamic(mem):
            return True
        lo, hi = _static_range(mem)
        if lo < slot_addr + 4 and slot_addr < hi:
            return True
    return False


# -- codegen -------------------------------------------------------------------


def _elided_flag_stores(
    parsed: Sequence[_ParsedBlock], plans: Sequence[_Junction]
) -> Set[Tuple[int, int]]:
    """(position, host index) of NZCV spills dead along the trace path.

    A spill is dead when, walking the stitched straight-line stream, the
    same environment flag slot is re-stored before any observation point:
    a guarded junction (side exits must see current flags), a reload of
    the slot, any instruction that could read it through memory, or the
    end of the loop body (the bail path returns to the dispatcher).
    """
    events: List[Tuple[Optional[int], Optional[int], Optional[Instruction]]] = []
    for p, pb in enumerate(parsed):
        for i in range(pb.linear_end):
            events.append((p, i, pb.tb.host[i]))
        if plans[p].guarded:
            events.append((None, None, None))  # observation marker
    def _spills_slot(insn: Instruction, flag: str, slot: int) -> bool:
        return (
            _flag_of(insn, "st") == flag
            and _is_env_word(insn.operands[0]) == slot
        )

    elided: Set[Tuple[int, int]] = set()
    for idx, (p, i, insn) in enumerate(events):
        if insn is None:
            continue
        flag = _flag_of(insn, "st")
        if flag is None:
            continue
        slot = env_flag_addr(flag)
        if _is_env_word(insn.operands[0]) != slot:
            continue  # not the canonical spill shape: never elide
        for _lp, _li, later in events[idx + 1 :]:
            if later is None:
                break  # guard: side exit observes the environment
            if _spills_slot(later, flag, slot):
                elided.add((p, i))
                break
            if _may_read_slot(later, slot):
                break
        # falling off the end of the loop body is an observation: keep.
    return elided


def _ns_bases(parsed: Sequence[_ParsedBlock]) -> List[int]:
    bases: List[int] = []
    total = 0
    for pb in parsed:
        bases.append(total)
        total += len(pb.tb.host)
    return bases


class _SyncState:
    """Which guest registers / env flag slots are coherent right now."""

    def __init__(self) -> None:
        self.regs: Set[str] = set()
        self.flags: Set[str] = set()

    def clobber_all(self) -> None:
        self.regs.clear()
        self.flags.clear()

    def apply(self, insn: Instruction, defn: InstructionDef) -> None:
        """Conservative post-state after executing one emitted instruction."""
        if not _is_templated(insn):
            self.clobber_all()
            return
        if insn.mnemonic in _NZCV_WRITERS:
            self.flags.difference_update(_FLAG_NAMES)
        else:
            self.flags.difference_update(defn.flags_set)
        for op in insn.operands:
            if isinstance(op, Reg):
                self.regs.discard(op.name)
        _reads, writes = _mem_accesses(insn)
        for mem in writes:
            if _is_dynamic(mem):
                self.clobber_all()
                return
            lo, hi = _static_range(mem)
            for addr in range(lo & ~3, hi, 4):
                reg = _REG_SLOT_ADDR.get(addr)
                if reg is not None:
                    self.regs.discard(reg)
                flag = _FLAG_SLOT_ADDR.get(addr)
                if flag is not None:
                    self.flags.discard(flag)


def generate_trace_source(
    parsed: Sequence[_ParsedBlock], plans: Sequence[_Junction]
) -> TraceSource:
    """Lower one planned cycle into generated Python source.

    Deterministic for a given (parsed, plans) input.  The function
    contract::

        _trace(st, max_iters) -> (completed_iterations, exit_pos)

    ``exit_pos >= 0``: a guard at that position failed after executing its
    original cold exit stub (environment fully current, PC stored).
    ``exit_pos == -1``: the iteration budget was exhausted at the loop
    bottom (PC stored back at the head).  Never executes more than
    ``max_iters * len(parsed)`` blocks' worth of state updates.

    The generated code carries **no accounting at all**: host-instruction
    counts, guest/covered totals, and rule hits are all pure arithmetic
    over translate-time aggregates and the returned ``(iterations,
    exit_pos)`` pair, so the engine reconstructs them outside the hot loop
    (see :class:`CompiledTrace`'s total/prefix tables).
    """
    bases = _ns_bases(parsed)
    elided = _elided_flag_stores(parsed, plans)
    ns_probe: Dict = {}

    lines: List[str] = [
        "def _trace(st, max_iters):",
        "    regs = st.regs; mem = st.memory; flags = st.flags",
        "    _iters = 0",
        "    try:",
        "        while True:",
    ]

    def emit(line: str, extra: int = 0) -> None:
        lines.append(" " * (12 + extra) + line)

    def emit_insn(p: int, i: int, extra: int = 0) -> None:
        buf: List[str] = []
        _emit_insn(bases[p] + i, parsed[p].tb.host[i], parsed[p].defs[i], buf, ns_probe)
        for line in buf:
            emit(line, extra)

    def emit_stub(p: int, stub: _Stub, sync: Optional[_SyncState], extra: int = 0) -> None:
        pb = parsed[p]
        for i in range(stub.start, stub.jmp):
            emit_insn(p, i, extra)
            if sync is not None:
                insn = pb.tb.host[i]
                src, dst = insn.operands
                addr = _is_env_word(dst)
                if (
                    addr is not None
                    and isinstance(src, Reg)
                    and _REG_SLOT_ADDR.get(addr) == src.name
                ):
                    sync.regs.add(src.name)

    sync = _SyncState()  # loop-top state: nothing known (entry + back edge)
    for p, pb in enumerate(parsed):
        host = pb.tb.host
        emit(f"# -- position {p}: block @{pb.tb.start * 4:#x}")
        loaded = {i for i, _name in pb.prologue}
        for i, name in pb.prologue:
            if name in sync.regs:
                continue  # coherent from an earlier position: elide the load
            emit_insn(p, i)
            sync.regs.add(name)
        for i in range(len(pb.prologue), pb.linear_end):
            if i in loaded:
                continue
            insn = host[i]
            st_flag = _flag_of(insn, "st")
            ld_flag = _flag_of(insn, "ld")
            if st_flag is not None and _is_env_word(insn.operands[0]) is not None:
                if (p, i) in elided:
                    sync.flags.discard(st_flag)  # env slot left stale
                    continue
                emit_insn(p, i)
                sync.flags.add(st_flag)
                continue
            if ld_flag is not None and _is_env_word(insn.operands[0]) is not None:
                if ld_flag in sync.flags:
                    continue  # flags[F] already equals the env slot
                emit_insn(p, i)
                sync.flags.add(ld_flag)
                continue
            emit_insn(p, i)
            sync.apply(insn, pb.defs[i])

        plan = plans[p]
        if plan.guarded:
            emit(f"if {plan.fail_expr}:")
            emit_stub(p, plan.side_stub, None, extra=4)
            emit(f"return (_iters, {p})", extra=4)
        emit_stub(p, plan.main_stub, sync)

    emit("_iters += 1")
    emit("if _iters >= max_iters:")
    emit("    return (_iters, -1)")
    lines.append("    except KeyError as _exc:")
    lines.append("        _uninit(_exc)")
    return TraceSource(
        text="\n".join(lines),
        block_starts=tuple(pb.tb.start for pb in parsed),
    )


def _trace_namespace(parsed: Sequence[_ParsedBlock]) -> Dict:
    """Execution namespace: a superset of what any trace source references."""
    ns: Dict = {"ExecutionError": ExecutionError, "_uninit": _uninit}
    bases = _ns_bases(parsed)
    for p, pb in enumerate(parsed):
        base = bases[p]
        for i, (insn, defn) in enumerate(zip(pb.tb.host, pb.defs)):
            ns[f"_sem{base + i}"] = defn.semantics
            ns[f"_i{base + i}"] = insn
    return ns


class CompiledTrace:
    """One compiled superblock plus its per-position accounting tables.

    ``guest_prefix[j]`` etc. hold the totals for positions ``0..j`` of one
    iteration, so the engine can reconstruct exact interp-equivalent
    metrics from the ``(iterations, exit_pos)`` pair the generated
    function returns.
    """

    __slots__ = (
        "head",
        "fn",
        "length",
        "block_indices",
        "guest_total",
        "covered_total",
        "rule_total",
        "count_total",
        "guest_prefix",
        "covered_prefix",
        "rule_prefix",
        "count_prefix",
        "source",
        "window_entries",
        "window_blocks",
        "guard_exits",
    )

    def __init__(self, parsed: Sequence[_ParsedBlock], source: TraceSource, fn) -> None:
        self.head = parsed[0].tb.start
        self.fn = fn
        self.length = len(parsed)
        self.block_indices = tuple(pb.tb.start for pb in parsed)
        self.source = source
        guest_prefix: List[int] = []
        covered_prefix: List[int] = []
        rule_prefix: List[Tuple] = []
        count_prefix: List[Dict[str, int]] = []
        guest = covered = 0
        rules: Dict = {}
        counts: Dict[str, int] = {}
        for pb in parsed:
            guest += pb.tb.guest_count
            covered += pb.tb.covered_count
            for rule, length in pb.tb.rule_agg:
                rules[rule] = rules.get(rule, 0) + length
            for cat, weight in pb.host_counts:
                counts[cat] = counts.get(cat, 0) + weight
            guest_prefix.append(guest)
            covered_prefix.append(covered)
            rule_prefix.append(tuple(rules.items()))
            count_prefix.append(dict(counts))
        self.guest_total = guest
        self.covered_total = covered
        self.rule_total = rule_prefix[-1]
        self.count_total = count_prefix[-1]
        self.guest_prefix = tuple(guest_prefix)
        self.covered_prefix = tuple(covered_prefix)
        self.rule_prefix = tuple(rule_prefix)
        self.count_prefix = tuple(count_prefix)
        self.window_entries = 0
        self.window_blocks = 0
        self.guard_exits = 0


def compile_trace_source(
    parsed: Sequence[_ParsedBlock], source: TraceSource
) -> CompiledTrace:
    """Instantiate generated trace source into a callable."""
    if source.block_starts != tuple(pb.tb.start for pb in parsed):
        raise ExecutionError("trace source does not match its blocks")
    ns = _trace_namespace(parsed)
    code = compile(
        source.text,
        f"<dbt-trace@{parsed[0].tb.start * 4:#x}+{len(parsed)}>",
        "exec",
    )
    exec(code, ns)  # noqa: S102 - source generated from our own IR
    # Popped, as compile_block_source pops ``_block``: left in the
    # namespace, the function would sit in its own globals, a cycle.
    return CompiledTrace(parsed, source, ns.pop("_trace"))


# -- formation (the engine's entry point) --------------------------------------


def form_trace(
    head: int,
    edge_counts: Dict[Tuple[int, int], int],
    entry_of: Callable[[int], Optional[object]],
    cfg: TraceConfig,
) -> Tuple[Optional[CompiledTrace], bool]:
    """Try to grow and compile a trace at *head*.

    ``entry_of`` maps a guest block index to its ``CodeCacheEntry`` (or
    None).

    Returns ``(trace, permanent_failure)``: a permanent failure means the
    head should be blacklisted (its blocks cannot be stitched), a
    transient one that selection may succeed later with warmer edges.
    """
    path = select_cycle(head, edge_counts, cfg)
    if path is None:
        TRACE_STATS.incr("form_failed")
        return None, False
    parsed: List[_ParsedBlock] = []
    for index in path:
        entry = entry_of(index)
        if entry is None:
            TRACE_STATS.incr("form_failed")
            return None, False
        pb = parse_block(entry.tb, entry.kernel.defs)
        if pb is None:
            TRACE_STATS.incr("form_failed")
            return None, True
        parsed.append(pb)
    plans = plan_junctions(parsed)
    if plans is None:
        TRACE_STATS.incr("form_failed")
        return None, True
    try:
        trace = compile_trace_source(parsed, generate_trace_source(parsed, plans))
    except ExecutionError:
        TRACE_STATS.incr("form_failed")
        return None, True
    TRACE_STATS.incr("formed")
    return trace, False
