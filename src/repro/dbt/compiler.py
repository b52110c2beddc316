"""Closure-compiled execution backend: host instructions -> Python code.

The interpreter backend (:mod:`repro.dbt.executor`) re-decodes every host
instruction on every execution: ``isinstance`` operand dispatch inside
``read_operand``/``write_operand``, a category-count dict update per
instruction, a label lookup per taken branch.  This module translates a
*second* time — the paper's guest->host translation produces a
:class:`~repro.dbt.translator.TranslatedBlock`, and ``compile_block``
lowers that host tuple into specialized Python functions, the
threaded-code / closure-compilation technique QEMU-style engines use to
escape dispatch overhead:

* **operand pre-resolution** — every operand is resolved at compile time
  into a direct slot access in the generated source: a register becomes a
  literal-keyed dict access (``regs['g_r0']``), an immediate a constant,
  an aligned constant-address memory operand (the CPU environment slots)
  a precomputed word index into the memory dict;
* **run fusion** — a block compiles to one generated function,
  ``_block(st, counts)``, with the instruction semantics inlined (no
  function call per instruction).  Each maximal straight-line run is one
  section of it, in index order, guarded by ``if _n == ri:``;
* **no accounting in generated code** — one backward pass over the run
  graph (:func:`block_host_counts`) proves that every path from the
  block's entry to its exit sums to the same weighted per-category host
  instruction counts (:data:`repro.dbt.executor.WEIGHTS`).  That constant
  is ``CompiledBlock.host_counts``, and the engine multiplies it by the
  block's execution count once per run, as it already does for the guest
  and rule counts.  A block whose paths count differently keeps in-code
  counts in the guarded form below;
* **dead flag stores** — one backward scan per run over ``flags_set`` /
  ``flags_read`` finds host-flag stores that a later instruction of the
  same run overwrites before anything reads them, and leaves them out.
  The end of a run counts as reading every flag.  An ``addl``/``subl``/
  ``andl``/``orl``/``xorl`` on registers and immediates whose flags are
  all dead compiles to one masked assignment without temporaries;
* **resolved control flow** — branch targets become run indices stored
  in ``_n`` (the section guards select the next run; leaving the block
  returns), and condition codes become inlined predicates over the flag
  file.  Translated blocks only branch forward, and every path through
  one counts alike; a block with a backward edge or path-dependent counts
  instead compiles to one counting function per run behind the
  interpreter's runaway guard (:class:`GuardedCompiledBlock`);
* **block chaining** — each compiled block carries a ``chain`` map from
  successor guest-block index to the successor's compiled body; the
  engine's jit loop (:meth:`repro.dbt.engine.DBTEngine.run`) transfers
  through it directly once an edge is hot, without returning to the
  dispatch loop.

The interpreter backend remains the oracle: compiled execution must
produce byte-identical architectural state *and* identical ``RunMetrics``
counts (``tests/test_backend_difftest.py`` enforces this over the corpus
plus hundreds of fuzzed programs).  The generated code therefore
replicates the exact arithmetic of
:class:`repro.semantics.domain.ConcreteDomain` — the 33-bit carry /
sign-overlap overflow formulas, the shift saturation rules, 0/1 integer
flags — and any mnemonic without a code template falls back to calling
the shared semantics function, which is always correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.dbt.executor import _MAX_BLOCK_STEPS, WEIGHTS
from repro.dbt.runtime import DISPATCH_LABEL
from repro.dbt.translator import TranslatedBlock
from repro.errors import ExecutionError
from repro.isa.flags import NZCV
from repro.isa.instruction import Instruction, InstructionDef
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.x86.opcodes import X86

_MASK = 0xFFFFFFFF
_M = "0xFFFFFFFF"

_NONE: FrozenSet[str] = frozenset()

#: Bump whenever generated block source changes shape or meaning.  It is
#: part of the disk code cache key, so entries written by an older
#: codegen become misses instead of being executed.
BLOCK_CODEGEN_VERSION = "block-v3"

#: Run-index sentinel: control leaves the block (the dispatch-label exit).
EXIT = -1

#: Observers notified with the :class:`TranslatedBlock` on every source
#: **generation** (:func:`generate_block_source`, which every
#: ``compile_block`` call goes through).  Re-instantiating cached source
#: with :func:`compile_block_source` does *not* fire listeners: the serving
#: layer's single-flight tests use the listener count to prove that
#: concurrent identical requests — within one process or across a pre-fork
#: worker pool sharing a disk code cache — coalesce onto exactly one
#: codegen.  Keep listeners cheap; they run on the compile path.
_COMPILE_LISTENERS: List = []


def add_compile_listener(listener) -> None:
    """Register a ``listener(tb)`` callback fired on every block compile."""
    _COMPILE_LISTENERS.append(listener)


def remove_compile_listener(listener) -> None:
    """Unregister a listener previously added with :func:`add_compile_listener`."""
    _COMPILE_LISTENERS.remove(listener)


def _uninit(exc: KeyError) -> None:
    """Convert a raw KeyError from generated code into the interpreter's
    uninitialized-read :class:`ExecutionError` (message parity with
    ``ConcreteState.get_reg``/``get_flag``)."""
    name = exc.args[0]
    kind = "flag" if name in ("N", "Z", "C", "V") else "register"
    raise ExecutionError(f"read of uninitialized {kind} {name!r}") from None


# -- operand codegen -----------------------------------------------------------


def _addr_expr(mem: Mem) -> str:
    """Effective-address expression; equivalent to ``BaseState.addr_of``.

    ``addr_of`` masks after every add/mul; folding into one final mask
    yields the same 32-bit value.  Single pre-masked terms skip the mask.
    """
    parts: List[str] = []
    disp = mem.disp & _MASK
    if disp:
        parts.append(str(disp))
    if mem.base is not None:
        parts.append(f"regs[{mem.base.name!r}]")
    if mem.index is not None:
        idx = f"regs[{mem.index.name!r}]"
        parts.append(idx if mem.scale == 1 else f"{idx} * {mem.scale}")
    if not parts:
        return "0"
    if len(parts) == 1 and mem.index is None:
        return parts[0]  # a lone disp or base register is already masked
    return f"({' + '.join(parts)}) & {_M}"


def _read(op, out: List[str], tag: str) -> str:
    """Emit lines computing operand *op*; return the value expression."""
    if isinstance(op, Reg):
        return f"regs[{op.name!r}]"
    if isinstance(op, Imm):
        return str(op.value & _MASK)
    if isinstance(op, Mem):
        if op.base is None and op.index is None:
            disp = op.disp & _MASK
            if not disp & 3:
                return f"mem.get({disp >> 2}, 0)"
            return f"st.load({disp})"
        a, v = f"_a{tag}", f"_v{tag}"
        out.append(f"{a} = {_addr_expr(op)}")
        out.append(
            f"{v} = mem.get({a} >> 2, 0) if not {a} & 3 else st.load({a})"
        )
        return v
    raise ExecutionError(f"cannot read operand {op!r}")


def _write(op, value: str, out: List[str], tag: str) -> None:
    """Emit lines storing expression *value* (already masked) into *op*."""
    if isinstance(op, Reg):
        out.append(f"regs[{op.name!r}] = {value}")
        return
    if isinstance(op, Mem):
        if op.base is None and op.index is None:
            disp = op.disp & _MASK
            if not disp & 3:
                out.append(f"mem[{disp >> 2}] = {value}")
            else:
                out.append(f"st.store({disp}, {value})")
            return
        a, w = f"_a{tag}", f"_w{tag}"
        out.append(f"{a} = {_addr_expr(op)}")
        out.append(f"{w} = {value}")
        out.append(f"if not {a} & 3: mem[{a} >> 2] = {w}")
        out.append(f"else: st.store({a}, {w})")
        return
    raise ExecutionError(f"cannot write operand {op!r}")


# -- instruction templates -----------------------------------------------------
#
# Each emitter appends source lines for one instruction.  The arithmetic
# mirrors ConcreteDomain bit for bit: the 33-bit sum for carry, the
# sign-overlap formula for overflow, shift saturation, 0/1 integer flags.

_LOGIC_OPS = {"andl": "&", "orl": "|", "xorl": "^"}
_SETCC_FLAG = {"setz": "Z", "sets": "N", "setc": "C", "seto": "V"}
_SIZED_LOAD = {"movzbl": 1, "movzwl": 2}
_SIZED_STORE = {"movb": 1, "movw": 2}


def _emit_nzcv(a: str, b: str, f: str, r: str, out: List[str], dead) -> None:
    if "N" not in dead:
        out.append(f"flags['N'] = {r} >> 31")
    if "Z" not in dead:
        out.append(f"flags['Z'] = 1 if {r} == 0 else 0")
    if "C" not in dead:
        out.append(f"flags['C'] = ({f} >> 32) & 1")
    if "V" not in dead:
        out.append(f"flags['V'] = ((~({a} ^ {b}) & ({a} ^ {r})) >> 31) & 1")


def _emit_nz_cv0(r: str, out: List[str], dead) -> None:
    if "N" not in dead:
        out.append(f"flags['N'] = {r} >> 31")
    if "Z" not in dead:
        out.append(f"flags['Z'] = 1 if {r} == 0 else 0")
    if "C" not in dead:
        out.append("flags['C'] = 0")
    if "V" not in dead:
        out.append("flags['V'] = 0")


def _simple(op) -> bool:
    return isinstance(op, (Reg, Imm))


def _emit_addsub(k, insn, out, subtract: bool, use_carry: bool, dead) -> None:
    src, dst = insn.operands
    if not use_carry and dead >= NZCV and _simple(src) and isinstance(dst, Reg):
        # Every flag is dead: the masked sum alone, no temporaries.  The
        # operands are still read destination first.
        lhs, rhs = _read(dst, out, ""), _read(src, out, "")
        _write(dst, f"({lhs} {'-' if subtract else '+'} {rhs}) & {_M}", out, "")
        return
    a, b, f, r = f"_x{k}", f"_y{k}", f"_f{k}", f"_r{k}"
    out.append(f"{a} = {_read(dst, out, f'{k}d')}")
    rhs = _read(src, out, f"{k}s")
    out.append(f"{b} = {rhs} ^ {_M}" if subtract else f"{b} = {rhs}")
    cin = "flags['C']" if use_carry else ("1" if subtract else "0")
    out.append(f"{f} = {a} + {b} + {cin}")
    out.append(f"{r} = {f} & {_M}")
    _write(dst, r, out, f"{k}w")
    _emit_nzcv(a, b, f, r, out, dead)


def _emit_cmpl(k, insn, out, dead) -> None:
    src, dst = insn.operands
    a, b, f, r = f"_x{k}", f"_y{k}", f"_f{k}", f"_r{k}"
    out.append(f"{a} = {_read(dst, out, f'{k}d')}")
    out.append(f"{b} = {_read(src, out, f'{k}s')} ^ {_M}")
    out.append(f"{f} = {a} + {b} + 1")
    out.append(f"{r} = {f} & {_M}")
    _emit_nzcv(a, b, f, r, out, dead)


def _emit_logic(k, insn, out, op: str, dead) -> None:
    src, dst = insn.operands
    rhs = _read(src, out, f"{k}s")
    lhs = _read(dst, out, f"{k}d")
    if dead >= NZCV and _simple(src) and isinstance(dst, Reg):
        _write(dst, f"{lhs} {op} {rhs}", out, "")
        return
    r = f"_r{k}"
    out.append(f"{r} = {lhs} {op} {rhs}")
    _write(dst, r, out, f"{k}w")
    _emit_nz_cv0(r, out, dead)


def _emit_shift(k, insn, out, mnemonic: str, dead) -> None:
    src, dst = insn.operands
    a, b, r = f"_x{k}", f"_y{k}", f"_r{k}"
    out.append(f"{a} = {_read(dst, out, f'{k}d')}")
    out.append(f"{b} = {_read(src, out, f'{k}s')}")
    if mnemonic == "shll":
        out.append(f"{r} = ({a} << {b}) & {_M} if {b} < 32 else 0")
    elif mnemonic == "shrl":
        out.append(f"{r} = {a} >> {b} if {b} < 32 else 0")
    else:  # sarl: arithmetic shift saturates the count at 31
        out.append(
            f"{r} = (({a} - 0x100000000 if {a} & 0x80000000 else {a})"
            f" >> ({b} if {b} < 31 else 31)) & {_M}"
        )
    _write(dst, r, out, f"{k}w")
    _emit_nz_cv0(r, out, dead)


def _emit_testl(k, insn, out, dead) -> None:
    src, dst = insn.operands
    r = f"_r{k}"
    rhs = _read(src, out, f"{k}s")
    lhs = _read(dst, out, f"{k}d")
    out.append(f"{r} = {lhs} & {rhs}")
    _emit_nz_cv0(r, out, dead)


def _emit_negl(k, insn, out, dead) -> None:
    (op,) = insn.operands
    b, f, r = f"_y{k}", f"_f{k}", f"_r{k}"
    out.append(f"{b} = {_read(op, out, f'{k}d')} ^ {_M}")
    out.append(f"{f} = {b} + 1")
    out.append(f"{r} = {f} & {_M}")
    _write(op, r, out, f"{k}w")
    if "N" not in dead:
        out.append(f"flags['N'] = {r} >> 31")
    if "Z" not in dead:
        out.append(f"flags['Z'] = 1 if {r} == 0 else 0")
    if "C" not in dead:
        out.append(f"flags['C'] = ({f} >> 32) & 1")
    if "V" not in dead:
        out.append(f"flags['V'] = ((~{b} & {r}) >> 31) & 1")


def _emit_umlal(k, insn, out) -> None:
    lo, hi, rn, rm = insn.operands
    t = f"_t{k}"
    lo_v = _read(lo, out, f"{k}a")
    hi_v = _read(hi, out, f"{k}b")
    rn_v = _read(rn, out, f"{k}c")
    rm_v = _read(rm, out, f"{k}e")
    out.append(f"{t} = (({hi_v} << 32) | {lo_v}) + {rn_v} * {rm_v}")
    _write(lo, f"{t} & {_M}", out, f"{k}w")
    _write(hi, f"({t} >> 32) & {_M}", out, f"{k}x")


def _emit_insn(
    k: int,
    insn: Instruction,
    defn: InstructionDef,
    out: List[str],
    ns: Dict,
    dead: FrozenSet[str] = _NONE,
) -> None:
    """Append source lines executing one non-branch instruction.

    *dead* names host flags this instruction sets that nothing reads
    before they are set again; their stores are left out.  The default
    (nothing dead) emits every store.
    """
    m = insn.mnemonic
    if m in ("movl", "movl_s"):
        _write(
            insn.operands[1], _read(insn.operands[0], out, f"{k}s"), out, f"{k}w"
        )
    elif m == "addl":
        _emit_addsub(k, insn, out, False, False, dead)
    elif m == "subl":
        _emit_addsub(k, insn, out, True, False, dead)
    elif m == "adcl":
        _emit_addsub(k, insn, out, False, True, dead)
    elif m == "sbbl":
        _emit_addsub(k, insn, out, True, True, dead)
    elif m in _LOGIC_OPS:
        _emit_logic(k, insn, out, _LOGIC_OPS[m], dead)
    elif m in ("shll", "shrl", "sarl"):
        _emit_shift(k, insn, out, m, dead)
    elif m == "imull":  # no flags (host imull leaves them undefined)
        src, dst = insn.operands
        lhs = _read(dst, out, f"{k}d")
        rhs = _read(src, out, f"{k}s")
        _write(dst, f"({lhs} * {rhs}) & {_M}", out, f"{k}w")
    elif m == "cmpl":
        _emit_cmpl(k, insn, out, dead)
    elif m == "testl":
        _emit_testl(k, insn, out, dead)
    elif m == "leal":
        _write(insn.operands[1], _addr_expr(insn.operands[0]), out, f"{k}w")
    elif m == "notl":
        (op,) = insn.operands
        _write(op, f"{_read(op, out, f'{k}s')} ^ {_M}", out, f"{k}w")
    elif m == "negl":
        _emit_negl(k, insn, out, dead)
    elif m in _SIZED_LOAD and isinstance(insn.operands[0], Mem):
        addr = _addr_expr(insn.operands[0])
        _write(
            insn.operands[1], f"st.load({addr}, {_SIZED_LOAD[m]})", out, f"{k}w"
        )
    elif m in _SIZED_STORE and isinstance(insn.operands[1], Mem):
        value = _read(insn.operands[0], out, f"{k}s")
        addr = _addr_expr(insn.operands[1])
        out.append(f"st.store({addr}, {value}, {_SIZED_STORE[m]})")
    elif len(m) == 4 and m[:2] == "st" and m[3] == "f" and m[2] in "nzcv":
        flag = m[2].upper()
        _write(insn.operands[0], f"(1 if flags[{flag!r}] else 0)", out, f"{k}w")
    elif len(m) == 4 and m[:2] == "ld" and m[3] == "f" and m[2] in "nzcv":
        flag = m[2].upper()
        out.append(
            f"flags[{flag!r}] = {_read(insn.operands[0], out, f'{k}s')} & 1"
        )
    elif m in _SETCC_FLAG:
        flag = _SETCC_FLAG[m]
        _write(insn.operands[0], f"(1 if flags[{flag!r}] else 0)", out, f"{k}w")
    elif m == "helper_umlal":
        _emit_umlal(k, insn, out)
    elif m == "helper_clz":
        src = _read(insn.operands[1], out, f"{k}s")
        _write(insn.operands[0], f"32 - ({src}).bit_length()", out, f"{k}w")
    else:
        # No template: call the shared semantics function (always correct).
        ns[f"_sem{k}"] = defn.semantics
        ns[f"_i{k}"] = insn
        out.append(f"_sem{k}(st, _i{k})")


# -- condition predicates ------------------------------------------------------
#
# Truthiness matches the interpreter's `if state.branch_taken:` over the
# 0/1 flag values condition evaluation produces.

_PRED_EXPR: Dict[str, str] = {
    "eq": "flags['Z']",
    "ne": "not flags['Z']",
    "lt": "flags['N'] ^ flags['V']",
    "ge": "not (flags['N'] ^ flags['V'])",
    "gt": "not flags['Z'] and not (flags['N'] ^ flags['V'])",
    "le": "flags['Z'] or (flags['N'] ^ flags['V'])",
    "mi": "flags['N']",
    "pl": "not flags['N']",
    "cs": "flags['C']",
    "cc": "not flags['C']",
    "hi": "flags['C'] and not flags['Z']",
    "ls": "not flags['C'] or flags['Z']",
    "vs": "flags['V']",
    "vc": "not flags['V']",
}


# -- run fusion ----------------------------------------------------------------
#
# A run's exit is ``(pred, taken, fall)``: ``taken`` is the next run index
# (:data:`EXIT` to leave the block, None when control falls off the end of
# the host code), and when ``pred`` is set the run goes to ``taken`` if the
# predicate holds and to ``fall`` otherwise.

_Exit = Tuple[Optional[str], Optional[int], Optional[int]]
#: Per-execution host cost of a block: sorted ``(category, weight)`` pairs.
HostCounts = Tuple[Tuple[str, int], ...]
_FELL_THROUGH = "raise ExecutionError('translated block fell through its end')"


def _run_leaders(tb: TranslatedBlock, defs) -> List[int]:
    n = len(tb.host)
    leaders = {0}
    leaders.update(pos for pos in tb.labels.values() if pos < n)
    for i, defn in enumerate(defs):
        if defn.is_branch and i + 1 < n:
            leaders.add(i + 1)
    return sorted(leaders)


def _dead_flags(defs, start: int, end: int) -> Dict[int, FrozenSet[str]]:
    """Flags each instruction of ``host[start:end)`` sets that go unread.

    One backward scan over ``flags_set``/``flags_read``.  The end of the
    run counts as reading every flag: the branch ending it, a later run,
    a chained successor block or the dispatch loop may read any of them.
    """
    live = NZCV
    dead: Dict[int, FrozenSet[str]] = {}
    for k in range(end - 1, start - 1, -1):
        defn = defs[k]
        if defn.flags_set:
            unread = defn.flags_set - live
            if unread:
                dead[k] = unread
            live = live - defn.flags_set
        if defn.flags_read:
            live = live | defn.flags_read
    return dead


def _run_exit(
    tb: TranslatedBlock,
    defs,
    start: int,
    end: int,
    run_of: Dict[int, int],
) -> _Exit:
    """Resolve how the run covering ``host[start:end)`` leaves."""
    if not defs[end - 1].is_branch:
        # Falling off the end of the host code faults in the interpreter
        # too; the exit keeps the failure explicit.
        return (None, run_of.get(end), None)
    terminator = tb.host[end - 1]
    target = terminator.operands[0] if terminator.operands else None
    if not isinstance(target, Label):
        raise ExecutionError(f"cannot compile block terminator {terminator}")
    if target.name == DISPATCH_LABEL:
        taken = EXIT
    else:
        pos = tb.labels.get(target.name)
        if pos is None or pos not in run_of:
            raise ExecutionError(f"unresolved branch target {target.name!r}")
        taken = run_of[pos]
    cond = defs[end - 1].cond
    if cond is None:
        return (None, taken, None)
    fall = run_of.get(end)
    if fall is None:
        raise ExecutionError("conditional branch at end of host code")
    return (_PRED_EXPR[cond], taken, fall)


def _run_graph(
    tb: TranslatedBlock, defs
) -> Tuple[List[Tuple[int, int]], List[_Exit]]:
    """The block's runs: ``(start, end)`` host bounds and exits, in order."""
    starts = _run_leaders(tb, defs)
    run_of = {pos: ri for ri, pos in enumerate(starts)}
    bounds = list(zip(starts, starts[1:] + [len(tb.host)]))
    return bounds, [_run_exit(tb, defs, start, end, run_of) for start, end in bounds]


def _run_counts(tb: TranslatedBlock, start: int, end: int) -> Dict[str, int]:
    """Weighted per-category host counts of ``host[start:end)``."""
    agg: Dict[str, int] = {}
    for k in range(start, end):
        cat = tb.categories[k]
        agg[cat] = agg.get(cat, 0) + WEIGHTS.get(tb.host[k].mnemonic, 1)
    return agg


def _path_counts(
    tb: TranslatedBlock, bounds: List[Tuple[int, int]], exits: List[_Exit]
) -> Optional[HostCounts]:
    """Backward pass: the totals every path from run 0 to the exit sums to.

    ``totals[ri]`` is what run ``ri`` plus any path from it to the block
    exit costs, or None when its paths disagree or never complete.  Runs
    are visited last to first, so an edge to an earlier run (or to the
    run itself) still sees None: a backward edge makes the block
    non-uniform without a separate check.
    """
    totals: List[Optional[Dict[str, int]]] = [None] * len(bounds)
    for ri in range(len(bounds) - 1, -1, -1):
        _pred, taken, fall = exits[ri]
        if taken is None:
            continue  # falls off the end of the host code: never completes
        tails = [
            {} if nxt == EXIT else totals[nxt]
            for nxt in (taken, fall)
            if nxt is not None
        ]
        if any(tail is None or tail != tails[0] for tail in tails):
            continue
        total = dict(tails[0])
        for cat, weight in _run_counts(tb, *bounds[ri]).items():
            total[cat] = total.get(cat, 0) + weight
        totals[ri] = total
    return None if totals[0] is None else tuple(sorted(totals[0].items()))


def block_host_counts(
    tb: TranslatedBlock, defs: Optional[Tuple[InstructionDef, ...]] = None
) -> Optional[HostCounts]:
    """What one execution of *tb* costs, as sorted ``(category, weight)``.

    The weighted per-category host-instruction totals
    (:data:`repro.dbt.executor.WEIGHTS`) of a full pass from the block's
    entry to its dispatch exit, when every path through its forward run
    graph sums to the same totals; None otherwise (paths that count
    differently, a backward edge, a run that falls off the end).  Both
    the jit block tier and the trace tier account a block with this one
    answer.
    """
    defs = _block_defs(tb, defs)
    if not tb.host:
        return None
    return _path_counts(tb, *_run_graph(tb, defs))


def _run_body(
    tb: TranslatedBlock,
    defs,
    start: int,
    end: int,
    ns: Dict,
    counted: bool,
) -> List[str]:
    """Source lines executing ``host[start:end)`` up to its terminator.

    With *counted*, the run's pre-aggregated category counts are added to
    ``counts`` at its end (the guarded form); otherwise the body carries
    no accounting and the engine folds the block's constant totals in.
    """
    body_end = end - 1 if defs[end - 1].is_branch else end
    dead = _dead_flags(defs, start, body_end)
    body: List[str] = []
    for k in range(start, body_end):
        _emit_insn(k, tb.host[k], defs[k], body, ns, dead.get(k, _NONE))
    if counted:
        for cat, weight in sorted(_run_counts(tb, start, end).items()):
            body.append(f"counts[{cat!r}] = counts.get({cat!r}, 0) + {weight}")
    return body


def _return_exit(exit_: _Exit) -> List[str]:
    """Exit of a run function: return the next run index."""
    pred, taken, fall = exit_
    if taken is None:
        return [_FELL_THROUGH]
    if pred is None:
        return [f"return {taken}"]
    return [f"return {taken} if ({pred}) else {fall}"]


def _section_exit(exit_: _Exit) -> List[str]:
    """Exit of a block-function section: set ``_n`` or leave the block."""
    pred, taken, fall = exit_
    if taken is None:
        return [_FELL_THROUGH]
    if pred is None:
        return ["return"] if taken == EXIT else [f"_n = {taken}"]
    if taken == EXIT:
        return [f"if {pred}: return", f"_n = {fall}"]
    return [f"_n = {taken} if ({pred}) else {fall}"]


_PROLOGUE = "    regs = st.regs; mem = st.memory; flags = st.flags"
_EPILOGUE = ("    except KeyError as _exc:", "        _uninit(_exc)", "")


def _block_function(runs: List[Tuple[List[str], _Exit]]) -> List[str]:
    """One ``_block(st, counts)`` function for a forward-only run graph.

    Each run is a section in index order; every section after the first
    is guarded by ``if _n == ri:``.  Control only moves to later runs, so
    one pass over the sections runs each taken run once, in order.  The
    sections carry no accounting, so ``counts`` goes unused; it stays in
    the signature so every compiled block is called the same way.
    """
    lines = ["def _block(st, counts):", _PROLOGUE, "    try:"]
    for ri, (body, exit_) in enumerate(runs):
        pad = "            " if ri else "        "
        if ri:
            lines.append(f"        if _n == {ri}:")
        lines.extend(pad + line for line in body)
        lines.extend(pad + line for line in _section_exit(exit_))
    lines.extend(_EPILOGUE)
    return lines


def _run_functions(runs: List[Tuple[List[str], _Exit]]) -> List[str]:
    """One ``_run{ri}(st, counts)`` function per run, each returning the
    next run index (:data:`EXIT` to leave the block)."""
    lines: List[str] = []
    for ri, (body, exit_) in enumerate(runs):
        lines.extend((f"def _run{ri}(st, counts):", _PROLOGUE, "    try:"))
        lines.extend(f"        {line}" for line in body)
        lines.extend(f"        {line}" for line in _return_exit(exit_))
        lines.extend(_EPILOGUE)
    return lines


class CompiledBlock:
    """One translated block, lowered to one generated Python function.

    ``execute(state, counts)`` runs the block to its dispatch exit against
    *state*.  It is the generated function itself, so the engine's call
    reaches generated code without a wrapper frame, and it counts
    nothing: ``host_counts`` holds the block's constant per-execution
    weighted host-instruction counts (:func:`block_host_counts`), which
    the engine multiplies by the block's execution count when the run
    ends.

    ``chain`` maps a successor guest-block index to the successor's
    ``CompiledBlock``; the engine populates it the first time an edge is
    taken (when chaining is enabled) and follows it directly afterwards.

    This class is used when compile-time analysis has proven every path
    through the run graph forward and equally costly, so each run executes
    at most once per block execution, no runtime runaway guard is needed
    and the counts are path-independent.  :class:`GuardedCompiledBlock`
    handles every other block.
    """

    __slots__ = (
        "tb",
        "execute",
        "chain",
        "guest_count",
        "covered_count",
        "rule_agg",
        "host_counts",
        "start",
    )

    def __init__(
        self, tb: TranslatedBlock, execute, host_counts: HostCounts
    ) -> None:
        self.tb = tb
        self.execute = execute
        self.chain: Dict[int, "CompiledBlock"] = {}
        self.guest_count = tb.guest_count
        self.covered_count = tb.covered_count
        self.rule_agg = tb.rule_agg
        self.host_counts = host_counts
        self.start = tb.start


def _guarded(runs, step_counts):
    """Run-function dispatch loop with the interpreter's runaway guard."""

    def execute(state, counts: Dict[str, int]) -> None:
        index = 0
        steps = 0
        while index >= 0:
            steps += step_counts[index]
            if steps > _MAX_BLOCK_STEPS:
                raise ExecutionError("runaway translated block")
            index = runs[index](state, counts)

    return execute


class GuardedCompiledBlock(CompiledBlock):
    """Compiled block with a backward edge or path-dependent counts.

    Translated blocks are path-uniform DAGs in practice, so this is a
    defensive path: each run is its own generated function that adds its
    own counts to ``execute``'s ``counts`` argument (``host_counts`` is
    empty), and ``execute`` keeps the interpreter's ``_MAX_BLOCK_STEPS``
    runaway guard live at run granularity.
    """

    __slots__ = ("runs", "step_counts")

    def __init__(self, tb: TranslatedBlock, runs, step_counts) -> None:
        super().__init__(tb, _guarded(runs, step_counts), ())
        self.runs = runs
        self.step_counts = step_counts


@dataclass(frozen=True)
class BlockSource:
    """The portable product of block codegen: source text + run metadata.

    Everything here is plain data (strings and ints), so a
    ``BlockSource`` can be persisted to disk by one process and
    re-instantiated by another with :func:`compile_block_source` — the
    objects the generated code references by name (``_sem{k}`` semantics
    functions and ``_i{k}`` instruction values for untemplated mnemonics)
    are rebuilt deterministically from the translated block itself, never
    serialized.

    ``host_counts`` is the block's per-execution cost
    (:func:`block_host_counts`).  Non-empty, the text is one
    accounting-free ``_block`` function; empty, it is one counting
    ``_run{ri}`` function per run, for the guarded form.
    """

    text: str
    step_counts: Tuple[int, ...]
    host_counts: HostCounts

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable form (the disk code cache's entry payload)."""
        return {
            "text": self.text,
            "step_counts": list(self.step_counts),
            "host_counts": [list(pair) for pair in self.host_counts],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BlockSource":
        """Rebuild from :meth:`to_payload` output; raises on bad shape."""
        text = payload["text"]
        step_counts = payload["step_counts"]
        host_counts = payload["host_counts"]
        if (
            not isinstance(text, str)
            or not isinstance(step_counts, list)
            or not all(isinstance(c, int) for c in step_counts)
            or not isinstance(host_counts, list)
            or not all(
                isinstance(pair, list)
                and len(pair) == 2
                and isinstance(pair[0], str)
                and isinstance(pair[1], int)
                for pair in host_counts
            )
        ):
            raise ValueError("malformed BlockSource payload")
        return cls(
            text=text,
            step_counts=tuple(step_counts),
            host_counts=tuple((cat, weight) for cat, weight in host_counts),
        )


def _block_defs(
    tb: TranslatedBlock, defs: Optional[Tuple[InstructionDef, ...]]
) -> Tuple[InstructionDef, ...]:
    if defs is None:
        return tuple(X86.defn(insn) for insn in tb.host)
    return defs


def generate_block_source(
    tb: TranslatedBlock,
    defs: Optional[Tuple[InstructionDef, ...]] = None,
) -> BlockSource:
    """Lower one translated block to generated Python source (codegen only).

    Deterministic: the same translated block always yields byte-identical
    source text, which is what makes the cross-process disk code cache
    sound — any worker's generation is interchangeable with any other's.
    Fires the compile listeners (this is the "work happened" event the
    single-flight proofs count).
    """
    defs = _block_defs(tb, defs)
    if not tb.host:
        raise ExecutionError("cannot compile an empty translated block")
    bounds, exits = _run_graph(tb, defs)
    host_counts = _path_counts(tb, bounds, exits)
    scratch: Dict = {}  # _emit_insn's fallback bindings; rebuilt at exec time
    runs = [
        (_run_body(tb, defs, start, end, scratch, host_counts is None), exit_)
        for (start, end), exit_ in zip(bounds, exits)
    ]
    lines = _run_functions(runs) if host_counts is None else _block_function(runs)
    for listener in tuple(_COMPILE_LISTENERS):
        listener(tb)
    return BlockSource(
        text="\n".join(lines),
        step_counts=tuple(end - start for start, end in bounds),
        host_counts=host_counts or (),
    )


def compile_block_source(
    tb: TranslatedBlock,
    source: BlockSource,
    defs: Optional[Tuple[InstructionDef, ...]] = None,
) -> CompiledBlock:
    """Instantiate generated source into an executable :class:`CompiledBlock`.

    The namespace the source executes in is rebuilt here from the
    translated block: every instruction's shared semantics function and
    instruction value are bound as ``_sem{k}``/``_i{k}`` (a superset of
    what the source references — unused bindings are free), so source
    loaded from the disk code cache needs nothing beyond the block it was
    generated from.
    """
    defs = _block_defs(tb, defs)
    ns: Dict = {"ExecutionError": ExecutionError, "_uninit": _uninit}
    for k, (insn, defn) in enumerate(zip(tb.host, defs)):
        ns[f"_sem{k}"] = defn.semantics
        ns[f"_i{k}"] = insn
    code = compile(source.text, f"<dbt-block@{tb.start:#x}>", "exec")
    exec(code, ns)  # noqa: S102 - source generated from our own IR
    if source.host_counts:
        return CompiledBlock(tb, ns["_block"], source.host_counts)
    runs = tuple(ns[f"_run{ri}"] for ri in range(len(source.step_counts)))
    return GuardedCompiledBlock(tb, runs, source.step_counts)


def compile_block(
    tb: TranslatedBlock,
    defs: Optional[Tuple[InstructionDef, ...]] = None,
) -> CompiledBlock:
    """Compile one translated block into specialized Python code."""
    defs = _block_defs(tb, defs)
    return compile_block_source(tb, generate_block_source(tb, defs), defs)
