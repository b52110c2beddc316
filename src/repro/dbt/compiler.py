"""Closure-compiled execution backend: host instructions -> Python code.

The interpreter backend (:mod:`repro.dbt.executor`) re-decodes every host
instruction on every execution: ``isinstance`` operand dispatch inside
``read_operand``/``write_operand``, a category-count dict update per
instruction, a label lookup per taken branch.  This module translates a
*second* time — the paper's guest->host translation produces a
:class:`~repro.dbt.translator.TranslatedBlock`, and ``compile_block``
lowers that host tuple into specialized Python functions, the
threaded-code / closure-compilation technique QEMU-style engines use to
escape dispatch overhead.  A block has two executable forms:

* **template form** (:func:`bind_block`) — every cold jit block starts
  here, with no ``compile()`` of its own.  Host code is highly repetitive
  once constants are abstracted (a few dozen instruction *shapes* cover
  thousands of blocks), so one factory per shape — mnemonic,
  the operand properties the emitters branch on, dead-flag set — is
  compiled once per process from the same emitters, and binding a block
  is one factory call per instruction with its operand constants.  The
  block runs as a tuple of functions per run in a small run-graph loop;
* **inline form** (:func:`compile_block`) — one generated function per
  block, described below.  The engine tiers a block up to it once it has
  run often enough to be worth its ``compile()``.

The inline form is specialized the way a template JIT specializes
machine code:

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
  and rule counts.  A block whose paths count differently is counted
  per instruction in the guarded form below;
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
  has no inline form and is run by the interpreter itself, with its
  runaway guard and per-instruction counts (the guarded form);
* **block chaining** — each compiled block carries a ``chain`` map from
  successor guest-block index to the successor's compiled body; the
  engine's jit loop (:meth:`repro.dbt.engine.DBTEngine.run`) transfers
  through it directly once an edge is hot, without returning to the
  dispatch loop.

The interpreter backend remains the oracle: compiled execution must
produce byte-identical architectural state *and* identical ``RunMetrics``
counts in either form (``tests/test_backend_difftest.py`` enforces this
over the corpus plus hundreds of fuzzed programs, each run twice so both
forms execute).  The generated code therefore
replicates the exact arithmetic of
:class:`repro.semantics.domain.ConcreteDomain` — the 33-bit carry /
sign-overlap overflow formulas, the shift saturation rules, 0/1 integer
flags — and any mnemonic without a code template falls back to calling
the shared semantics function, which is always correct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.cache import JIT_BLOCKS_BOUND, STATS

from repro.dbt.executor import WEIGHTS, BlockKernel, HostExecutor
from repro.dbt.runtime import DISPATCH_LABEL, SharedInstruction
from repro.dbt.translator import TranslatedBlock
from repro.errors import ExecutionError
from repro.isa.flags import NZCV
from repro.isa.instruction import Instruction, InstructionDef
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.x86.opcodes import X86

_MASK = 0xFFFFFFFF
_M = "0xFFFFFFFF"

_NONE: FrozenSet[str] = frozenset()

#: Run-index sentinel: control leaves the block (the dispatch-label exit).
EXIT = -1

#: Observers notified with the :class:`TranslatedBlock` on every source
#: **generation** (:func:`generate_block_source`, which every inline
#: ``compile_block`` call goes through); :func:`compile_block_source` alone
#: does *not* fire them.  The serving layer's single-flight tests use the
#: listener count to prove that concurrent identical requests coalesce onto
#: exactly one codegen.  Keep listeners cheap; they run on the compile path.
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
#
# The emitters render an operand's constants into the text they append.  A
# concrete operand renders them as literals (the inline ``_block`` form).  A
# template operand (:func:`_template_operand`) holds a :class:`_Param` in
# their place, which renders as the name of a factory parameter.


class _Param(str):
    """A template parameter standing in for an operand constant.

    ``repr`` is the bare name, so ``regs[{name!r}]`` renders ``regs[_p0]``
    for a template register as it renders ``regs['t0']`` for a real one.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return str.__str__(self)


class _WordParam(_Param):
    """Parameter holding a word-aligned constant address.  Its word index
    is the parameter of the same name plus ``w`` (:func:`_make_factory`
    computes it once per bound instruction)."""

    __slots__ = ()


def _const(value) -> str:
    """An integer constant as text: its masked literal, or a parameter."""
    return value if isinstance(value, _Param) else str(value & _MASK)


def _const_slot(mem: Mem) -> Tuple[bool, str]:
    """A constant address as ``(aligned, text)``: the word index when it is
    word-aligned, else the byte address."""
    disp = mem.disp
    if isinstance(disp, _WordParam):
        return True, f"{disp}w"
    if isinstance(disp, _Param):
        return False, disp
    disp &= _MASK
    if not disp & 3:
        return True, str(disp >> 2)
    return False, str(disp)


def _addr_expr(mem: Mem) -> str:
    """Effective-address expression; equivalent to ``BaseState.addr_of``.

    ``addr_of`` masks after every add/mul; folding into one final mask
    yields the same 32-bit value.  Single pre-masked terms skip the mask.
    """
    parts: List[str] = []
    if isinstance(mem.disp, _Param) or mem.disp & _MASK:
        parts.append(_const(mem.disp))
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
        return _const(op.value)
    if isinstance(op, Mem):
        if op.base is None and op.index is None:
            aligned, slot = _const_slot(op)
            return f"mem.get({slot}, 0)" if aligned else f"st.load({slot})"
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
            aligned, slot = _const_slot(op)
            if aligned:
                out.append(f"mem[{slot}] = {value}")
            else:
                out.append(f"st.store({slot}, {value})")
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
    k,
    insn: Instruction,
    defn: InstructionDef,
    out: List[str],
    ns: Dict,
    dead: FrozenSet[str] = _NONE,
) -> None:
    """Append source lines executing one non-branch instruction.

    *k* suffixes its temporaries and fallback bindings (the instruction's
    index in a block or trace; ``""`` in a one-instruction template).
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
_FELL_MSG = "translated block fell through its end"
_FELL_THROUGH = f"raise ExecutionError({_FELL_MSG!r})"


def _run_leaders(tb: TranslatedBlock, defs) -> List[int]:
    n = len(tb.host)
    leaders = {0}
    leaders.update(pos for pos in tb.labels.values() if pos < n)
    for i, defn in enumerate(defs):
        if defn.is_branch and i + 1 < n:
            leaders.add(i + 1)
    return sorted(leaders)


#: One object per dead-flag set (a subset of NZCV), so the bindings that
#: shared instructions keep share their keys.
_DEAD_SETS: Dict[FrozenSet[str], FrozenSet[str]] = {}


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
                dead[k] = _DEAD_SETS.setdefault(unread, unread)
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


def _run_insns(
    defs, start: int, end: int
) -> Tuple[range, Dict[int, FrozenSet[str]]]:
    """The instructions of run ``host[start:end)`` before its terminating
    branch, and the flags each of them sets that go unread."""
    body_end = end - 1 if defs[end - 1].is_branch else end
    return range(start, body_end), _dead_flags(defs, start, body_end)


def _run_body(
    tb: TranslatedBlock, defs, start: int, end: int, ns: Dict
) -> List[str]:
    """Source lines executing ``host[start:end)`` up to its terminator."""
    insns, dead = _run_insns(defs, start, end)
    body: List[str] = []
    for k in insns:
        _emit_insn(k, tb.host[k], defs[k], body, ns, dead.get(k, _NONE))
    return body


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
    the signature so every block form is called the same way.
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


# -- templates -----------------------------------------------------------------
#
# A cold block runs without a compile() of its own.  Each host instruction
# becomes a function made by a factory that is compiled once per process
# per *shape*: the mnemonic, what the emitters branch on for each operand
# (:func:`_operand_shape`) and the dead-flag set.  The factory's parameters
# are the instruction's operand constants, so binding a block is one walk
# over its operands and one factory call per instruction.  Shared
# instructions (:class:`repro.dbt.runtime.SharedInstruction`: the runtime's
# glue and the memoized rule bodies) are bound once, and each keeps its
# function itself.

#: Shape -> factory, for the life of the process.  Keyed by shapes, so
#: rule-body and TCG instructions pay their binding in every block.
_FACTORIES: Dict[Any, Callable] = {}

#: :data:`_PRED_EXPR` as callables over the flag file, for template exits
#: (keyed by the expression, which is what an exit holds).
_PRED_FN: Dict[str, Callable] = {
    expr: eval(f"lambda flags: {expr}")  # noqa: S307 - our own constants
    for expr in _PRED_EXPR.values()
}

#: Template-runner exit sentinel: control falls off the end of the host code.
_FELL = -2

#: ``TemplateBlock.left`` of a block bound without a tier-up count.
_NEVER = 1 << 62

#: One bound block, counted without a lock (``CacheStats.jit_blocks_bound``).
_count_bound = JIT_BLOCKS_BOUND.bump


def _operand_shape(op, params: List) -> Any:
    """What the emitters branch on for *op*; its constants go to *params*.

    A register and an immediate are one shape each.  A memory operand's
    shape is base/index presence, whether the index is scaled and whether
    the displacement is zero; a constant address's is whether it is
    word-aligned.  Any other operand is opaque: only the semantics
    fallback can use it.
    """
    if isinstance(op, Reg):
        params.append(op.name)
        return "r"
    if isinstance(op, Imm):
        params.append(op.value & _MASK)
        return "i"
    if isinstance(op, Mem):
        disp = op.disp & _MASK
        base, index = op.base, op.index
        if base is None and index is None:
            params.append(disp)
            return "a" if disp & 3 else "w"
        scaled = index is not None and op.scale != 1
        if base is not None:
            params.append(base.name)
        if index is not None:
            params.append(index.name)
        if scaled:
            params.append(op.scale)
        if disp:
            params.append(disp)
        return ("m", base is not None, index is not None, scaled, disp != 0)
    params.append(op)
    return "?"


def _template_operand(shape, name: Callable[[], str]):
    """The operand a template is emitted from: *shape* with each constant
    replaced by a fresh parameter, in :func:`_operand_shape`'s order."""
    if shape == "r":
        return Reg(_Param(name()))
    if shape == "i":
        return Imm(_Param(name()))
    if shape == "w":
        return Mem(disp=_WordParam(name()))
    if shape == "a":
        return Mem(disp=_Param(name()))
    if shape == "?":
        return _Param(name())
    _m, has_base, has_index, scaled, has_disp = shape
    base = Reg(_Param(name())) if has_base else None
    index = Reg(_Param(name())) if has_index else None
    scale = _Param(name()) if scaled else 1
    disp = _Param(name()) if has_disp else 0
    return Mem(base=base, index=index, disp=disp, scale=scale)


def _make_factory(key, defn: InstructionDef) -> Callable:
    """Compile the factory for one instruction shape.

    The factory takes the operand constants, then the semantics function
    and the instruction (used only by the untemplated fallback), and
    returns the instruction's function with the ones it uses bound as
    parameter defaults: plain locals, with no closure cells to allocate.
    """
    mnemonic, shapes, dead = key
    counter = itertools.count()

    def name() -> str:
        return f"_p{next(counter)}"

    operands = tuple(_template_operand(shape, name) for shape in shapes)
    body: List[str] = []
    fallback: Dict = {}
    _emit_insn("", Instruction(mnemonic, operands), defn, body, fallback, dead)
    params = [f"_p{i}" for i in range(next(counter))]
    bound = [f"{p}={p}" for p in params] + [
        f"{op.disp}w={op.disp} >> 2"
        for op in operands
        if isinstance(op, Mem) and isinstance(op.disp, _WordParam)
    ]
    bound += [f"{p}={p}" for p in fallback]
    text = "\n".join(
        [
            f"def _factory({', '.join(params + ['_sem', '_i'])}):",
            f"    def _insn(st, regs, mem, flags, {', '.join(bound)}):",
        ]
        + [f"        {line}" for line in body or ["pass"]]
        + ["    return _insn"]
    )
    ns: Dict = {}
    exec(compile(text, f"<dbt-template:{mnemonic}>", "exec"), ns)  # noqa: S102
    STATS.incr(jit_template_shapes=1)
    return ns["_factory"]


def _bind_insn(
    insn: Instruction, defn: InstructionDef, dead: FrozenSet[str]
) -> Callable:
    """One instruction as a ``(st, regs, mem, flags)`` function."""
    params: List = []
    key = (
        insn.mnemonic,
        tuple([_operand_shape(op, params) for op in insn.operands]),
        dead,
    )
    factory = _FACTORIES.get(key)
    if factory is None:
        factory = _FACTORIES[key] = _make_factory(key, defn)
    return factory(*params, defn.semantics, insn)


def _bind_shared(
    insn: SharedInstruction, defn: InstructionDef, dead: FrozenSet[str]
) -> Callable:
    """:func:`_bind_insn` for a shared instruction, which keeps its first
    binding; a block needing another dead-flag set binds its own.  The
    function is bound from a plain copy: a semantics fallback's instruction
    default must not refer back to the instruction holding the function."""
    bound = insn.bound
    if bound is not None and bound[0] == dead:
        return bound[1]
    fn = _bind_insn(Instruction(insn.mnemonic, insn.operands), defn, dead)
    insn.keep_bound(dead, fn)
    return fn


def _interpret(tb: TranslatedBlock, kernel: BlockKernel, st, counts) -> None:
    """``execute`` of a block with a backward edge or path-dependent counts:
    the interpreter itself, with its runaway guard and per-instruction
    counts (such a block has no constant to fold)."""
    HostExecutor(st).run_block(tb, counts, kernel)


class CompiledBlock:
    """One translated block in executable form.

    ``execute(state, counts)`` runs the block to its dispatch exit against
    *state*.  It is one of:

    * the **template form** (:func:`bind_block`, a :class:`TemplateBlock`):
      a small run-graph loop over per-instruction functions bound from
      per-shape templates, with no ``compile()`` of the block's own.
      Every cold jit block starts here;
    * the **inline form** (:func:`compile_block`): one generated
      ``_block`` function, called without a wrapper frame.  A template
      block tiers up to it in place, so chain maps and per-run execution
      counts keep the same object.

    Neither counts anything: ``host_counts`` holds the block's constant
    per-execution weighted host-instruction counts
    (:func:`block_host_counts`), which the engine multiplies by the
    block's execution count when the run ends.  The exception is the
    guarded form, for a block with a backward edge or path-dependent
    counts: it runs on the interpreter (:func:`_interpret`), which keeps
    its runaway guard and counts per instruction, ``host_counts`` is
    empty, and it never tiers up.

    ``chain`` maps a successor guest-block index to the successor's
    ``CompiledBlock``; the engine populates it the first time an edge is
    taken (when chaining is enabled) and follows it directly afterwards.
    ``runs`` and ``left`` belong to the template form.
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
        "runs",
        "left",
        "__weakref__",
    )

    def __init__(
        self, tb: TranslatedBlock, execute, host_counts: HostCounts
    ) -> None:
        self.tb = tb
        if execute is not None:  # a TemplateBlock's is its method
            self.execute = execute
        self.chain: Dict[int, "CompiledBlock"] = {}
        self.guest_count = tb.guest_count
        self.covered_count = tb.covered_count
        self.rule_agg = tb.rule_agg
        self.host_counts = host_counts
        self.start = tb.start


class TemplateBlock(CompiledBlock):
    """A path-uniform block in template form.

    ``execute`` is a method over ``runs``, which holds two entries per
    run: the tuple of its functions, which execute in order, and its exit
    ``(predicate, taken, fall)``, which picks the next run (by position in
    ``runs``) or leaves the block; nothing is counted, as in the
    ``_block`` form.  An exit names its predicate by its :data:`_PRED_FN`
    key, so it holds no object the collector tracks.

    ``left`` counts down to tier-up: the execution that finds it at 1 (the
    count trigger) or at 0 (set by the engine when a later run starts: the
    reuse trigger) compiles the inline form instead, and the object
    becomes a plain :class:`CompiledBlock` in place (the two classes share
    one layout).  So the block needs no trigger object (no closure,
    partial or weak reference), and nothing in it refers back to it.
    """

    __slots__ = ()

    def execute(self, st, counts) -> None:
        left = self.left
        if left <= 1:
            return self._tier_up(st, counts)
        self.left = left - 1
        runs = self.runs
        regs = st.regs
        mem = st.memory
        flags = st.flags
        ri = 0
        try:
            while True:
                for fn in runs[ri]:
                    fn(st, regs, mem, flags)
                pred, taken, fall = runs[ri + 1]
                if pred is not None and not _PRED_FN[pred](flags):
                    taken = fall
                if taken < 0:
                    if taken == EXIT:
                        return
                    raise ExecutionError(_FELL_MSG)
                ri = taken
        except KeyError as exc:
            _uninit(exc)

    def _tier_up(self, st, counts) -> None:
        stat = "jit_tierups_reuse" if self.left == 0 else "jit_tierups_count"
        execute = compile_block(self.tb).execute
        self.__class__ = CompiledBlock
        self.execute = execute
        self.runs = None
        STATS.incr(**{stat: 1})
        execute(st, counts)


@dataclass(frozen=True)
class BlockSource:
    """The product of block codegen: source text + host counts.

    The text is one accounting-free ``_block`` function, and
    ``host_counts`` is the block's non-empty per-execution cost
    (:func:`block_host_counts`).  :func:`compile_block_source` turns it
    into a :class:`CompiledBlock`.
    """

    text: str
    host_counts: HostCounts


class _PathDependent(ExecutionError):
    """A block without constant host counts has no inline form."""


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
    """Lower one path-uniform translated block to generated Python source.

    Deterministic: the same translated block always yields byte-identical
    source text.  Fires the compile listeners (this is the "work happened" event the
    single-flight proofs count).  A block without constant host counts has
    no source form (:func:`compile_block` gives it the guarded form).
    """
    defs = _block_defs(tb, defs)
    if not tb.host:
        raise ExecutionError("cannot compile an empty translated block")
    bounds, exits = _run_graph(tb, defs)
    host_counts = _path_counts(tb, bounds, exits)
    if host_counts is None:
        raise _PathDependent("block has path-dependent host counts")
    scratch: Dict = {}  # _emit_insn's fallback bindings; rebuilt at exec time
    runs = [
        (_run_body(tb, defs, start, end, scratch), exit_)
        for (start, end), exit_ in zip(bounds, exits)
    ]
    lines = _block_function(runs)
    for listener in tuple(_COMPILE_LISTENERS):
        listener(tb)
    return BlockSource(text="\n".join(lines), host_counts=host_counts)


def compile_block_source(
    tb: TranslatedBlock,
    source: BlockSource,
    defs: Optional[Tuple[InstructionDef, ...]] = None,
) -> CompiledBlock:
    """Instantiate generated source into an executable :class:`CompiledBlock`.

    The namespace the source executes in is rebuilt here from the
    translated block: every instruction's shared semantics function and
    instruction value are bound as ``_sem{k}``/``_i{k}`` (a superset of
    what the source references — unused bindings are free), so the source
    needs nothing beyond the block it was generated from.
    """
    defs = _block_defs(tb, defs)
    ns: Dict = {"ExecutionError": ExecutionError, "_uninit": _uninit}
    for k, (insn, defn) in enumerate(zip(tb.host, defs)):
        ns[f"_sem{k}"] = defn.semantics
        ns[f"_i{k}"] = insn
    code = compile(source.text, f"<dbt-block@{tb.start:#x}>", "exec")
    exec(code, ns)  # noqa: S102 - source generated from our own IR
    # Popped, not read: a function left in its own globals is a cycle.
    return CompiledBlock(tb, ns.pop("_block"), source.host_counts)


def bind_block(
    tb: TranslatedBlock,
    defs: Optional[Tuple[InstructionDef, ...]] = None,
    after: Optional[int] = None,
) -> CompiledBlock:
    """Bind one translated block into its template form (no ``compile()``).

    A path-uniform block becomes a :class:`TemplateBlock`, which tiers up
    to the inline form on its *after*-th execution (never without
    *after*) or on its next one once the engine sets ``left`` to 0.  Any
    other block gets the guarded form, which never tiers up.
    """
    defs = _block_defs(tb, defs)
    if not tb.host:
        raise ExecutionError("cannot compile an empty translated block")
    bounds, exits = _run_graph(tb, defs)
    host_counts = _path_counts(tb, bounds, exits)
    if host_counts is None:
        return CompiledBlock(tb, partial(_interpret, tb, BlockKernel(tb)), ())
    host = tb.host
    runs: List = []
    for (start, end), (pred, taken, fall) in zip(bounds, exits):
        insns, dead = _run_insns(defs, start, end)
        runs.append(
            tuple(
                (_bind_shared if type(host[k]) is SharedInstruction else _bind_insn)(
                    host[k], defs[k], dead.get(k, _NONE)
                )
                for k in insns
            )
        )
        # Run ri's functions sit at position 2 * ri, its exit after them.
        if taken is None:
            taken = _FELL
        elif taken >= 0:
            taken *= 2
        runs.append((pred, taken, None if fall is None else 2 * fall))
    _count_bound()
    cb = TemplateBlock(tb, None, host_counts)
    cb.runs = tuple(runs)
    cb.left = after or _NEVER
    return cb


def compile_block(
    tb: TranslatedBlock,
    defs: Optional[Tuple[InstructionDef, ...]] = None,
) -> CompiledBlock:
    """Compile one translated block into its inline ``_block`` form.

    A block without constant host counts has none; it gets the guarded
    form instead.
    """
    defs = _block_defs(tb, defs)
    try:
        source = generate_block_source(tb, defs)
    except _PathDependent:
        return bind_block(tb, defs)
    return compile_block_source(tb, source, defs)
