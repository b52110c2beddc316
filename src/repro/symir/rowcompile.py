"""Closure-compiled pair scanners for sampling-based equivalence checks.

The randomized equivalence checker (:mod:`repro.verify.equivalence`)
evaluates a guest/host expression pair under hundreds to thousands of
assignments.  Interpreting the DAG per assignment
(:func:`repro.symir.evaluate.evaluate`) pays Python-level dispatch per
node.  This module instead lowers a pair once to a generated Python
function that returns the index of the first row on which the two sides
differ; for ``(a + b) ^ b`` against ``a``::

    def _pair_eval(rows):
        for i, (r0, r1,) in enumerate(rows):
            t0 = (r0 + r1) & 4294967295
            t1 = t0 ^ r1
            if t1 != r0:
                return i
        return -1

and compiles it, so each assignment costs one pass of straight-line
bytecode.  Generated arithmetic replicates :func:`repro.symir.evaluate.
evaluate` bit-for-bit (masking, shift-out-of-range, signed compares, clz),
and shared subterms, also those shared by the two sides, are bound to one
local (the walk is over the union DAG).  Scanners are memoized per
``(lhs, rhs, names)`` — interned nodes make the key exact.

A ``compile()`` costs about as much as interpreting a few dozen rows, so
the checker interprets a short prefix of its assignment stream first and
asks for a scanner only when the pair agrees on all of it: most rejected
pairs never reach this module.

This is the same technique the DBT's execution backend uses for translated
blocks (:mod:`repro.dbt.compiler`), applied to the offline pipeline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.cache import MISS, BoundedMemo
from repro.symir.evaluate import _clz, _postorder
from repro.symir.expr import BinOp, Const, Expr, Extract, Ite, Sym, UnOp, ZeroExt

#: (lhs, rhs, names) -> generated scanner; *names* is the symbol order of
#: the rows.
_ROW_EVAL_MEMO = BoundedMemo(maxsize=8192, name="symir.row_eval")


def _signed(operand: str, width: int) -> str:
    sign = 1 << (width - 1)
    modulus = 1 << width
    return f"({operand} - {modulus} if {operand} & {sign} else {operand})"


def _emit(node: Expr, ref: Dict[Expr, str]) -> str:
    """Python expression computing *node* from already-emitted operands."""
    if isinstance(node, BinOp):
        lhs, rhs = ref[node.lhs], ref[node.rhs]
        width = node.lhs.width
        mask = (1 << width) - 1
        op = node.op
        if op == "add":
            return f"({lhs} + {rhs}) & {mask}"
        if op == "sub":
            return f"({lhs} - {rhs}) & {mask}"
        if op == "mul":
            return f"({lhs} * {rhs}) & {mask}"
        if op == "and":
            return f"{lhs} & {rhs}"
        if op == "or":
            return f"{lhs} | {rhs}"
        if op == "xor":
            return f"{lhs} ^ {rhs}"
        if op == "shl":
            return f"(({lhs} << ({rhs} % {width})) & {mask} if {rhs} < {width} else 0)"
        if op == "lshr":
            return f"({lhs} >> {rhs} if {rhs} < {width} else 0)"
        if op == "ashr":
            shift = f"({rhs} if {rhs} < {width - 1} else {width - 1})"
            return f"({_signed(lhs, width)} >> {shift}) & {mask}"
        if op == "eq":
            return f"1 if {lhs} == {rhs} else 0"
        if op == "ne":
            return f"1 if {lhs} != {rhs} else 0"
        if op == "ult":
            return f"1 if {lhs} < {rhs} else 0"
        if op == "ule":
            return f"1 if {lhs} <= {rhs} else 0"
        if op == "slt":
            return f"1 if {_signed(lhs, width)} < {_signed(rhs, width)} else 0"
        if op == "sle":
            return f"1 if {_signed(lhs, width)} <= {_signed(rhs, width)} else 0"
        raise ValueError(f"unknown binary operator: {op}")
    if isinstance(node, UnOp):
        operand = ref[node.operand]
        width = node.operand.width
        mask = (1 << width) - 1
        if node.op == "not":
            return f"(~{operand}) & {mask}"
        if node.op == "neg":
            return f"(-{operand}) & {mask}"
        if node.op == "clz":
            return f"_clz({operand}, {width})"
        raise ValueError(f"unknown unary operator: {node.op}")
    if isinstance(node, Ite):
        return f"{ref[node.then]} if {ref[node.cond]} else {ref[node.orelse]}"
    if isinstance(node, Extract):
        return f"({ref[node.operand]} >> {node.lo}) & {node.mask()}"
    if isinstance(node, ZeroExt):
        return ref[node.operand]
    raise TypeError(f"unknown expression node: {node!r}")


def _build_refs(
    exprs: Sequence[Expr], names: Tuple[str, ...]
) -> Tuple[Dict[Expr, str], List[str]]:
    """Emit locals for every unique non-leaf node across *exprs*.

    The walk is over the union of the expression DAGs, so a subterm shared
    between the two sides of an equivalence check is computed once per row.
    """
    position = {name: i for i, name in enumerate(names)}
    ref: Dict[Expr, str] = {}
    lines: List[str] = []
    counter = 0
    for expr in exprs:
        for node in _postorder(expr):
            if node in ref:
                continue
            if isinstance(node, Const):
                ref[node] = str(node.value)
            elif isinstance(node, Sym):
                # Rows are pre-clipped, but a symbol narrower than its column
                # (same-name symbols of different widths) still masks on
                # read, exactly as the interpreter does.
                var = f"r{position[node.name]}"
                ref[node] = f"({var} & {node.mask()})" if node.width < 32 else var
            elif isinstance(node, ZeroExt):
                ref[node] = ref[node.operand]
            else:
                ref[node] = f"t{counter}"
                lines.append(f"        t{counter} = {_emit(node, ref)}")
                counter += 1
    return ref, lines


def _compile(source: str, name: str) -> Callable:
    """The function *name* defined by *source*, popped out of its exec
    namespace: left there, it would sit in its own globals, a cycle only
    the cyclic collector frees once the memo drops it."""
    namespace: Dict[str, object] = {"_clz": _clz}
    exec(compile(source, "<rowcompile>", "exec"), namespace)
    return namespace.pop(name)


PairEvaluator = Callable[[Sequence[tuple]], int]


def pair_evaluator(
    lhs: Expr, rhs: Expr, names: Tuple[str, ...]
) -> PairEvaluator:
    """Compiled first-difference scanner for a pair of expressions.

    ``fn(rows)`` returns the index of the first row on which the two
    expressions evaluate differently, or ``-1`` if they agree on every row.
    Rows may be any iterable; it is consumed lazily, so the scan stops at
    the first difference.  Both sides are lowered into one function over the
    union of their DAGs, so subterms shared between the sides — common for a
    guest/host value pair — are evaluated once per row.
    """
    key = (lhs, rhs, names)
    fn = _ROW_EVAL_MEMO.get(key)
    if fn is not MISS:
        return fn

    ref, lines = _build_refs((lhs, rhs), names)
    unpack = ", ".join(f"r{i}" for i in range(len(names)))
    target = f"({unpack},)" if names else "_"
    body = "\n".join(lines) if lines else "        pass"
    source = (
        "def _pair_eval(rows):\n"
        f"    for i, {target} in enumerate(rows):\n"
        f"{body}\n"
        f"        if {ref[lhs]} != {ref[rhs]}:\n"
        "            return i\n"
        "    return -1\n"
    )
    fn = _compile(source, "_pair_eval")
    _ROW_EVAL_MEMO.put(key, fn)
    return fn
