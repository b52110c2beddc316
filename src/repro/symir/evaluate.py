"""Concrete evaluation of symbolic expressions.

Given an assignment of integer values to free symbols, compute the concrete
value of an expression.  This is the workhorse of the randomized equivalence
checker in :mod:`repro.verify.equivalence`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.symir.expr import BinOp, Const, Expr, Extract, Ite, Sym, UnOp, ZeroExt


def _to_signed(value: int, width: int) -> int:
    sign_bit = 1 << (width - 1)
    return value - (1 << width) if value & sign_bit else value


def _clz(value: int, width: int) -> int:
    for i in range(width - 1, -1, -1):
        if value & (1 << i):
            return width - 1 - i
    return width


def evaluate(expr: Expr, env: Mapping[str, int], _cache: Dict[int, int] | None = None) -> int:
    """Evaluate *expr* under *env* (symbol name -> unsigned integer value).

    The result is an unsigned integer masked to the expression's width.
    Raises :class:`KeyError` if a free symbol is missing from *env*.
    """
    if _cache is None:
        _cache = {}
    key = id(expr)
    cached = _cache.get(key)
    if cached is not None:
        return cached

    if isinstance(expr, Const):
        result = expr.value
    elif isinstance(expr, Sym):
        result = env[expr.name] & expr.mask()
    elif isinstance(expr, BinOp):
        lhs = evaluate(expr.lhs, env, _cache)
        rhs = evaluate(expr.rhs, env, _cache)
        width = expr.lhs.width
        mask = (1 << width) - 1
        op = expr.op
        if op == "add":
            result = (lhs + rhs) & mask
        elif op == "sub":
            result = (lhs - rhs) & mask
        elif op == "mul":
            result = (lhs * rhs) & mask
        elif op == "and":
            result = lhs & rhs
        elif op == "or":
            result = lhs | rhs
        elif op == "xor":
            result = lhs ^ rhs
        elif op == "shl":
            result = (lhs << (rhs % width)) & mask if rhs < width else 0
        elif op == "lshr":
            result = lhs >> rhs if rhs < width else 0
        elif op == "ashr":
            shift = min(rhs, width - 1)
            result = (_to_signed(lhs, width) >> shift) & mask
        elif op == "eq":
            result = int(lhs == rhs)
        elif op == "ne":
            result = int(lhs != rhs)
        elif op == "ult":
            result = int(lhs < rhs)
        elif op == "ule":
            result = int(lhs <= rhs)
        elif op == "slt":
            result = int(_to_signed(lhs, width) < _to_signed(rhs, width))
        elif op == "sle":
            result = int(_to_signed(lhs, width) <= _to_signed(rhs, width))
        else:
            raise ValueError(f"unknown binary operator: {op}")
    elif isinstance(expr, UnOp):
        operand = evaluate(expr.operand, env, _cache)
        width = expr.operand.width
        mask = (1 << width) - 1
        if expr.op == "not":
            result = ~operand & mask
        elif expr.op == "neg":
            result = -operand & mask
        elif expr.op == "clz":
            result = _clz(operand, width)
        else:
            raise ValueError(f"unknown unary operator: {expr.op}")
    elif isinstance(expr, Ite):
        cond = evaluate(expr.cond, env, _cache)
        result = evaluate(expr.then if cond else expr.orelse, env, _cache)
    elif isinstance(expr, Extract):
        operand = evaluate(expr.operand, env, _cache)
        result = (operand >> expr.lo) & expr.mask()
    elif isinstance(expr, ZeroExt):
        result = evaluate(expr.operand, env, _cache)
    else:
        raise TypeError(f"unknown expression node: {expr!r}")

    _cache[key] = result
    return result


def _postorder(expr: Expr) -> List[Expr]:
    """Unique sub-DAG nodes of *expr*, children before parents.

    Nodes are interned, so deduplicating by the node itself collapses every
    occurrence of a shared subterm to one entry — the walk (and the batched
    evaluation over it) is linear in the DAG, not the tree.
    """
    order: List[Expr] = []
    seen: Dict[Expr, None] = {}
    stack: List[tuple] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen[node] = None
        stack.append((node, True))
        if isinstance(node, BinOp):
            stack.append((node.lhs, False))
            stack.append((node.rhs, False))
        elif isinstance(node, UnOp):
            stack.append((node.operand, False))
        elif isinstance(node, Ite):
            stack.append((node.cond, False))
            stack.append((node.then, False))
            stack.append((node.orelse, False))
        elif isinstance(node, (Extract, ZeroExt)):
            stack.append((node.operand, False))
    return order
